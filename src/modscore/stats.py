"""Correlation study utilities and perplexity from token log-probs.

p-values come from a seeded two-sided permutation test (10,000 resamples
by default) rather than a closed form: assumption-free, and reproducible
bit-for-bit for a fixed seed. Category summaries use the population
standard deviation.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateInput,
    EmptyCategory,
    InsufficientBin,
    InvalidLogProb,
)

DEFAULT_PERMUTATIONS = 10_000
DEFAULT_BINS = 10
# resamples permuted at a time: bounds the test's memory at this many rows
# of n floats; the generator draws the same stream as for one whole matrix
_PERMUTATION_BLOCK = 1024


@dataclass(frozen=True)
class ScoredSample:
    unit_id: str
    mos: float
    pass1: float

    def __post_init__(self):
        if not 0.0 <= self.mos <= 1.0:
            raise ValueError(f"mos out of [0,1]: {self.mos}")
        if not 0.0 <= self.pass1 <= 1.0:
            raise ValueError(f"pass1 out of [0,1]: {self.pass1}")


@dataclass(frozen=True)
class LogProbRecord:
    id: str
    category: str  # MC | SC | TMC | TSC
    token_logprobs: tuple[float, ...]

    def __post_init__(self):
        if not self.token_logprobs:
            raise InvalidLogProb(f"record {self.id}: no tokens")
        for lp in self.token_logprobs:
            if lp > 0:
                raise InvalidLogProb(f"record {self.id}: positive log-prob {lp}")


def bin_index(mos: float, bins: int) -> int:
    """Equal-width bins over [0, 1]; the final bin is right-closed."""
    return min(int(mos * bins), bins - 1)


def binned_sample(
    pool: list[ScoredSample],
    bins: int,
    per_bin: int,
    seed: int,
) -> list[ScoredSample]:
    """Draw per_bin items uniformly without replacement from each bin."""
    if bins < 1 or per_bin < 1:
        raise ValueError("bins and per_bin must be positive")
    buckets: list[list[ScoredSample]] = [[] for _ in range(bins)]
    for sample in pool:
        buckets[bin_index(sample.mos, bins)].append(sample)
    rng = random.Random(seed)
    chosen: list[ScoredSample] = []
    for i, bucket in enumerate(buckets):
        if len(bucket) < per_bin:
            lo, hi = i / bins, (i + 1) / bins
            raise InsufficientBin(
                f"bin [{lo:g}, {hi:g}{']' if i == bins - 1 else ')'} holds "
                f"{len(bucket)} item(s), need {per_bin}"
            )
        chosen.extend(rng.sample(bucket, per_bin))
    return chosen


def _check_pair(xs, ys) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise DegenerateInput("inputs must be equal-length 1-D sequences")
    if len(x) < 3:
        raise DegenerateInput(f"need at least 3 points, got {len(x)}")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateInput("zero variance input")
    return x, y


def _pearson_r(x: np.ndarray, y: np.ndarray) -> float:
    xc = x - x.mean()
    yc = y - y.mean()
    return float((xc @ yc) / math.sqrt((xc @ xc) * (yc @ yc)))


def _permutation_p(
    x: np.ndarray, y: np.ndarray, observed: float, permutations: int, seed: int
) -> float:
    rng = np.random.default_rng(seed)
    xc = x - x.mean()
    yc = y - y.mean()
    denom = math.sqrt(float((xc @ xc) * (yc @ yc)))
    block = np.empty((min(permutations, _PERMUTATION_BLOCK), len(yc)))
    hits = 0
    for start in range(0, permutations, _PERMUTATION_BLOCK):
        perms = block[: permutations - start]
        perms[:] = yc
        rng.permuted(perms, axis=1, out=perms)
        # not `perms @ xc`: BLAS rounds a row differently by its position
        # in the matrix and hands each small product to its threads
        r_perm = np.einsum("ij,j->i", perms, xc) / denom
        hits += int(np.count_nonzero(np.abs(r_perm) >= abs(observed) - 1e-12))
    return (hits + 1) / (permutations + 1)


def pearson(
    xs, ys, permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0
) -> tuple[float, float]:
    """Sample correlation coefficient and permutation-test p-value."""
    x, y = _check_pair(xs, ys)
    r = _pearson_r(x, y)
    p = _permutation_p(x, y, r, permutations, seed)
    return r, p


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties share the mean of their rank positions."""
    arr = np.asarray(values, dtype=float)
    order = np.argsort(arr, kind="stable")
    ranks = np.empty(len(arr), dtype=float)
    i = 0
    while i < len(arr):
        j = i
        while j + 1 < len(arr) and arr[order[j + 1]] == arr[order[i]]:
            j += 1
        mean_rank = (i + j) / 2 + 1
        for k in range(i, j + 1):
            ranks[order[k]] = mean_rank
        i = j + 1
    return ranks


def spearman(
    xs, ys, permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0
) -> tuple[float, float]:
    """Rank correlation with average ranks for ties; permutation p-value."""
    x, y = _check_pair(xs, ys)
    rx = average_ranks(x)
    ry = average_ranks(y)
    rho = _pearson_r(rx, ry)
    p = _permutation_p(rx, ry, rho, permutations, seed)
    return rho, p


def perplexity(record: LogProbRecord) -> float:
    """exp(-mean log-probability) over the record's tokens."""
    return math.exp(-sum(record.token_logprobs) / len(record.token_logprobs))


@dataclass(frozen=True)
class CategorySummary:
    mean: float
    std: float  # population standard deviation
    count: int


def ppl_compare(
    records: list[LogProbRecord],
    categories: list[str] | None = None,
) -> dict[str, CategorySummary]:
    """Per-category mean and population std of per-record perplexity."""
    grouped: dict[str, list[float]] = {}
    for record in records:
        grouped.setdefault(record.category, []).append(perplexity(record))
    wanted = categories if categories is not None else sorted(grouped)
    if not wanted:
        raise EmptyCategory("no records to summarize")
    summaries: dict[str, CategorySummary] = {}
    for category in wanted:
        values = grouped.get(category)
        if not values:
            raise EmptyCategory(f"no records in category {category!r}")
        arr = np.asarray(values, dtype=float)
        summaries[category] = CategorySummary(
            mean=float(arr.mean()),
            std=float(arr.std(ddof=0)),
            count=len(values),
        )
    return summaries
