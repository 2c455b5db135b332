"""Correlation study utilities and perplexity from token log-probs.

p-values come from a seeded two-sided permutation test (10,000 resamples
by default) rather than a closed form: assumption-free, and reproducible
bit-for-bit for a fixed seed. ``correlations`` runs the Pearson and the
Spearman test on one stream: each block of resamples is one matrix of
shuffled indices (as many rows of n as fit ``_PERMUTATION_BLOCK``
elements, at least one), and each test gathers its own values through
it, so the p-values are those of ``pearson`` and ``spearman`` with the
same seed. Category summaries use the population standard deviation.

numpy is loaded by ``_numpy``, on the first call that computes
statistics, so that a process that never computes them never loads it:
importing numpy costs about 100 ms and 13 MiB. Its OpenBLAS starts one
thread per core as it loads, and splits a long dot product across them,
which rounds by the number of threads; so unless the caller loaded numpy
first, it is loaded with one BLAS thread, and a result does not depend
on the cores it ran on.
"""

from __future__ import annotations

import math
import os
import random
import sys
from dataclasses import dataclass

from .errors import (
    DegenerateInput,
    DomainError,
    EmptyCategory,
    InsufficientBin,
    InvalidLogProb,
)

DEFAULT_PERMUTATIONS = 10_000
DEFAULT_BINS = 10
# elements of the matrix of resamples permuted at a time: bounds the tests'
# scratch at this many indices plus as many floats (one row of n when n is
# larger); the generator draws the same stream as for one whole matrix
_PERMUTATION_BLOCK = 1 << 15
# the largest x whose exp is a finite float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _numpy():
    """numpy; loaded with ``OPENBLAS_NUM_THREADS=1`` unless already loaded.

    The variable is set for the import only: the caller's environment is
    restored exactly, and a caller that loaded numpy first keeps its threads.
    """
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    saved = os.environ.get("OPENBLAS_NUM_THREADS")
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy
    finally:
        if saved is None:
            del os.environ["OPENBLAS_NUM_THREADS"]
        else:
            os.environ["OPENBLAS_NUM_THREADS"] = saved
    return numpy


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


CATEGORIES = ("MC", "SC", "TMC", "TSC")


@dataclass(frozen=True)
class LogProbRecord:
    id: str
    category: str  # one of CATEGORIES
    token_logprobs: tuple[float, ...]

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise ValueError(
                f"record {self.id}: category {self.category!r} is not one of {', '.join(CATEGORIES)}"
            )
        if not self.token_logprobs:
            raise InvalidLogProb(f"record {self.id}: no tokens")
        for lp in self.token_logprobs:
            if lp > 0:
                raise InvalidLogProb(f"record {self.id}: positive log-prob {lp}")
            if not math.isfinite(lp):
                raise InvalidLogProb(f"record {self.id}: log-prob {lp} is not finite")
        if -sum(self.token_logprobs) / len(self.token_logprobs) > _LOG_FLOAT_MAX:
            raise InvalidLogProb(f"record {self.id}: perplexity does not fit a float")


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
        raise DomainError(f"bins and per_bin must be positive, got {bins} and {per_bin}")
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
    np = _numpy()
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    if x.ndim != 1 or y.ndim != 1 or len(x) != len(y):
        raise DegenerateInput("inputs must be equal-length 1-D sequences")
    if len(x) < 3:
        raise DegenerateInput(f"need at least 3 points, got {len(x)}")
    if np.ptp(x) == 0 or np.ptp(y) == 0:
        raise DegenerateInput("zero variance input")
    return x, y


def _permutation_tests(pairs, permutations: int, seed: int) -> list[tuple[float, float]]:
    """(coefficient, two-sided permutation p) of each (x, y) pair of equal
    length. Every test permutes its centred ``y`` by the same rows of
    indices, so two tests cost one draw of the stream."""
    np = _numpy()
    rng = np.random.default_rng(seed)
    tests = []
    for x, y in pairs:
        xc = x - x.mean()
        yc = y - y.mean()
        denom = math.sqrt(float((xc @ xc) * (yc @ yc)))
        tests.append((xc, yc, denom, float((xc @ yc) / denom)))
    n = len(pairs[0][0])
    rows = max(1, min(permutations, _PERMUTATION_BLOCK // n))
    order = np.arange(n)
    block = np.empty((rows, n), dtype=np.intp)
    hits = [0] * len(tests)
    for start in range(0, permutations, rows):
        idx = block[: permutations - start]
        idx[:] = order
        # the same draws as permuting the values themselves: a row's
        # shuffle depends on its length only, not on what it holds
        rng.permuted(idx, axis=1, out=idx)
        for i, (xc, yc, denom, observed) in enumerate(tests):
            # not `yc[idx] @ xc`: BLAS rounds a row differently by its
            # position in the matrix and hands each small product to its threads
            r_perm = np.einsum("ij,j->i", yc[idx], xc) / denom
            hits[i] += int(np.count_nonzero(np.abs(r_perm) >= abs(observed) - 1e-12))
    return [(observed, (h + 1) / (permutations + 1))
            for (_, _, _, observed), h in zip(tests, hits)]


def pearson(
    xs, ys, permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0
) -> tuple[float, float]:
    """Sample correlation coefficient and permutation-test p-value."""
    x, y = _check_pair(xs, ys)
    return _permutation_tests([(x, y)], permutations, seed)[0]


def average_ranks(values) -> np.ndarray:
    """1-based ranks; ties share the mean of their rank positions."""
    np = _numpy()
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
    return _permutation_tests([(average_ranks(x), average_ranks(y))], permutations, seed)[0]


def correlations(
    xs, ys, permutations: int = DEFAULT_PERMUTATIONS, seed: int = 0
) -> tuple[tuple[float, float], tuple[float, float]]:
    """``(pearson(...), spearman(...))`` with one permutation stream for both."""
    x, y = _check_pair(xs, ys)
    pair, rank = _permutation_tests(
        [(x, y), (average_ranks(x), average_ranks(y))], permutations, seed
    )
    return pair, rank


def perplexity(record: LogProbRecord) -> float:
    """exp(-mean log-probability) over the record's tokens."""
    return math.exp(-sum(record.token_logprobs) / len(record.token_logprobs))


@dataclass(frozen=True)
class CategorySummary:
    mean: float
    std: float  # population standard deviation
    count: int


def ppl_compare(records: list[LogProbRecord]) -> dict[str, CategorySummary]:
    """Per-category mean and population std of per-record perplexity, in
    category name order.

    Raises InvalidLogProb when a category's mean or std overflows.
    """
    np = _numpy()
    grouped: dict[str, list[float]] = {}
    for record in records:
        grouped.setdefault(record.category, []).append(perplexity(record))
    if not grouped:
        raise EmptyCategory("no records to summarize")
    summaries: dict[str, CategorySummary] = {}
    for category, values in sorted(grouped.items()):
        arr = np.asarray(values, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            mean, std = float(arr.mean()), float(arr.std(ddof=0))
        if not (math.isfinite(mean) and math.isfinite(std)):
            raise InvalidLogProb(
                f"category {category}: the mean or std of its perplexities does not fit a float"
            )
        summaries[category] = CategorySummary(mean=mean, std=std, count=len(values))
    return summaries
