import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from modscore import stats
from modscore.errors import (
    DegenerateInput,
    EmptyCategory,
    InsufficientBin,
    InvalidLogProb,
)
from modscore.stats import (
    LogProbRecord,
    ScoredSample,
    average_ranks,
    bin_index,
    binned_sample,
    correlations,
    pearson,
    perplexity,
    ppl_compare,
    spearman,
)


def exact_pearson(xs, ys) -> Fraction:
    """Oracle: covariance over sigma product squared, in exact rationals."""
    n = len(xs)
    xs = [Fraction(x) for x in xs]
    ys = [Fraction(y) for y in ys]
    mx = sum(xs) / n
    my = sum(ys) / n
    cov = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    vx = sum((x - mx) ** 2 for x in xs)
    vy = sum((y - my) ** 2 for y in ys)
    signed_r2 = Fraction(cov * abs(cov), vx * vy)
    return signed_r2  # sign(r) * r^2, exactly


def exact_ranks(values):
    """Oracle: brute-force average ranks."""
    out = []
    for v in values:
        smaller = sum(1 for w in values if w < v)
        equal = sum(1 for w in values if w == v)
        first = smaller + 1
        out.append(Fraction(first + (first + equal - 1), 2))
    return out


# -- pearson / spearman -------------------------------------------------------


def test_pearson_perfect_line():
    xs = [1.0, 2.0, 3.0, 4.0]
    r, _ = pearson(xs, [2 * x for x in xs])
    assert r == pytest.approx(1.0, abs=1e-12)


def test_pearson_perfect_negative():
    xs = [1.0, 2.0, 3.0, 4.0]
    r, _ = pearson(xs, [-x + 7 for x in xs])
    assert r == pytest.approx(-1.0, abs=1e-12)


def test_pearson_exact_arithmetic_oracle():
    xs = [1, 2, 3, 4]
    ys = [2, 1, 4, 3]
    signed_r2 = exact_pearson(xs, ys)
    assert signed_r2 == Fraction(9, 25)  # r = 3/5 exactly
    r, _ = pearson(xs, ys)
    assert r == pytest.approx(0.6, abs=1e-12)


def test_spearman_monotone_nonlinear():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    rho, _ = spearman(xs, [x ** 3 for x in xs])
    assert rho == pytest.approx(1.0, abs=1e-12)


def test_spearman_reversed():
    xs = [1.0, 2.0, 3.0, 4.0, 5.0]
    rho, _ = spearman(xs, list(reversed(xs)))
    assert rho == pytest.approx(-1.0, abs=1e-12)


def test_spearman_ties_against_rank_oracle():
    xs = [1, 2, 2, 3]
    ys = [1, 3, 2, 4]
    rx = exact_ranks(xs)
    ry = exact_ranks(ys)
    assert rx == [1, Fraction(5, 2), Fraction(5, 2), 4]
    signed_r2 = exact_pearson(rx, ry)
    assert signed_r2 == Fraction(9, 10)
    expected = math.sqrt(float(signed_r2))
    rho, _ = spearman(xs, ys)
    assert rho == pytest.approx(expected, abs=1e-12)


def test_average_ranks_match_oracle():
    values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
    got = average_ranks(values)
    want = [float(f) for f in exact_ranks(values)]
    assert list(got) == want


def test_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        pearson([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(DegenerateInput):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(DegenerateInput):
        spearman([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])


def test_permutation_p_reproducible():
    rng = np.random.default_rng(123)
    xs = rng.normal(size=40).tolist()
    ys = (np.asarray(xs) * 0.4 + rng.normal(size=40)).tolist()
    r1, p1 = pearson(xs, ys, seed=7)
    r2, p2 = pearson(xs, ys, seed=7)
    assert (r1, p1) == (r2, p2)  # bit-for-bit under a fixed seed
    _, p3 = pearson(xs, ys, seed=8)
    assert 0.0 < p1 <= 1.0
    assert p1 != p3 or p1 < 0.05  # different seed resamples differently


def _pinned_pair(seed, n, slope):
    rng = random.Random(seed)
    xs = [rng.random() for _ in range(n)]
    return xs, [slope * x + rng.random() for x in xs]


# (seed, n, slope, permutations, pearson hits + 1, spearman hits + 1): the
# counts from permuting every resample in one matrix; the resample counts
# straddle the block size the test works in, so blocking must not move them
PINNED_P = [
    (1, 12, 0.5, 10_000, 3244, 7168),
    (2, 40, 0.2, 10_000, 3035, 3397),
    (3, 500, 0.05, 10_000, 1760, 1787),
    (4, 500, 0.08, 2_500, 118, 137),
    (5, 30, 0.05, 1_000, 30, 31),
]


@pytest.mark.parametrize("seed, n, slope, permutations, pearson_hits, spearman_hits", PINNED_P)
def test_permutation_p_pinned(seed, n, slope, permutations, pearson_hits, spearman_hits):
    xs, ys = _pinned_pair(seed, n, slope)
    r, p = pearson(xs, ys, permutations=permutations, seed=seed)
    rho, rho_p = spearman(xs, ys, permutations=permutations, seed=seed)
    assert p == pearson_hits / (permutations + 1)
    assert rho_p == spearman_hits / (permutations + 1)
    # both tests on one stream give the same two answers
    assert correlations(xs, ys, permutations, seed) == ((r, p), (rho, rho_p))


# resample counts that fill one block (n = 3) and several (n = 501: 65 rows
# a block), with and without a short last block
@pytest.mark.parametrize("permutations", [1, 100, 255, 256, 257, 600])
@pytest.mark.parametrize("n", [3, 501])
def test_correlations_share_one_stream_at_any_block_count(n, permutations):
    xs, ys = _pinned_pair(n + permutations, n, 0.1)
    ys = [round(y, 1) for y in ys]  # ties, so the ranks differ from the values
    for seed in (0, 9):
        assert correlations(xs, ys, permutations, seed) == (
            pearson(xs, ys, permutations, seed), spearman(xs, ys, permutations, seed))


def test_p_values_do_not_depend_on_the_block_size(monkeypatch):
    xs, ys = _pinned_pair(6, 50, 0.1)
    permutations = 1_000
    monkeypatch.setattr(stats, "_PERMUTATION_BLOCK", 50 * permutations)
    one_block = correlations(xs, ys, permutations, 3)
    monkeypatch.setattr(stats, "_PERMUTATION_BLOCK", 50 * 7)  # 7 rows a block
    assert correlations(xs, ys, permutations, 3) == one_block


def test_permutation_memory_stays_bounded_at_corpus_size():
    # 256 rows of 20,000 indices and as many floats took about 78 MiB
    xs, ys = _pinned_pair(7, 20_000, 0.05)
    tracemalloc.start()
    try:
        correlations(xs, ys, 300, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_permuted_shuffles_indices_as_it_shuffles_values():
    # the p-values are those of permuting the values only if a row's
    # shuffle does not depend on its dtype; a numpy that breaks this
    # fails here
    for seed in range(30):
        rows = (1, 2, 255, 257, 1_000, 2_500)[seed % 6]
        for n in (3, 7, 100, 501):
            values = np.random.default_rng(1000 + seed).random(n)
            shuffled = np.tile(values, (rows, 1))
            np.random.default_rng(seed).permuted(shuffled, axis=1, out=shuffled)
            idx = np.tile(np.arange(n), (rows, 1))
            np.random.default_rng(seed).permuted(idx, axis=1, out=idx)
            assert idx.dtype == np.intp
            assert np.array_equal(values[idx], shuffled), (seed, n, rows)


def test_pearson_against_scipy():
    scipy_stats = pytest.importorskip("scipy.stats")
    rng = np.random.default_rng(5)
    xs = rng.normal(size=25)
    ys = rng.normal(size=25)
    r, _ = pearson(xs.tolist(), ys.tolist())
    assert r == pytest.approx(scipy_stats.pearsonr(xs, ys)[0], abs=1e-12)
    rho, _ = spearman(xs.tolist(), ys.tolist())
    assert rho == pytest.approx(scipy_stats.spearmanr(xs, ys)[0], abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=4, max_size=25),
    st.floats(0.1, 10),
    st.floats(-5, 5),
)
def test_pearson_affine_invariance(ys, a, b):
    xs = list(range(len(ys)))
    assume(np.ptp(ys) > 1e-6)
    r0, _ = pearson(xs, ys, permutations=10)
    r_pos, _ = pearson([a * x + b for x in xs], ys, permutations=10)
    r_neg, _ = pearson([-a * x + b for x in xs], ys, permutations=10)
    assert r_pos == pytest.approx(r0, abs=1e-12)
    assert r_neg == pytest.approx(-r0, abs=1e-12)
    assert abs(r0) <= 1 + 1e-12


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-1000, 1000), min_size=4, max_size=25))
def test_spearman_monotone_transform_invariance(ys):
    xs = list(range(len(ys)))
    assume(len(set(ys)) > 1)
    rho0, _ = spearman(xs, ys, permutations=10)
    # exact strictly increasing transform: distinct ints stay distinct
    transformed = [y ** 3 for y in ys]
    rho1, _ = spearman(xs, transformed, permutations=10)
    assert rho1 == pytest.approx(rho0, abs=1e-12)
    assert abs(rho0) <= 1 + 1e-12


# -- binned sampling ----------------------------------------------------------


def make_pool(mos_values):
    return [
        ScoredSample(unit_id=f"u{i}", mos=m, pass1=0.5)
        for i, m in enumerate(mos_values)
    ]


def test_binned_sample_contract():
    pool = make_pool([i / 100 for i in range(100)])
    out = binned_sample(pool, bins=5, per_bin=2, seed=1)
    assert len(out) == 10
    for bucket in range(5):
        members = [s for s in out if bin_index(s.mos, 5) == bucket]
        assert len(members) == 2


def test_binned_sample_insufficient_bin_named():
    pool = make_pool([0.1, 0.2, 0.3, 0.5, 0.6])  # nothing in [0.8, 1.0]
    with pytest.raises(InsufficientBin) as err:
        binned_sample(pool, bins=5, per_bin=1, seed=0)
    assert "[0.8, 1]" in str(err.value)


def test_binned_sample_reproducible():
    pool = make_pool([(i % 97) / 100 for i in range(400)])
    a = binned_sample(pool, bins=10, per_bin=3, seed=42)
    b = binned_sample(pool, bins=10, per_bin=3, seed=42)
    assert [s.unit_id for s in a] == [s.unit_id for s in b]
    c = binned_sample(pool, bins=10, per_bin=3, seed=43)
    assert [s.unit_id for s in a] != [s.unit_id for s in c]


def test_binned_sample_final_bin_right_closed():
    assert bin_index(1.0, 10) == 9
    assert bin_index(0.0, 10) == 0


def test_survey_scale_configuration():
    # 8K-strong pool, 10 bins x 10 per bin -> exactly 100 samples
    pool = make_pool([(i % 1000) / 1000 for i in range(8000)])
    out = binned_sample(pool, bins=10, per_bin=10, seed=3)
    assert len(out) == 100


# -- perplexity ---------------------------------------------------------------


def test_ppl_uniform_half():
    record = LogProbRecord("a", "MC", tuple([-math.log(2)] * 7))
    assert perplexity(record) == pytest.approx(2.0, abs=1e-12)


def test_ppl_certain_token():
    assert perplexity(LogProbRecord("a", "SC", (0.0,))) == pytest.approx(1.0, abs=1e-12)


def test_ppl_closed_form_three_tokens():
    probs = [0.5, 0.25, 0.125]
    record = LogProbRecord("a", "MC", tuple(math.log(p) for p in probs))
    assert perplexity(record) == pytest.approx(4.0, abs=1e-12)


def test_ppl_length_invariance_when_uniform():
    for n in (1, 4, 19):
        record = LogProbRecord("a", "MC", tuple([-1.3] * n))
        assert perplexity(record) == pytest.approx(math.exp(1.3), abs=1e-12)


def test_invalid_logprob():
    with pytest.raises(InvalidLogProb):
        LogProbRecord("a", "MC", (0.1,))
    with pytest.raises(InvalidLogProb):
        LogProbRecord("a", "MC", ())
    with pytest.raises(ValueError, match="category 'XX' is not one of MC, SC, TMC, TSC"):
        LogProbRecord("a", "XX", (-1.0,))


@pytest.mark.parametrize("logprobs, message", [
    ((-1.0, math.nan), "log-prob nan is not finite"),
    ((-math.inf,), "log-prob -inf is not finite"),
    ((-1000.0,), "perplexity does not fit a float"),
    ((-1e308, -1e308), "perplexity does not fit a float"),  # the sum overflows
])
def test_logprobs_must_be_finite_with_a_perplexity_that_fits(logprobs, message):
    with pytest.raises(InvalidLogProb, match=message):
        LogProbRecord("a", "MC", logprobs)


def test_largest_perplexities_that_fit_are_kept():
    record = LogProbRecord("a", "MC", (-709.0,))
    assert perplexity(record) == math.exp(709.0)
    assert ppl_compare([record])["MC"].std == 0.0


def test_ppl_compare_refuses_a_std_that_overflows():
    records = [LogProbRecord("a", "MC", (-400.0,)), LogProbRecord("b", "MC", (-1.0,))]
    with pytest.raises(InvalidLogProb, match="category MC: the mean or std"):
        ppl_compare(records)


def test_ppl_compare_identical_records_zero_std():
    records = [
        LogProbRecord("a", "MC", (-math.log(2),)),
        LogProbRecord("b", "MC", (-math.log(2),)),
    ]
    summary = ppl_compare(records)["MC"]
    assert summary.mean == pytest.approx(2.0, abs=1e-12)
    assert summary.std == 0.0


def test_ppl_compare_two_categories():
    records = [
        LogProbRecord("a", "MC", (-math.log(2),)),
        LogProbRecord("b", "MC", (-math.log(4),)),
        LogProbRecord("c", "SC", (-math.log(3),)),
        LogProbRecord("d", "SC", (-math.log(3),)),
    ]
    out = ppl_compare(records)
    assert out["MC"].mean == pytest.approx(3.0, abs=1e-12)
    assert out["MC"].std == pytest.approx(1.0, abs=1e-12)
    assert out["SC"].mean == pytest.approx(3.0, abs=1e-12)
    assert out["SC"].std == pytest.approx(0.0, abs=1e-12)


def test_ppl_compare_empty_category():
    with pytest.raises(EmptyCategory):
        ppl_compare([])


def test_fixture_file_matches_independent_recomputation(fixtures_dir):
    import json

    records = []
    for line in (fixtures_dir / "logprobs.jsonl").read_text().splitlines():
        row = json.loads(line)
        records.append(LogProbRecord(
            row["id"], row["category"], tuple(row["token_logprobs"])
        ))
    assert len(records) == 20
    summaries = ppl_compare(records)
    # spreadsheet-style recomputation: plain python arithmetic
    by_cat = {}
    for record in records:
        ppl = math.exp(-sum(record.token_logprobs) / len(record.token_logprobs))
        by_cat.setdefault(record.category, []).append(ppl)
    for category, values in by_cat.items():
        mean = sum(values) / len(values)
        var = sum((v - mean) ** 2 for v in values) / len(values)
        assert summaries[category].mean == pytest.approx(mean, abs=1e-12)
        assert summaries[category].std == pytest.approx(math.sqrt(var), abs=1e-12)
