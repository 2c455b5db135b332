import itertools
import math

import pytest
from hypothesis import given, strategies as st

from modscore.errors import DomainError, EmptyInput
from modscore.passk import EvalResult, aggregate, pass_at_k


def pass_at_k_by_enumeration(n: int, c: int, k: int) -> float:
    """Oracle: fraction of k-subsets containing at least one correct sample."""
    correct = set(range(c))
    hits = 0
    total = 0
    for subset in itertools.combinations(range(n), k):
        total += 1
        if correct.intersection(subset):
            hits += 1
    return hits / total


def pass_at_k_binomial(n: int, c: int, k: int) -> float:
    """Oracle: exact 1 - C(n-c, k) / C(n, k) with integer arithmetic."""
    if n - c < k:
        return 1.0
    return 1.0 - math.comb(n - c, k) / math.comb(n, k)


def test_zero_correct_is_zero():
    assert pass_at_k(10, 0, 1) == 0.0


def test_reduces_to_ratio_at_k_one():
    assert pass_at_k(10, 3, 1) == pytest.approx(0.3, abs=1e-12)


def test_spot_value_against_enumeration():
    oracle = pass_at_k_by_enumeration(10, 3, 5)
    assert oracle == pytest.approx(1 - 21 / 252, abs=1e-15)
    assert pass_at_k(10, 3, 5) == pytest.approx(oracle, abs=1e-12)
    assert pass_at_k(10, 3, 5) == pytest.approx(0.916667, abs=5e-7)


def test_all_correct_is_one():
    assert pass_at_k(7, 7, 3) == 1.0


def test_exhaustive_sweep_small_n():
    for n in range(1, 21):
        for c in range(n + 1):
            for k in range(1, n + 1):
                stable = pass_at_k(n, c, k)
                exact = pass_at_k_binomial(n, c, k)
                assert abs(stable - exact) <= 1e-12, (n, c, k)


def test_domain_errors():
    with pytest.raises(DomainError):
        pass_at_k(10, 11, 1)
    with pytest.raises(DomainError):
        pass_at_k(10, 2, 0)
    with pytest.raises(DomainError):
        pass_at_k(10, 2, 11)
    with pytest.raises(DomainError):
        pass_at_k(0, 0, 1)


@given(st.integers(1, 60).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, n), st.integers(1, n))
))
def test_monotone_in_k_and_c(args):
    n, c, k = args
    value = pass_at_k(n, c, k)
    assert 0.0 <= value <= 1.0
    if k < n:
        assert pass_at_k(n, c, k + 1) >= value - 1e-15
    if c < n:
        assert pass_at_k(n, c + 1, k) >= value - 1e-15
    if c >= 1:
        assert pass_at_k(n, c, n) == 1.0


def test_aggregate_mean():
    results = [
        EvalResult.from_counts("a", 10, 3, [1]),
        EvalResult.from_counts("b", 10, 5, [1]),
    ]
    assert aggregate(results, 1) == pytest.approx(0.4, abs=1e-12)


def test_aggregate_single_problem():
    results = [EvalResult.from_counts("a", 10, 4, [1])]
    assert aggregate(results, 1) == pytest.approx(0.4, abs=1e-12)


def test_aggregate_fixture_hand_average():
    counts = {"a": 2, "b": 0, "c": 4, "d": 1, "e": 3}
    results = [EvalResult.from_counts(pid, 4, c, [2]) for pid, c in counts.items()]
    by_hand = sum(pass_at_k_binomial(4, c, 2) for c in counts.values()) / 5
    assert aggregate(results, 2) == pytest.approx(by_hand, abs=1e-12)


def test_aggregate_leaves_its_inputs_unchanged():
    results = [EvalResult.from_counts("a", 10, 3, [1]), EvalResult.from_counts("b", 10, 5, [1])]
    before = [dict(r.pass_at) for r in results]
    assert aggregate(results, 2) == (pass_at_k(10, 3, 2) + pass_at_k(10, 5, 2)) / 2
    assert [r.pass_at for r in results] == before


def test_aggregate_empty_raises():
    with pytest.raises(EmptyInput):
        aggregate([], 1)


def test_aggregate_rejects_small_n():
    results = [EvalResult.from_counts("a", 3, 1, [1])]
    with pytest.raises(DomainError):
        aggregate(results, 5)


def test_pass_at_monotone_in_result_map():
    result = EvalResult.from_counts("a", 10, 4, [1, 2, 5, 10])
    values = [result.pass_at[k] for k in sorted(result.pass_at)]
    assert values == sorted(values)
