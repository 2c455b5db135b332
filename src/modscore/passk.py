"""Unbiased pass@k estimation.

For one problem with n samples of which c are correct, the probability
that at least one of k drawn samples is correct is

    pass@k = 1 - C(n-c, k) / C(n, k)

computed in the numerically stable product form
1 - prod_{i=n-c+1..n} (1 - k/i), then averaged over problems.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DomainError, EmptyInput


def pass_at_k(n: int, c: int, k: int) -> float:
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    if not 0 <= c <= n:
        raise DomainError(f"c must be in [0, {n}], got {c}")
    if not 1 <= k <= n:
        raise DomainError(f"k must be in [1, {n}], got {k}")
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    prod = 1.0
    for i in range(n - c + 1, n + 1):
        prod *= 1.0 - k / i
    return 1.0 - prod


@dataclass(eq=False)
class EvalResult:
    problem_id: str
    n_samples: int
    c_correct: int
    pass_at: dict[int, float]

    @classmethod
    def from_counts(cls, problem_id: str, n: int, c: int, ks: list[int]) -> "EvalResult":
        return cls(
            problem_id=problem_id,
            n_samples=n,
            c_correct=c,
            pass_at={k: pass_at_k(n, c, k) for k in ks},
        )


def aggregate(results: list[EvalResult], k: int) -> float:
    """Mean pass@k across problems."""
    if not results:
        raise EmptyInput("no evaluation results")
    values = []
    for result in results:
        if result.n_samples < k:
            raise DomainError(
                f"problem {result.problem_id}: n={result.n_samples} < k={k}"
            )
        values.append(result.pass_at[k] if k in result.pass_at
                      else pass_at_k(result.n_samples, result.c_correct, k))
    return sum(values) / len(values)
