"""Modularity scoring and corpus-side categorization.

The score compares the actual number of modules n (named function
definitions) against the ideal count m* = floor(cc_total / tau):

    score = min(1, n / m*)   if m* > 0
          = 0                if m* = 0 and n = 0
          = 1                if m* = 0 and n > 0

tau defaults to 5: a function whose complexity exceeds it would benefit
from being split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .complexity import ComplexityReport, unit_complexity
from .errors import EmptyInput, InvalidThreshold
from .parsing import SourceUnit

DEFAULT_TAU = 5


@dataclass(eq=False)
class ModularityReport:
    unit: SourceUnit
    n: int
    m_star: int
    mos: float
    tau: int
    complexity: ComplexityReport

    @property
    def source_lines(self) -> int:
        return len(self.unit.text.splitlines())


def ideal_modules(cc_total: int, tau: int) -> int:
    if tau < 1:
        raise InvalidThreshold(f"tau must be >= 1, got {tau}")
    if cc_total < 0:
        raise InvalidThreshold(f"cc_total must be >= 0, got {cc_total}")
    return cc_total // tau


def modularity_score(n: int, m_star: int) -> float:
    if n < 0 or m_star < 0:
        raise InvalidThreshold("n and m_star must be non-negative")
    if m_star > 0:
        return min(1.0, n / m_star)
    return 0.0 if n == 0 else 1.0


def score_unit(
    unit: SourceUnit, tau: int = DEFAULT_TAU, count_short_circuit: bool = True
) -> ModularityReport:
    report = unit_complexity(unit, count_short_circuit)
    m_star = ideal_modules(report.cc_total, tau)
    n = report.function_count
    return ModularityReport(
        unit=unit,
        n=n,
        m_star=m_star,
        mos=modularity_score(n, m_star),
        tau=tau,
        complexity=report,
    )


@dataclass(eq=False)
class Categorization:
    mc_index: int | None
    sc_index: int | None


def categorize_solutions(reports: list[ModularityReport]) -> Categorization:
    """Pick the modular (max score) and singular (score 0) solutions.

    The modular pick is absent when every score is 0; the singular pick is
    absent when no score is 0. Ties break by fewest source lines, then by
    corpus order.
    """
    if not reports:
        raise EmptyInput("no solutions to categorize")
    taus = {r.tau for r in reports}
    if len(taus) > 1:
        raise InvalidThreshold(f"solutions scored with different taus: {sorted(taus)}")

    best = min(
        range(len(reports)),
        key=lambda i: (-reports[i].mos, reports[i].source_lines, i),
    )
    mc_index = best if reports[best].mos > 0 else None
    zeros = [i for i in range(len(reports)) if reports[i].mos == 0]
    sc_index = min(zeros, key=lambda i: (reports[i].source_lines, i)) if zeros else None
    return Categorization(mc_index=mc_index, sc_index=sc_index)
