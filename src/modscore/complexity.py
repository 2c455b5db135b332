"""Cyclomatic complexity per function, per unit, and the function average.

Two independent routes compute the same quantity: ``cc_from_cfg`` reads
E - N + 2P off a built graph, while ``cc_decision_points`` counts
1 + decision constructs straight off the syntax tree. The second exists
to cross-check the first; they share no code.

Counted decisions: conditional statements (each elif arm is its own
conditional), conditional expressions, loops, except clauses, each
short-circuit operator (unless ``count_short_circuit`` is false), each
comprehension filter clause, and match case arms that actually test
something (a bare capture arm is an else; a guard adds one). Nested
function bodies belong to their own function; class bodies and lambda
bodies count toward the enclosing one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .cfg import ControlFlowGraph, build_cfg, graph_counts
from .parsing import FunctionDef, SourceUnit


@dataclass(eq=False)
class ComplexityReport:
    per_function: dict[FunctionDef, int]
    toplevel_cc: int
    cc_total: int
    cc_avg: float
    function_count: int


def cc_from_cfg(cfg: ControlFlowGraph) -> int:
    """E - N + 2P; reduces to E - N + 2 on a single-component graph."""
    e, n, p = graph_counts(cfg)
    return e - n + 2 * p


class _DecisionCounter(ast.NodeVisitor):
    """Counts decision constructs; never descends into nested defs."""

    def __init__(self, count_boolops: bool):
        self.count_boolops = count_boolops
        self.decisions = 0

    def visit_If(self, node):
        self.decisions += 1
        self.generic_visit(node)

    def visit_IfExp(self, node):
        self.decisions += 1
        self.generic_visit(node)

    def visit_While(self, node):
        self.decisions += 1
        self.generic_visit(node)

    def visit_For(self, node):
        self.decisions += 1
        self.generic_visit(node)

    def visit_AsyncFor(self, node):
        self.decisions += 1
        self.generic_visit(node)

    def visit_ExceptHandler(self, node):
        self.decisions += 1
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        if self.count_boolops:
            self.decisions += len(node.values) - 1
        self.generic_visit(node)

    def visit_comprehension(self, node):
        self.decisions += len(node.ifs)
        self.generic_visit(node)

    def visit_Match(self, node):
        self.generic_visit(node)

    def visit_match_case(self, node):
        pattern = node.pattern
        catchall = isinstance(pattern, ast.MatchAs) and pattern.pattern is None
        if not catchall:
            self.decisions += 1
        if node.guard is not None:
            self.decisions += 1
        self.generic_visit(node)

    def visit_FunctionDef(self, node):
        pass  # separate function, separate count

    def visit_AsyncFunctionDef(self, node):
        pass

    def visit_Lambda(self, node):
        self.generic_visit(node)  # anonymous: counts toward the encloser


def cc_decision_points(fn: FunctionDef, count_short_circuit: bool = True) -> int:
    """Classical decision-point form: 1 + number of decisions in the body."""
    counter = _DecisionCounter(count_short_circuit)
    for stmt in fn.body:
        counter.visit(stmt)
    return 1 + counter.decisions


def unit_complexity(unit: SourceUnit, count_short_circuit: bool = True) -> ComplexityReport:
    """Graph-route CC for every definition plus the toplevel script.

    cc_total sums every definition and the toplevel; cc_avg averages over
    named definitions only (0.0 when there are none).
    """
    per_function = {fn: cc_from_cfg(build_cfg(fn, count_short_circuit))
                    for fn in unit.functions}
    toplevel_cc = cc_from_cfg(build_cfg(unit.toplevel, count_short_circuit))
    total = sum(per_function.values()) + toplevel_cc
    count = len(per_function)
    avg = (sum(per_function.values()) / count) if count else 0.0
    return ComplexityReport(
        per_function=per_function,
        toplevel_cc=toplevel_cc,
        cc_total=total,
        cc_avg=avg,
        function_count=count,
    )
