"""Cyclomatic complexity per function, per unit, and the function average.

Two independent routes compute it: ``cc_from_cfg`` reads E - N + 2P off
a built graph, while ``cc_decision_points`` counts 1 + decision
constructs straight off the syntax tree. The second exists to cross-check
the first; they share no code. They agree on reachable code. On dead
code they may differ: the graph keeps an unreachable region as a
component of its own, which adds 1, as a function does, plus only those
of its decisions whose arms rejoin, while the decision-point route counts
every construct.

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


# each counts one decision: an elif arm is an If of its own
_BRANCHES = frozenset({ast.If, ast.IfExp, ast.While, ast.For, ast.AsyncFor, ast.ExceptHandler})


def cc_decision_points(fn: FunctionDef, count_short_circuit: bool = True) -> int:
    """Classical decision-point form: 1 + number of decisions in the body.

    One walk with an explicit stack, so a deeply nested expression cannot
    exhaust the interpreter's recursion; it never enters a nested def.
    """
    decisions = 0
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            continue  # separate function, separate count
        if kind in _BRANCHES:
            decisions += 1
        elif kind is ast.BoolOp:
            if count_short_circuit:
                decisions += len(node.values) - 1
        elif kind is ast.comprehension:
            decisions += len(node.ifs)
        elif kind is ast.match_case:
            pattern = node.pattern  # a bare capture arm is an else
            catchall = type(pattern) is ast.MatchAs and pattern.pattern is None
            decisions += (not catchall) + (node.guard is not None)
        stack.extend(ast.iter_child_nodes(node))
    return 1 + decisions


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
