"""Control-flow graph construction for one function body or script.

Nodes are statements plus the materialized expression decisions, and a
distinguished exit. Edges follow syntax: both arms of a conditional, loop
body and loop exit, one handler-entry edge per except clause from the
guarded region's entry, back-edges, and early returns to the exit.
Decisions that live inside expressions (short-circuit operators,
conditional expressions, comprehension filters) are materialized as
branch/merge node pairs so the graph counts them.

Modeling notes, all chosen so the edge/node counts match the independent
decision-point count:
  - a statement's node follows the decisions in the fields that
    ``parsing.EVALUATES`` lists for its type, except that a ``try``
    branches on each handler's type and a ``match`` on each arm's guard;
  - nested function bodies are excluded (each definition gets its own
    graph); class bodies execute inline and are included;
  - `assert`, `with`, and `finally` are sequential;
  - `raise` leaves the function (handler-entry edges are attached to the
    guarded region, not to raise sites);
  - a jump inside a `try` that has a `finally` is routed through the
    finally block, whose out-edge continues past the try -- a deliberate
    over-approximation that keeps every node reachable;
  - statements that can never execute form their own weakly connected
    component, tracked by the component count P.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .errors import UnsupportedConstruct
from .parsing import EVALUATES, TRY_NODES, FunctionDef


@dataclass(eq=False)
class ControlFlowGraph:
    nodes: list[int]
    edges: list[tuple[int, int]]
    entry: int
    exits: frozenset[int]


def graph_counts(cfg: ControlFlowGraph) -> tuple[int, int, int]:
    """Return (E, N, P) for a graph; P counts weakly connected components."""
    parent = {n: n for n in cfg.nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in cfg.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    components = len({find(n) for n in cfg.nodes})
    return len(cfg.edges), len(cfg.nodes), components


def _is_catchall(case: ast.match_case) -> bool:
    p = case.pattern
    return isinstance(p, ast.MatchAs) and p.pattern is None


# the fields of each expression-level node that can hold a decision;
# names, constants, contexts and operators hold none and are never pushed
_EXPR_CHILDREN: dict[type, tuple[str, ...]] = {
    ast.BoolOp: ("values",),
    ast.NamedExpr: ("value",),
    ast.BinOp: ("left", "right"),
    ast.UnaryOp: ("operand",),
    ast.Lambda: ("args", "body"),
    ast.IfExp: ("test", "body", "orelse"),
    ast.Dict: ("keys", "values"),
    ast.Set: ("elts",),
    ast.ListComp: ("elt", "generators"),
    ast.SetComp: ("elt", "generators"),
    ast.DictComp: ("key", "value", "generators"),
    ast.GeneratorExp: ("elt", "generators"),
    ast.Await: ("value",),
    ast.Yield: ("value",),
    ast.YieldFrom: ("value",),
    ast.Compare: ("left", "comparators"),
    ast.Call: ("func", "args", "keywords"),
    ast.FormattedValue: ("value", "format_spec"),
    ast.JoinedStr: ("values",),
    ast.Attribute: ("value",),
    ast.Subscript: ("value", "slice"),
    ast.Starred: ("value",),
    ast.List: ("elts",),
    ast.Tuple: ("elts",),
    ast.Slice: ("lower", "upper", "step"),
    ast.comprehension: ("target", "iter", "ifs"),
    ast.keyword: ("value",),
    ast.arguments: ("defaults", "kw_defaults"),  # a lambda's: no annotations
    ast.withitem: ("context_expr", "optional_vars"),
    ast.Name: (),
    ast.Constant: (),
}
_LEAVES = frozenset((ast.Name, ast.Constant))


def _count_expr_decisions(root: ast.AST, count_boolops: bool) -> int:
    """Expression-level decisions: conditional expressions, short-circuit
    operators (when counted), comprehension filters."""
    count = 0
    stack = [root]
    while stack:
        node = stack.pop()
        kind = type(node)
        if kind is ast.IfExp:
            count += 1
        elif kind is ast.BoolOp:
            if count_boolops:
                count += len(node.values) - 1
        elif kind is ast.comprehension:
            count += len(node.ifs)
        for field in _EXPR_CHILDREN[kind]:
            child = getattr(node, field)
            if type(child) is list:
                for item in child:
                    if item is not None and type(item) not in _LEAVES:
                        stack.append(item)
            elif child is not None and type(child) not in _LEAVES:
                stack.append(child)
    return count


class _Builder:
    def __init__(self, count_short_circuit: bool):
        self.count_short_circuit = count_short_circuit
        self.edges: list[tuple[int, int]] = []
        self.edge_set: set[tuple[int, int]] = set()
        self.next_id = 0
        # innermost-first stack of ("loop", dict) / ("finally", node) /
        # ("dead", node) jump contexts
        self.ctx: list[tuple[str, object]] = []
        self.dead_exits: list[int] = []
        self.exit_node = self._new()

    def _new(self) -> int:
        nid = self.next_id
        self.next_id += 1
        return nid

    def _edge(self, a: int, b: int):
        if (a, b) not in self.edge_set:
            self.edge_set.add((a, b))
            self.edges.append((a, b))

    def _node(self, frontier: list[int]) -> int:
        nid = self._new()
        for src in frontier:
            self._edge(src, nid)
        return nid

    # -- jump target resolution ------------------------------------------

    def _dead_target(self, holder: dict) -> int:
        # one exit node per unreachable region, created only when a jump
        # inside the region needs a target (keeps P exact)
        if holder["node"] is None:
            holder["node"] = self._new()
            self.dead_exits.append(holder["node"])
        return holder["node"]

    def _jump_exit(self) -> int:
        """Target for return/raise: innermost pending finally, else exit."""
        for kind, payload in reversed(self.ctx):
            if kind == "finally":
                return payload
            if kind == "dead":
                return self._dead_target(payload)
        return self.exit_node

    def _jump_loop(self, is_break: bool, node: int):
        for kind, payload in reversed(self.ctx):
            if kind == "finally":
                self._edge(node, payload)
                return
            if kind == "dead":
                self._edge(node, self._dead_target(payload))
                return
            if kind == "loop":
                if is_break:
                    payload["breaks"].append(node)
                else:
                    self._edge(node, payload["header"])
                return
        raise UnsupportedConstruct(
            "Break" if is_break else "Continue",
            "loop jump outside any loop",
        )

    # -- expression-decision expansion -----------------------------------

    def _prechain(self, value, frontier: list[int]) -> list[int]:
        """Chain a branch/merge pair for each decision in ``value``, an
        expression, a list of them or None."""
        decisions = 0
        for expr in value if type(value) is list else (value,):
            if expr is not None:
                decisions += _count_expr_decisions(expr, self.count_short_circuit)
        for _ in range(decisions):
            test = self._node(frontier)
            alt = self._node([test])
            frontier = [test, alt]
        return frontier

    # -- statement dispatch ----------------------------------------------

    def block(self, stmts: list[ast.stmt], frontier: list[int]) -> list[int]:
        for i, stmt in enumerate(stmts):
            if not frontier and i > 0:
                # unreachable remainder: self-contained component
                self.ctx.append(("dead", {"node": None}))
                try:
                    self.block(stmts[i:], [])
                finally:
                    self.ctx.pop()
                return []
            frontier = self.stmt(stmt, frontier)
        return frontier

    def stmt(self, stmt: ast.stmt, frontier: list[int]) -> list[int]:
        kind = type(stmt)
        if kind in TRY_NODES:  # except* clauses branch as except clauses do
            return self._try(stmt, frontier)
        if kind is ast.Match:
            return self._match(stmt, frontier)
        fields = EVALUATES.get(kind)
        if fields is None:
            raise UnsupportedConstruct(kind.__name__)
        for field, _ in fields:
            frontier = self._prechain(getattr(stmt, field), frontier)
        node = self._node(frontier)
        if kind is ast.Return or kind is ast.Raise:
            self._edge(node, self._jump_exit())
            return []
        if kind is ast.Break or kind is ast.Continue:
            self._jump_loop(kind is ast.Break, node)
            return []
        if kind is ast.If:
            out = self.block(stmt.body, [node])
            if stmt.orelse:
                return out + self.block(stmt.orelse, [node])
            return out + [node]
        if kind is ast.While or kind is ast.For or kind is ast.AsyncFor:
            return self._loop(stmt, node)
        if kind is ast.With or kind is ast.AsyncWith or kind is ast.ClassDef:
            return self.block(stmt.body, [node])
        # a def is a plain statement here: its body is a graph of its own
        return [node]

    def _loop(self, stmt, header: int) -> list[int]:
        loop: dict = {"header": header, "breaks": []}
        self.ctx.append(("loop", loop))
        try:
            body_out = self.block(stmt.body, [header])
        finally:
            self.ctx.pop()
        for node in body_out:
            self._edge(node, header)
        if stmt.orelse:
            out = self.block(stmt.orelse, [header])
        else:
            out = [header]
        return out + loop["breaks"]

    def _try(self, stmt, frontier: list[int]) -> list[int]:
        guard = self._node(frontier)
        gate = self._new() if stmt.finalbody else None
        if gate is not None:
            self.ctx.append(("finally", gate))
        try:
            out = self.block(stmt.body, [guard])
            if stmt.orelse:
                out = self.block(stmt.orelse, out)
            for handler in stmt.handlers:
                entry_frontier = self._prechain(handler.type, [guard])
                head = self._node(entry_frontier)
                out += self.block(handler.body, [head])
        finally:
            if gate is not None:
                self.ctx.pop()
        if gate is not None:
            for node in out:
                self._edge(node, gate)
            return self.block(stmt.finalbody, [gate])
        return out

    def _match(self, stmt: ast.Match, frontier: list[int]) -> list[int]:
        frontier = self._prechain(stmt.subject, frontier)
        subject = self._node(frontier)
        fall = [subject]
        out: list[int] = []
        caught_all = False
        for case in stmt.cases:
            arm_in = fall
            next_fall: list[int] = []
            if not _is_catchall(case):
                test = self._node(fall)
                arm_in = [test]
                next_fall = [test]
            if case.guard is not None:
                guard_frontier = self._prechain(case.guard, arm_in)
                guard = self._node(guard_frontier)
                arm_in = [guard]
                next_fall = next_fall + [guard] if next_fall else [guard]
            elif _is_catchall(case):
                caught_all = True
            out += self.block(case.body, arm_in)
            fall = next_fall
            if caught_all:
                break
        if not caught_all:
            out += fall
        return out


def build_cfg(fn: FunctionDef, count_short_circuit: bool = True) -> ControlFlowGraph:
    """Build the graph for one definition (or the toplevel script)."""
    builder = _Builder(count_short_circuit)
    out = builder.block(fn.body, [])
    for node in out:
        builder._edge(node, builder.exit_node)
    return ControlFlowGraph(
        nodes=list(range(builder.next_id)),
        edges=builder.edges,
        entry=1 if builder.next_id > 1 else builder.exit_node,
        exits=frozenset([builder.exit_node, *builder.dead_exits]),
    )
