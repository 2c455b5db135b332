"""Control-flow graph construction for one function body or script.

One node per statement plus a distinguished exit, then single-entry /
single-exit chains are compacted into basic blocks (compaction removes
equal numbers of nodes and edges, so E - N + 2P is invariant to it).
Edges follow syntax: both arms of a conditional, loop body and loop exit,
one handler-entry edge per except clause from the guarded region's entry,
back-edges, and early returns to the exit. Decisions that live inside
expressions (short-circuit operators, conditional expressions,
comprehension filters) are materialized as branch/merge node pairs so the
graph counts them.

Modeling notes, all chosen so the edge/node counts match the independent
decision-point count:
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
from .parsing import FunctionDef
from .profiles import PY3, SubjectProfile


@dataclass(eq=False)
class ControlFlowGraph:
    nodes: list[int]
    edges: list[tuple[int, int]]
    entry: int
    exits: frozenset[int]
    owner: FunctionDef
    labels: dict[int, str]

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def node_count(self) -> int:
        return len(self.nodes)


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


_SIMPLE_STMTS = (
    ast.Expr,
    ast.Assign,
    ast.AugAssign,
    ast.AnnAssign,
    ast.Delete,
    ast.Pass,
    ast.Import,
    ast.ImportFrom,
    ast.Global,
    ast.Nonlocal,
    ast.Assert,
)


def _is_catchall(case: ast.match_case) -> bool:
    p = case.pattern
    return isinstance(p, ast.MatchAs) and p.pattern is None


def _iter_expr_decisions(root: ast.expr, count_boolops: bool):
    """Yield one marker per expression-level decision, in source order."""
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.IfExp):
            yield "ifexp"
        elif isinstance(node, ast.BoolOp) and count_boolops:
            for _ in node.values[1:]:
                yield "boolop"
        elif isinstance(node, ast.comprehension):
            for _ in node.ifs:
                yield "comp-if"
        stack.extend(reversed([c for c in ast.iter_child_nodes(node)]))


class _Builder:
    def __init__(self, profile: SubjectProfile):
        self.profile = profile
        self.labels: dict[int, str] = {}
        self.edges: list[tuple[int, int]] = []
        self.edge_set: set[tuple[int, int]] = set()
        self.next_id = 0
        # innermost-first stack of ("loop", dict) / ("finally", node) /
        # ("dead", node) jump contexts
        self.ctx: list[tuple[str, object]] = []
        self.exit_node = self._new("exit")

    def _new(self, label: str) -> int:
        nid = self.next_id
        self.next_id += 1
        self.labels[nid] = label
        return nid

    def _edge(self, a: int, b: int):
        if (a, b) not in self.edge_set:
            self.edge_set.add((a, b))
            self.edges.append((a, b))

    def _node(self, label: str, frontier: list[int]) -> int:
        nid = self._new(label)
        for src in frontier:
            self._edge(src, nid)
        return nid

    # -- jump target resolution ------------------------------------------

    def _dead_target(self, holder: dict) -> int:
        # one exit node per unreachable region, created only when a jump
        # inside the region needs a target (keeps P exact)
        if holder["node"] is None:
            holder["node"] = self._new("dead-exit")
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

    def _prechain(self, exprs, frontier: list[int]) -> list[int]:
        for expr in exprs:
            if expr is None:
                continue
            for kind in _iter_expr_decisions(expr, self.profile.count_short_circuit):
                test = self._node(f"{kind}-test", frontier)
                alt = self._node(f"{kind}-arm", [test])
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
        if isinstance(stmt, _SIMPLE_STMTS):
            exprs = [v for v in ast.iter_child_nodes(stmt) if isinstance(v, ast.expr)]
            frontier = self._prechain(exprs, frontier)
            return [self._node(f"stmt@{stmt.lineno}", frontier)]
        if isinstance(stmt, ast.Return):
            frontier = self._prechain([stmt.value], frontier)
            node = self._node(f"return@{stmt.lineno}", frontier)
            self._edge(node, self._jump_exit())
            return []
        if isinstance(stmt, ast.Raise):
            frontier = self._prechain([stmt.exc, stmt.cause], frontier)
            node = self._node(f"raise@{stmt.lineno}", frontier)
            self._edge(node, self._jump_exit())
            return []
        if isinstance(stmt, ast.Break):
            node = self._node(f"break@{stmt.lineno}", frontier)
            self._jump_loop(True, node)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._node(f"continue@{stmt.lineno}", frontier)
            self._jump_loop(False, node)
            return []
        if isinstance(stmt, ast.If):
            frontier = self._prechain([stmt.test], frontier)
            test = self._node(f"if@{stmt.lineno}", frontier)
            out = self.block(stmt.body, [test])
            if stmt.orelse:
                out += self.block(stmt.orelse, [test])
            else:
                out.append(test)
            return out
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            return self._loop(stmt, frontier)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            items = []
            for item in stmt.items:
                items.append(item.context_expr)
                items.append(item.optional_vars)
            frontier = self._prechain(items, frontier)
            head = self._node(f"with@{stmt.lineno}", frontier)
            return self.block(stmt.body, [head])
        if isinstance(stmt, ast.Try):
            return self._try(stmt, frontier)
        if isinstance(stmt, ast.Match):
            return self._match(stmt, frontier)
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # separate graph; the definition is a plain statement here
            return [self._node(f"def {stmt.name}", frontier)]
        if isinstance(stmt, ast.ClassDef):
            exprs = list(stmt.bases) + [k.value for k in stmt.keywords]
            exprs += stmt.decorator_list
            frontier = self._prechain(exprs, frontier)
            head = self._node(f"class {stmt.name}", frontier)
            return self.block(stmt.body, [head])
        raise UnsupportedConstruct(type(stmt).__name__)

    def _loop(self, stmt, frontier: list[int]) -> list[int]:
        if isinstance(stmt, ast.While):
            frontier = self._prechain([stmt.test], frontier)
            header = self._node(f"while@{stmt.lineno}", frontier)
        else:
            frontier = self._prechain([stmt.target, stmt.iter], frontier)
            header = self._node(f"for@{stmt.lineno}", frontier)
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

    def _try(self, stmt: ast.Try, frontier: list[int]) -> list[int]:
        guard = self._node(f"try@{stmt.lineno}", frontier)
        gate = self._new("finally-gate") if stmt.finalbody else None
        if gate is not None:
            self.ctx.append(("finally", gate))
        try:
            out = self.block(stmt.body, [guard])
            if stmt.orelse:
                out = self.block(stmt.orelse, out)
            for handler in stmt.handlers:
                entry_frontier = self._prechain([handler.type], [guard])
                head = self._node(f"except@{handler.lineno}", entry_frontier)
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
        frontier = self._prechain([stmt.subject], frontier)
        subject = self._node(f"match@{stmt.lineno}", frontier)
        fall = [subject]
        out: list[int] = []
        caught_all = False
        for case in stmt.cases:
            arm_in = fall
            next_fall: list[int] = []
            if not _is_catchall(case):
                test = self._node(f"case@{case.pattern.lineno}", fall)
                arm_in = [test]
                next_fall = [test]
            if case.guard is not None:
                guard_frontier = self._prechain([case.guard], arm_in)
                guard = self._node("case-guard", guard_frontier)
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


def _compact(nodes, edges, entry, exits, labels):
    succ = {n: [] for n in nodes}
    pred = {n: [] for n in nodes}
    for a, b in edges:
        succ[a].append(b)
        pred[b].append(a)
    alive = dict.fromkeys(nodes, True)
    changed = True
    while changed:
        changed = False
        for a in list(nodes):
            if not alive[a] or len(succ[a]) != 1:
                continue
            b = succ[a][0]
            if b == a or b == entry or len(pred[b]) != 1 or a in succ[b]:
                continue
            # absorb b into a
            labels[a] = labels[a] + "+" + labels[b]
            succ[a] = list(succ[b])
            for c in succ[b]:
                pred[c] = [a if p == b else p for p in pred[c]]
            alive[b] = False
            succ[b] = []
            pred[b] = []
            if b in exits:
                exits.discard(b)
                exits.add(a)
            changed = True
    kept = [n for n in nodes if alive[n]]
    remap = {old: i for i, old in enumerate(sorted(kept))}
    new_edges = []
    for a in kept:
        for b in succ[a]:
            new_edges.append((remap[a], remap[b]))
    new_edges.sort()
    new_labels = {remap[n]: labels[n] for n in kept}
    return (
        sorted(remap.values()),
        new_edges,
        remap[entry],
        frozenset(remap[e] for e in exits),
        new_labels,
    )


def build_cfg(fn: FunctionDef, profile: SubjectProfile = PY3) -> ControlFlowGraph:
    """Build the graph for one definition (or the toplevel script)."""
    builder = _Builder(profile)
    out = builder.block(fn.body, [])
    for node in out:
        builder._edge(node, builder.exit_node)
    nodes = list(range(builder.next_id))
    entry = 1 if builder.next_id > 1 else builder.exit_node
    exits = {builder.exit_node}
    exits.update(
        n for n in nodes if builder.labels[n] == "dead-exit"
    )
    n_nodes, n_edges, n_entry, n_exits, n_labels = _compact(
        nodes, builder.edges, entry, set(exits), dict(builder.labels)
    )
    return ControlFlowGraph(
        nodes=n_nodes,
        edges=n_edges,
        entry=n_entry,
        exits=n_exits,
        owner=fn,
        labels=n_labels,
    )
