"""De-modularization: replace every call to a unit-defined function with
that function's body, then remove the definitions.

The transform is behavior-preserving or loudly rejected, never silently
wrong. Mechanics:

  - call sites are normalized first: a call buried in a larger expression
    is hoisted into a fresh temp assignment, in evaluation order, and only
    when everything evaluated before it is effect-free;
  - parameters become assignments of the argument expressions, one per
    written argument (so each argument is evaluated exactly once, in call
    order); unsupplied parameters read from hoisted default temps that
    were evaluated once at the definition site;
  - inlined locals are alpha-renamed with fresh ``__inl<N>`` suffixes;
  - a body whose single return is its last statement becomes an
    assignment to a fresh result variable; early returns set the result
    plus a fresh completion flag that guards the remainder of the body
    (inside loops the flag also breaks out).

Rejected outright: recursion, any non-call use of a function name,
rebinding or shadowing of one (by assignment, parameter, import, except
clause, class or match capture), decorated/generator/async definitions,
*args/**kwargs, ``nonlocal``, dotted imports without ``as`` in a helper,
units that read names dynamically anywhere (a call of the builtin
``eval``, ``exec``, ``globals`` or ``locals``, or of ``vars`` or ``dir``
without an argument), classes with methods (methods are modules but only
dynamically invocable), call sites in deferred or repeated positions
(lambda bodies, comprehensions, while-tests, short-circuit operands,
ternary arms), hoists that would run a call ahead of an effectful
expression, calls that run before their helper's ``def`` in the same
block, calls in an ``except`` clause's type (it runs only when an
exception propagates), annotations without a value (``x: T``) in a
function, and sources nested too deeply for the rewrite's recursion.
An annotated local ``x: T = v`` becomes ``x = v``: a function never
evaluates the annotation, and the spliced copy must not either.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .errors import (
    DynamicCallUnsupported,
    ExternalNameCollision,
    RecursionUnsupported,
    TransformUnsupported,
)
from .parsing import TRY_NODES, SourceUnit, parse, statement_blocks
from .sandbox import RunLimits, _in_zygotes, outputs_match, run_solution

HEADER_COMMENT = (
    "# de-modularized output: every helper was inlined at its call sites;"
    " fresh identifiers carry the __inl<N> suffix"
)

# builtins treated as effect-free when deciding whether a call can be
# hoisted past them; dropped from the set if the unit rebinds the name
PURE_BUILTINS = frozenset({
    "abs", "all", "any", "bool", "chr", "dict", "divmod", "enumerate",
    "filter", "float", "frozenset", "hash", "int", "isinstance",
    "issubclass", "len", "list", "map", "max", "min", "ord", "pow",
    "range", "repr", "reversed", "round", "set", "sorted", "str", "sum",
    "tuple", "type", "zip",
})

# builtins that look names up in the calling scope at run time: spliced
# into a caller, a helper's call would see the renamed copies of its
# locals and the caller's names, and a call anywhere else would see the
# inlined temps and miss the removed definitions; ``vars`` and ``dir`` do
# so only when called without an argument
_SCOPE_READERS = frozenset({"eval", "exec", "globals", "locals"})
_BARE_SCOPE_READERS = frozenset({"vars", "dir"})

_DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
_LOOPS = (ast.While, ast.For, ast.AsyncFor)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

# The field through which each node type binds a name. A Name binds when
# its context is not Load and reads the name otherwise; an alias without
# ``asname`` binds the first part of its dotted ``name``, and renaming it
# sets ``asname``.
_BINDS = {
    ast.Name: "id",
    ast.arg: "arg",
    ast.FunctionDef: "name",
    ast.AsyncFunctionDef: "name",
    ast.ClassDef: "name",
    ast.ExceptHandler: "name",
    ast.MatchAs: "name",
    ast.MatchStar: "name",
    ast.MatchMapping: "rest",
    ast.alias: "asname",
}


# ---------------------------------------------------------------------------
# scope helpers


def _name_of(node) -> str | None:
    """The name a node binds or reads through its ``_BINDS`` field."""
    field = _BINDS.get(type(node))
    if field is None:
        return None
    if field == "asname":
        return node.asname or node.name.split(".")[0]
    return getattr(node, field)


def _reads(node) -> bool:
    return type(node) is ast.Name and type(node.ctx) is ast.Load


def _scope_names(node) -> tuple[set[str], set[str]]:
    """(locals, free) of a def: the names bound in its own scope, and the
    names its body resolves outside that scope.

    A nested def or class binds its name here and runs its body in a
    scope of its own; a nested def's or a lambda's defaults are read here.
    A lambda's parameters and walrus targets, and a comprehension's
    targets, bind in scopes of their own: they are neither locals nor free
    where those scopes read them. A walrus target in a comprehension binds
    here.
    """
    args = node.args
    bound = {p.arg for p in args.posonlyargs + args.args + args.kwonlyargs}
    used: set[str] = set()
    declared: set[str] = set()
    stack = [(n, frozenset()) for n in node.body]
    while stack:
        n, inner = stack.pop()
        name = _name_of(n)
        if name is not None and name not in inner:
            if type(n) is ast.Name:
                used.add(name)
            if not _reads(n):
                bound.add(name)
        if isinstance(n, (ast.Global, ast.Nonlocal)):
            declared.update(n.names)
            used.update(n.names)
        elif isinstance(n, (*_DEF_NODES, ast.Lambda)):
            a = n.args
            stack += [(d, inner) for d in a.defaults + a.kw_defaults if d]
            if isinstance(n, ast.Lambda):
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                own = {p.arg for p in params if p}
                own |= {w.target.id for w in ast.walk(n.body) if type(w) is ast.NamedExpr}
                stack.append((n.body, inner | own))
        elif isinstance(n, _COMPREHENSIONS):
            first = n.generators[0]
            own = {x.id for g in n.generators for x in ast.walk(g.target)
                   if type(x) is ast.Name and not _reads(x)}
            stack.append((first.iter, inner))
            stack += [(c, inner | own) for c in ast.iter_child_nodes(n) if c is not first]
            stack += [(c, inner | own) for c in ast.iter_child_nodes(first) if c is not first.iter]
        elif not isinstance(n, ast.ClassDef):
            stack += [(c, inner) for c in ast.iter_child_nodes(n)]
    local_names = bound - declared
    return local_names, used - local_names


def _identifiers(tree) -> tuple[set[str], set[str]]:
    """Every identifier in the tree, and those it binds."""
    loaded: set[str] = set()
    stored: set[str] = set()
    for n in ast.walk(tree):
        name = _name_of(n)
        if name is not None:
            (loaded if _reads(n) else stored).add(name)
    return loaded | stored, stored


class _FreshNames:
    def __init__(self, taken: set[str]):
        self.taken = set(taken)
        self.counter = 0

    def make(self, base: str) -> str:
        while True:
            name = f"{base}__inl{self.counter}"
            self.counter += 1
            if name not in self.taken:
                self.taken.add(name)
                return name


# ---------------------------------------------------------------------------
# call-graph analysis


def _analyze(tree: ast.Module) -> dict[str, ast.AST]:
    """Every definition by name, once the call graph is known to be inlinable.

    Raises RecursionUnsupported, DynamicCallUnsupported,
    ExternalNameCollision, or TransformUnsupported (a call that runs before
    its helper is defined) when the unit cannot be inlined soundly.
    """
    defs: dict[str, ast.AST] = {}
    for node in ast.walk(tree):
        if isinstance(node, _DEF_NODES):
            if node.name in defs:
                raise DynamicCallUnsupported(
                    f"function name {node.name!r} is defined more than once"
                )
            defs[node.name] = node
    planned = set(defs)

    sites: dict[str, list[ast.Call]] = {name: [] for name in planned}
    site_owners: dict[int, list[str]] = {}
    parent_def: dict[str, str | None] = {}

    def scan(node, stack: list[str], call_func_of: ast.Call | None):
        if isinstance(node, _DEF_NODES):
            parent_def[node.name] = stack[-1] if stack else None
            stack = stack + [node.name]
            for child in ast.iter_child_nodes(node):
                scan(child, stack, None)
            return
        name = _name_of(node)
        if name in planned:
            if not _reads(node):
                raise DynamicCallUnsupported(
                    f"function name {name!r} is rebound by {type(node).__name__} "
                    f"(line {node.lineno})"
                )
            if call_func_of is None:
                raise DynamicCallUnsupported(
                    f"function {name!r} is used as a value, not called"
                )
            sites[name].append(call_func_of)
            site_owners[id(call_func_of)] = list(stack)
            return
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            hit = planned.intersection(node.names)
            if hit:
                raise DynamicCallUnsupported(
                    f"global/nonlocal declaration of function name {sorted(hit)[0]!r}"
                )
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            scan(node.func, stack, node)
            for child in ast.iter_child_nodes(node):
                if child is not node.func:
                    scan(child, stack, None)
            return
        for child in ast.iter_child_nodes(node):
            scan(child, stack, None)

    for stmt in tree.body:
        scan(stmt, [], None)

    # visibility: a nested definition may only be called from inside the
    # function that defines it
    for name in planned:
        parent = parent_def.get(name)
        if parent is None:
            continue
        for call in sites[name]:
            if parent not in site_owners[id(call)]:
                raise DynamicCallUnsupported(
                    f"{name!r} is called outside the scope that defines it"
                )

    # call graph: owner -> callee, cycle check, callee-first order
    calls_of: dict[str, set[str]] = {name: set() for name in planned}
    for name in planned:
        for call in sites[name]:
            owners = site_owners[id(call)]
            if owners:
                calls_of[owners[-1]].add(name)

    # cycle check and callee-first topological order in one DFS
    state: dict[str, int] = {}
    trail: list[str] = []
    order: list[str] = []

    def dfs(name: str):
        state[name] = 1
        trail.append(name)
        for callee in sorted(calls_of[name]):
            if state.get(callee) == 1:
                cycle = trail[trail.index(callee):] + [callee]
                raise RecursionUnsupported(cycle)
            if state.get(callee, 0) == 0:
                dfs(callee)
        trail.pop()
        state[name] = 2
        order.append(name)

    for name in sorted(planned):
        if state.get(name, 0) == 0:
            dfs(name)

    locals_of: dict[str, set[str]] = {}
    free_of: dict[str, set[str]] = {}
    for name in planned:
        locals_of[name], free_of[name] = _scope_names(defs[name])
    effective_free: dict[str, set[str]] = {}
    for name in order:
        free = free_of[name] - planned
        for callee in calls_of[name]:
            free |= effective_free[callee]
        effective_free[name] = free

    for name in planned:
        for call in sites[name]:
            enclosing = site_owners[id(call)]
            caller_locals: set[str] = set()
            for owner in enclosing:
                caller_locals |= locals_of[owner]
            captured = effective_free[name] & caller_locals
            if captured:
                raise ExternalNameCollision(
                    f"inlining {name!r} would capture {sorted(captured)[0]!r} "
                    f"bound in {enclosing[-1]!r}"
                )

    _check_definition_order(tree, calls_of)
    return defs


def _helpers_run_by(stmt, calls_of: dict[str, set[str]]) -> set[str]:
    """Helpers a statement calls when it executes, directly or through the
    helpers it calls. A definition runs only its defaults and decorators."""
    pending: set[str] = set()
    stack = [stmt]
    while stack:
        n = stack.pop()
        if isinstance(n, _DEF_NODES):
            args = n.args
            stack.extend(args.defaults + [d for d in args.kw_defaults if d])
            stack.extend(n.decorator_list)
            continue
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id in calls_of:
            pending.add(n.func.id)
        stack.extend(ast.iter_child_nodes(n))
    reached: set[str] = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending |= calls_of[name]
    return reached


def _check_definition_order(tree: ast.Module, calls_of: dict[str, set[str]]):
    """Reject a call that runs before the ``def`` of its helper: as written
    it raises NameError, inlined it would not."""
    pending = [tree]
    while pending:
        for holder, field in statement_blocks(pending.pop()):
            stmts = getattr(holder, field)
            pending.extend(stmts)
            later = {s.name for s in stmts if isinstance(s, _DEF_NODES)}
            for stmt in stmts:
                if not later:
                    break
                early = later & _helpers_run_by(stmt, calls_of)
                if early:
                    raise TransformUnsupported(
                        f"{sorted(early)[0]!r} is called before its definition runs"
                    )
                if isinstance(stmt, _DEF_NODES):
                    later.discard(stmt.name)


# ---------------------------------------------------------------------------
# transformability checks


def _walk_own(body):
    """Walk a statement list without entering nested definitions."""
    stack = list(body)
    while stack:
        n = stack.pop()
        if isinstance(n, _DEF_NODES):
            continue
        yield n
        stack.extend(ast.iter_child_nodes(n))


def _check_transformable(tree: ast.Module, planned: dict[str, ast.AST]):
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and type(node.func) is ast.Name
            and node.func.id not in planned
            and (node.func.id in _SCOPE_READERS
                 or node.func.id in _BARE_SCOPE_READERS and not (node.args or node.keywords))
        ):
            raise TransformUnsupported(
                f"the unit reads names dynamically through {node.func.id}() "
                f"(line {node.lineno})"
            )
        if isinstance(node, ast.ClassDef):
            for n in ast.walk(node):
                if isinstance(n, _DEF_NODES):
                    raise TransformUnsupported(
                        f"class {node.name!r} defines method {n.name!r}; methods "
                        "are only dynamically invocable"
                    )
    for name, node in planned.items():
        if isinstance(node, ast.AsyncFunctionDef):
            raise TransformUnsupported(f"{name!r} is an async function")
        if node.decorator_list:
            raise TransformUnsupported(f"{name!r} is decorated")
        args = node.args
        if args.vararg or args.kwarg:
            raise TransformUnsupported(f"{name!r} takes *args/**kwargs")
        annotations = [a.annotation for a in args.posonlyargs + args.args + args.kwonlyargs]
        annotations.append(node.returns)
        for annotation in annotations:
            if annotation is not None and not isinstance(annotation, (ast.Name, ast.Constant)):
                raise TransformUnsupported(
                    f"{name!r} has a non-trivial annotation"
                )
        for n in _walk_own(node.body):
            if isinstance(n, (ast.Yield, ast.YieldFrom)):
                raise TransformUnsupported(f"{name!r} is a generator function")
            if isinstance(n, ast.Await):
                raise TransformUnsupported(f"{name!r} awaits")
            if isinstance(n, ast.Nonlocal):
                raise TransformUnsupported(f"{name!r} declares nonlocal")
            if isinstance(n, ast.alias) and n.asname is None and "." in n.name:
                # the renamed copy would read `import a.b as a__inl0`,
                # which binds the submodule, not the package
                raise TransformUnsupported(f"{name!r} imports {n.name!r} without 'as'")
            if isinstance(n, ast.ClassDef):
                raise TransformUnsupported(
                    f"{name!r} defines class {n.name!r} in its body"
                )


# ---------------------------------------------------------------------------
# phase 1: call-site normalization (hoisting)


class _EvalEvent:
    __slots__ = ("kind", "node", "ctx", "owners")

    def __init__(self, kind, node, ctx, owners):
        self.kind = kind  # "impure" | "call"
        self.node = node
        self.ctx = ctx  # "plain" | "conditional" | "deferred" | "repeated"
        self.owners = owners  # enclosing planned-call nodes, outermost first


def _linearize(expr, ctx, owners, planned, pure_names, events):
    """Append evaluation-order events for one expression."""
    if expr is None:
        return
    if isinstance(expr, ast.BoolOp):
        _linearize(expr.values[0], ctx, owners, planned, pure_names, events)
        for v in expr.values[1:]:
            _linearize(v, _worse(ctx, "conditional"), owners, planned, pure_names, events)
        return
    if isinstance(expr, ast.IfExp):
        _linearize(expr.test, ctx, owners, planned, pure_names, events)
        _linearize(expr.body, _worse(ctx, "conditional"), owners, planned, pure_names, events)
        _linearize(expr.orelse, _worse(ctx, "conditional"), owners, planned, pure_names, events)
        return
    if isinstance(expr, ast.Compare):
        _linearize(expr.left, ctx, owners, planned, pure_names, events)
        for i, comp in enumerate(expr.comparators):
            sub_ctx = ctx if i == 0 else _worse(ctx, "conditional")
            _linearize(comp, sub_ctx, owners, planned, pure_names, events)
        return
    if isinstance(expr, ast.Lambda):
        for d in expr.args.defaults + [d for d in expr.args.kw_defaults if d]:
            _linearize(d, ctx, owners, planned, pure_names, events)
        _linearize(expr.body, _worse(ctx, "deferred"), owners, planned, pure_names, events)
        return
    if isinstance(expr, _COMPREHENSIONS):
        lazy = isinstance(expr, ast.GeneratorExp)
        inner = _worse(ctx, "deferred" if lazy else "repeated")
        for i, gen in enumerate(expr.generators):
            _linearize(gen.iter, ctx if i == 0 else inner, owners, planned, pure_names, events)
            for cond in gen.ifs:
                _linearize(cond, inner, owners, planned, pure_names, events)
        if isinstance(expr, ast.DictComp):
            _linearize(expr.key, inner, owners, planned, pure_names, events)
            _linearize(expr.value, inner, owners, planned, pure_names, events)
        else:
            _linearize(expr.elt, inner, owners, planned, pure_names, events)
        return
    if isinstance(expr, ast.Call):
        is_planned = isinstance(expr.func, ast.Name) and expr.func.id in planned
        inner_owners = owners + [expr] if is_planned else owners
        _linearize(expr.func, ctx, inner_owners, planned, pure_names, events)
        for a in expr.args:
            _linearize(a, ctx, inner_owners, planned, pure_names, events)
        for kw in expr.keywords:
            _linearize(kw.value, ctx, inner_owners, planned, pure_names, events)
        if is_planned:
            events.append(_EvalEvent("call", expr, ctx, owners))
        elif not (isinstance(expr.func, ast.Name) and expr.func.id in pure_names):
            events.append(_EvalEvent("impure", expr, ctx, owners))
        return
    if isinstance(expr, ast.NamedExpr):
        _linearize(expr.value, ctx, owners, planned, pure_names, events)
        events.append(_EvalEvent("impure", expr, ctx, owners))
        return
    if isinstance(expr, (ast.Yield, ast.YieldFrom, ast.Await)):
        for child in ast.iter_child_nodes(expr):
            if isinstance(child, ast.expr):
                _linearize(child, ctx, owners, planned, pure_names, events)
        events.append(_EvalEvent("impure", expr, ctx, owners))
        return
    for child in ast.iter_child_nodes(expr):
        if isinstance(child, ast.expr):
            _linearize(child, ctx, owners, planned, pure_names, events)


_CTX_RANK = {"plain": 0, "conditional": 1, "repeated": 2, "deferred": 3}


def _worse(a: str, b: str) -> str:
    return a if _CTX_RANK[a] >= _CTX_RANK[b] else b


def _stmt_eval_parts(stmt) -> list[tuple[ast.expr, str]]:
    """(expression, context) pairs in evaluation order for one statement."""
    if isinstance(stmt, ast.Expr):
        return [(stmt.value, "plain")]
    if isinstance(stmt, ast.Assign):
        return [(stmt.value, "plain")] + [(t, "plain") for t in stmt.targets]
    if isinstance(stmt, ast.AugAssign):
        return [(stmt.target, "plain"), (stmt.value, "plain")]
    if isinstance(stmt, ast.AnnAssign):
        parts = []
        if stmt.value is not None:
            parts.append((stmt.value, "plain"))
        parts.append((stmt.annotation, "plain"))
        return parts
    if isinstance(stmt, ast.Return):
        return [(stmt.value, "plain")] if stmt.value is not None else []
    if isinstance(stmt, ast.Delete):
        return [(t, "plain") for t in stmt.targets]
    if isinstance(stmt, ast.If):
        return [(stmt.test, "plain")]
    if isinstance(stmt, ast.While):
        return [(stmt.test, "repeated")]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [(stmt.iter, "plain"), (stmt.target, "repeated")]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        parts = []
        for item in stmt.items:
            parts.append((item.context_expr, "plain"))
            if item.optional_vars is not None:
                parts.append((item.optional_vars, "plain"))
        return parts
    if isinstance(stmt, ast.Raise):
        parts = []
        if stmt.exc is not None:
            parts.append((stmt.exc, "plain"))
        if stmt.cause is not None:
            parts.append((stmt.cause, "plain"))
        return parts
    if isinstance(stmt, ast.Assert):
        parts = [(stmt.test, "plain")]
        if stmt.msg is not None:
            parts.append((stmt.msg, "conditional"))
        return parts
    if isinstance(stmt, TRY_NODES):
        # a handler's type is evaluated only when an exception propagates
        return [(h.type, "conditional") for h in stmt.handlers if h.type is not None]
    if isinstance(stmt, ast.Match):
        parts = [(stmt.subject, "plain")]
        for case in stmt.cases:
            for n in ast.walk(case.pattern):
                if isinstance(n, ast.expr):
                    parts.append((n, "repeated"))
            if case.guard is not None:
                parts.append((case.guard, "conditional"))
        return parts
    if isinstance(stmt, ast.ClassDef):
        parts = [(b, "plain") for b in stmt.bases]
        parts += [(k.value, "plain") for k in stmt.keywords]
        parts += [(d, "plain") for d in stmt.decorator_list]
        return parts
    return []


def _canonical_root_call(stmt, planned) -> ast.Call | None:
    """The statement's own call when it is already in splice position."""
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        value = stmt.value
    if (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id in planned
    ):
        return value
    return None


class _CallSwap(ast.NodeTransformer):
    def __init__(self, mapping: dict[int, str]):
        self.mapping = mapping

    def visit_Call(self, node):
        self.generic_visit(node)
        name = self.mapping.get(id(node))
        if name is not None:
            return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)
        return node


def _normalize_stmt(stmt, planned, pure_names, fresh, in_class_body):
    """Hoist unit calls out of compound positions; None means keep as is."""
    events: list[_EvalEvent] = []
    for expr, ctx in _stmt_eval_parts(stmt):
        _linearize(expr, ctx, [], planned, pure_names, events)
    calls = [e for e in events if e.kind == "call"]
    if not calls:
        return None
    if in_class_body:
        raise TransformUnsupported(
            "call to a unit function inside a class body"
        )
    root = _canonical_root_call(stmt, planned)
    hoisted = [e for e in calls if e.node is not root]
    for event in calls:
        if event.ctx != "plain":
            raise TransformUnsupported(
                f"call to {event.node.func.id!r} in a {event.ctx} position "
                f"(line {event.node.lineno})"
            )
    if not hoisted:
        return None

    # a hoisted call's final position is its event rank; an expression
    # that stays put runs after every hoist, and one that moves inside an
    # enclosing hoisted call runs at that call's rank -- reject whenever a
    # hoist would jump ahead of an effect it originally followed
    hoisted_ids = {id(e.node) for e in hoisted}
    rank = {id(e.node): i for i, e in enumerate(hoisted)}
    positions: dict[int, int] = {}
    for pos, event in enumerate(events):
        if event.kind == "call" and id(event.node) in hoisted_ids:
            positions[id(event.node)] = pos
    for pos, event in enumerate(events):
        if event.kind != "impure":
            continue
        owner = next(
            (o for o in reversed(event.owners) if id(o) in hoisted_ids), None
        )
        for call_event in hoisted:
            call_pos = positions[id(call_event.node)]
            if call_pos <= pos:
                continue  # call precedes the effect: order preserved
            if owner is call_event.node:
                continue  # effect travels with this call
            if owner is not None and rank[id(owner)] < rank[id(call_event.node)]:
                continue  # effect's carrier hoists first
            raise TransformUnsupported(
                f"cannot hoist call to {call_event.node.func.id!r} past an "
                f"effectful expression (line {stmt.lineno})"
            )

    swap: dict[int, str] = {}
    prelude: list[ast.stmt] = []
    for event in hoisted:
        call_node = event.node
        # inner hoisted calls were already swapped to temp names in place
        pulled = _CallSwap(swap).visit(call_node)
        temp = fresh.make("tmp")
        assign = ast.Assign(
            targets=[ast.Name(id=temp, ctx=ast.Store())], value=pulled
        )
        prelude.append(ast.copy_location(assign, stmt))
        swap[id(call_node)] = temp
    new_stmt = _CallSwap(swap).visit(stmt)
    return prelude + [new_stmt]


# ---------------------------------------------------------------------------
# block rewriting framework


@dataclass(frozen=True)
class _BlockCtx:
    in_class: bool = False
    in_function: bool = False


def _rewrite_blocks(node, fn, ctx: _BlockCtx = _BlockCtx()):
    """Apply fn(stmt, ctx) -> list | None over every statement list."""
    for holder, field in statement_blocks(node):
        new_list: list[ast.stmt] = []
        for stmt in getattr(holder, field):
            replacement = fn(stmt, ctx)
            if replacement is None:
                new_list.append(stmt)
            else:
                new_list.extend(replacement)
        if not new_list:
            new_list.append(ast.copy_location(ast.Pass(), holder))
        setattr(holder, field, new_list)
        for stmt in new_list:
            if isinstance(stmt, _DEF_NODES):
                child_ctx = _BlockCtx(in_class=False, in_function=True)
            elif isinstance(stmt, ast.ClassDef):
                child_ctx = _BlockCtx(in_class=True, in_function=ctx.in_function)
            else:
                child_ctx = ctx
            _rewrite_blocks(stmt, fn, child_ctx)


def _strip_local_annotations(stmt, ctx: _BlockCtx):
    """``x: T = v`` in a def's own scope becomes ``x = v``.

    Python never evaluates an annotation in a function scope; spliced into
    its caller, it would run. A bare ``x: T`` is refused: it makes ``x``
    local, and dropping it would turn the def's reads of ``x`` into global
    reads.
    """
    if type(stmt) is not ast.AnnAssign or not ctx.in_function or ctx.in_class:
        return None
    if stmt.value is None:
        raise TransformUnsupported(
            f"annotation without a value in a function (line {stmt.lineno})"
        )
    return [ast.copy_location(ast.Assign(targets=[stmt.target], value=stmt.value), stmt)]


# ---------------------------------------------------------------------------
# default-value hoisting


def _hoist_defaults(tree, planned_names, fresh) -> dict[tuple[str, str], str]:
    """Evaluate defaults once, at the definition site, into fresh temps."""
    temp_of: dict[tuple[str, str], str] = {}

    def visit(stmt, _ctx):
        if not isinstance(stmt, _DEF_NODES) or stmt.name not in planned_names:
            return None
        args = stmt.args
        prelude: list[ast.stmt] = []
        positional = args.posonlyargs + args.args
        for param, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
            temp = fresh.make(f"{stmt.name}_{param.arg}_default")
            temp_of[(stmt.name, param.arg)] = temp
            assign = ast.Assign(
                targets=[ast.Name(id=temp, ctx=ast.Store())], value=default
            )
            prelude.append(ast.copy_location(assign, stmt))
        for param, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is None:
                continue
            temp = fresh.make(f"{stmt.name}_{param.arg}_default")
            temp_of[(stmt.name, param.arg)] = temp
            assign = ast.Assign(
                targets=[ast.Name(id=temp, ctx=ast.Store())], value=default
            )
            prelude.append(ast.copy_location(assign, stmt))
        if not prelude:
            return None
        args.defaults = [
            ast.Name(id=temp_of[(stmt.name, p.arg)], ctx=ast.Load())
            for p in positional[len(positional) - len(args.defaults):]
        ]
        args.kw_defaults = [
            None if d is None else ast.Name(id=temp_of[(stmt.name, p.arg)], ctx=ast.Load())
            for p, d in zip(args.kwonlyargs, args.kw_defaults)
        ]
        return prelude + [stmt]

    _rewrite_blocks(tree, visit)
    return temp_of


# ---------------------------------------------------------------------------
# return rewriting


def _count_returns(body) -> int:
    return sum(isinstance(n, ast.Return) for n in _walk_own(body))


def _none() -> ast.expr:
    return ast.Constant(value=None)


def _assign(name: str, value: ast.expr, like) -> ast.stmt:
    node = ast.Assign(targets=[ast.Name(id=name, ctx=ast.Store())], value=value)
    return ast.copy_location(node, like)


def _rewrite_returns(body, ret_name: str, done_name: str):
    """(new_body, whether the body returns anywhere)."""
    total = _count_returns(body)
    if total == 0:
        return list(body), False
    if total == 1 and isinstance(body[-1], ast.Return):
        tail = body[-1]
        value = tail.value if tail.value is not None else _none()
        return list(body[:-1]) + [_assign(ret_name, value, tail)], True

    def rw_block(stmts, in_loop):
        out: list[ast.stmt] = []
        for idx, s in enumerate(stmts):
            if isinstance(s, ast.Return):
                value = s.value if s.value is not None else _none()
                out.append(_assign(ret_name, value, s))
                out.append(_assign(done_name, ast.Constant(value=True), s))
                if in_loop:
                    out.append(ast.copy_location(ast.Break(), s))
                return out, True
            out.append(s)
            if rw_stmt(s, in_loop):
                rest = stmts[idx + 1:]
                if in_loop:
                    guard = ast.If(
                        test=ast.Name(id=done_name, ctx=ast.Load()),
                        body=[ast.Break()],
                        orelse=[],
                    )
                    out.append(ast.copy_location(guard, s))
                    if rest:
                        rest_out, _ = rw_block(rest, in_loop)
                        out.extend(rest_out)
                else:
                    if rest:
                        rest_out, _ = rw_block(rest, in_loop)
                        guard = ast.If(
                            test=ast.UnaryOp(
                                op=ast.Not(),
                                operand=ast.Name(id=done_name, ctx=ast.Load()),
                            ),
                            body=rest_out,
                            orelse=[],
                        )
                        out.append(ast.copy_location(guard, s))
                return out, True
        return out, False

    def rw_stmt(s, in_loop) -> bool:
        """Rewrite the blocks of ``s`` in place; True if any returned."""
        if isinstance(s, (*_DEF_NODES, ast.ClassDef)):
            return False
        early = False
        for holder, field in statement_blocks(s):
            loop_body = field == "body" and isinstance(holder, _LOOPS)
            new, returned = rw_block(getattr(holder, field), in_loop or loop_body)
            setattr(holder, field, new)
            early |= returned
        return early

    new_body, _ = rw_block(list(body), False)
    init = [
        _assign(ret_name, _none(), body[0]),
        _assign(done_name, ast.Constant(value=False), body[0]),
    ]
    return init + new_body, True


# ---------------------------------------------------------------------------
# phase 2: splicing


def _bind_arguments(call: ast.Call, def_node, rename, default_temps, fname):
    """Assignments binding renamed params, one per written argument."""
    args = def_node.args
    positional = args.posonlyargs + args.args
    by_name = {a.arg: a for a in positional + args.kwonlyargs}
    assigns: list[ast.stmt] = []
    bound: set[str] = set()
    for i, value in enumerate(call.args):
        if isinstance(value, ast.Starred):
            raise TransformUnsupported(
                f"call to {fname!r} uses *unpacking (line {call.lineno})"
            )
        if i >= len(positional):
            raise TransformUnsupported(
                f"call to {fname!r} passes too many positional arguments"
            )
        param = positional[i].arg
        assigns.append(_assign(rename[param], value, call))
        bound.add(param)
    for kw in call.keywords:
        if kw.arg is None:
            raise TransformUnsupported(
                f"call to {fname!r} uses **unpacking (line {call.lineno})"
            )
        if kw.arg not in by_name or kw.arg in bound:
            raise TransformUnsupported(
                f"call to {fname!r}: bad keyword argument {kw.arg!r}"
            )
        assigns.append(_assign(rename[kw.arg], kw.value, call))
        bound.add(kw.arg)
    for param in positional + args.kwonlyargs:
        if param.arg in bound:
            continue
        temp = default_temps.get((fname, param.arg))
        if temp is None:
            raise TransformUnsupported(
                f"call to {fname!r}: missing argument {param.arg!r}"
            )
        assigns.append(
            _assign(rename[param.arg], ast.Name(id=temp, ctx=ast.Load()), call)
        )
    return assigns


class _GlobalStripper(ast.NodeTransformer):
    # module scope is the global scope: the declaration is a no-op there,
    # and compile() rejects it after an earlier toplevel assignment
    def visit_Global(self, node):
        return ast.copy_location(ast.Pass(), node)


def _copy_tree(node, rename: dict[str, str]):
    """Copy a statement list or subtree field by field, renaming each name
    in ``rename`` wherever a node binds or reads it. Nodes without fields
    (contexts and operators) are shared, as ``ast.parse`` shares them;
    other leaf values (names, constants) are immutable."""
    if type(node) is list:
        return [_copy_tree(item, rename) for item in node]
    if not isinstance(node, ast.AST) or not node._fields:
        return node
    new = ast.AST.__new__(type(node))
    for key, value in node.__dict__.items():
        setattr(new, key, _copy_tree(value, rename))
    name = _name_of(node)
    if name in rename:
        setattr(new, _BINDS[type(node)], rename[name])
    return new


def _splice_one(stmt, call, def_node, fresh, default_temps, into_function):
    """Expand one canonical call site into a statement list."""
    fname = def_node.name
    local_names, _ = _scope_names(def_node)
    rename = {name: fresh.make(name) for name in sorted(local_names)}
    parts = _bind_arguments(call, def_node, rename, default_temps, fname)

    body = _copy_tree(def_node.body, rename)
    if not into_function:
        body = [_GlobalStripper().visit(s) for s in body]

    ret_name = fresh.make(f"{fname}_ret")
    done_name = fresh.make(f"{fname}_done")
    new_body, had_return = _rewrite_returns(body, ret_name, done_name)
    parts.extend(new_body)

    if isinstance(stmt, ast.Assign):
        value = (
            ast.Name(id=ret_name, ctx=ast.Load()) if had_return else _none()
        )
        result = ast.Assign(targets=stmt.targets, value=value)
        parts.append(ast.copy_location(result, stmt))
    return parts


def _splice_all(tree, planned, fresh, default_temps):
    """Splice every call site and drop every definition in one walk.

    The first time a call site of a helper is reached, the helper's own
    body gets its callees spliced, so every copy of it is already flat;
    ``_analyze`` has rejected cycles, so this recursion ends. A helper
    that is never called is dropped unspliced.
    """
    flat: set[str] = set()

    def visit(stmt, ctx):
        if isinstance(stmt, _DEF_NODES):
            return []  # definition removed; hoisted defaults already placed
        call = _canonical_root_call(stmt, planned)
        if call is None:
            return None
        def_node = planned[call.func.id]
        if def_node.name not in flat:
            flat.add(def_node.name)
            _rewrite_blocks(def_node, visit, _BlockCtx(in_function=True))
        return _splice_one(stmt, call, def_node, fresh, default_temps, ctx.in_function)

    _rewrite_blocks(tree, visit)


# ---------------------------------------------------------------------------
# public operations


def singularize(unit: SourceUnit) -> SourceUnit:
    """Produce the de-modularized unit; identity when it defines no function.

    The working tree is a fresh parse of ``unit.text`` (every SourceUnit
    comes from ``parse``), so ``unit`` itself is left untouched.

    Raises RecursionUnsupported, DynamicCallUnsupported,
    ExternalNameCollision, or TransformUnsupported when the unit cannot be
    inlined soundly or is nested too deeply to rewrite.
    """
    if unit.function_count == 0:
        return unit
    try:
        return _singularize(unit)
    except RecursionError:
        raise TransformUnsupported("source is nested too deeply to transform") from None


def _singularize(unit: SourceUnit) -> SourceUnit:
    tree = ast.parse(unit.text)
    _rewrite_blocks(tree, _strip_local_annotations)
    planned = _analyze(tree)
    _check_transformable(tree, planned)

    names, stored = _identifiers(tree)
    fresh = _FreshNames(names)
    pure_names = PURE_BUILTINS - stored
    default_temps = _hoist_defaults(tree, planned, fresh)

    def normalize(stmt, ctx):
        return _normalize_stmt(stmt, planned, pure_names, fresh, ctx.in_class)

    _rewrite_blocks(tree, normalize)
    _splice_all(tree, planned, fresh, default_temps)

    text = HEADER_COMMENT + "\n" + ast.unparse(tree) + "\n"
    result = parse(text, unit.profile, unit_id=f"{unit.id}:singular")
    if result.function_count != 0:
        raise TransformUnsupported("internal: output still defines functions")
    return result


def verify_equivalence(
    original: SourceUnit,
    transformed: SourceUnit,
    tests,
    limits: RunLimits,
    exact: bool = False,
) -> bool:
    """True iff both units produce the same verdict and output on every test.

    Outputs are compared as the judge compares them: normalized, or
    byte-exact when ``exact``. Every run forks from one zygote. Sandbox
    failures propagate as SandboxUnavailable, never as a verdict.
    """
    runs = [(code, test) for test in tests for code in (original.text, transformed.text)]
    results = _in_zygotes(
        lambda run: run_solution(run[0], run[1], limits, exact=exact), runs, jobs=1
    )
    return all(
        before.verdict == after.verdict
        and outputs_match(before.stdout, after.stdout, exact=exact)
        for before, after in zip(results[::2], results[1::2])
    )
