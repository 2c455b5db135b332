"""De-modularization: replace every call to a unit-defined function with
that function's body, then remove the definitions.

The transform is behavior-preserving or loudly rejected, never silently
wrong. Mechanics:

  - call sites are normalized first: a call buried in a larger expression
    is hoisted into a fresh temp assignment, and it may move ahead only of
    constants and of names that no ``global`` statement in the unit
    declares (what an attribute, subscript or operator reads is not
    checked against what the helper changes); hoisted calls keep Python's
    evaluation order, which ``_EVALUATES`` lists per statement type (a
    class's decorators before its bases, an assignment's value before its
    targets, an annotated target before its annotation);
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
ternary arms), hoists that would run a call ahead of anything else (any
other call, a name some ``global`` statement declares, a walrus, a
``yield`` or ``await``, or a with-item's ``__enter__``), calls that run
before their helper's ``def`` in the same block, calls in an ``except``
clause's type (it runs only when an exception propagates) or in a
module-level annotation, annotations without a value (``x: T``) in a
function, and sources nested too deeply for the rewrite's recursion. An annotated local ``x: T = v`` becomes
``x = v``: a function never evaluates the annotation, and the spliced
copy must not either. A helper's parameter and return annotations run
when its ``def`` does, unless annotations are deferred (Python 3.14,
``from __future__ import annotations``), so neither hoisting nor dropping
them is sound: a helper keeps only constants and builtin names the unit
never binds there, and any other annotation is refused. An output that
still names a helper is refused as an internal error.

The checks read the unit through one walk over the whole tree
(``_gather``), which collects its definitions, the names it binds and
reads, the names its ``global`` statements declare, and its scope-reading
calls and classes, each in ``ast.walk`` order, so the first reason to
refuse is still the first one raised. The helper call graph is walked
once, depth first (``_analyze``): the walk meets the first cycle and gives
each helper the free names it reads through its callees, for the capture
check, and the helpers it runs, for the definition-order check. What the
call sites of a helper read of it (its locals, its returns, whether it
declares ``global``) is taken once, when its body has been flattened
(``_helper_facts``).
"""

from __future__ import annotations

import ast
import builtins
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


@dataclass(frozen=True)
class _UnitFacts:
    defs: dict[str, ast.AST]  # every def by name, in ``ast.walk`` order
    names: set[str]  # every identifier the unit binds or reads
    stored: set[str]  # those it binds
    shared: set[str]  # those a ``global`` statement declares
    suspects: list[ast.AST]  # scope-reading calls and classes, in walk order


def _is_scope_reader(node) -> bool:
    """A call by the name of a builtin that reads the calling scope (the
    name may still be a helper's)."""
    if type(node) is not ast.Call or type(node.func) is not ast.Name:
        return False
    name = node.func.id
    return name in _SCOPE_READERS or (
        name in _BARE_SCOPE_READERS and not (node.args or node.keywords))


def _gather(tree: ast.Module) -> _UnitFacts:
    """The unit-wide facts the checks and the rewrite read, in one walk.

    Raises DynamicCallUnsupported on the first definition, in walk order,
    whose name an earlier one already took.
    """
    defs: dict[str, ast.AST] = {}
    loaded: set[str] = set()
    stored: set[str] = set()
    shared: set[str] = set()
    suspects: list[ast.AST] = []
    for node in ast.walk(tree):
        name = _name_of(node)
        if name is not None:
            (loaded if _reads(node) else stored).add(name)
        if isinstance(node, _DEF_NODES):
            if name in defs:
                raise DynamicCallUnsupported(f"function name {name!r} is defined more than once")
            defs[name] = node
        elif type(node) is ast.Global:
            shared.update(node.names)
        elif type(node) is ast.ClassDef or _is_scope_reader(node):
            suspects.append(node)
    return _UnitFacts(defs, loaded | stored, stored, shared, suspects)


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


def _analyze(tree: ast.Module, defs: dict[str, ast.AST]):
    """Check that the call graph of ``defs``, every definition by name, is
    inlinable.

    One scan of the tree finds each helper's call sites and the defs that
    enclose them; one depth-first walk of the call graph, in sorted order,
    meets the first cycle and gives each helper its locals, the free names
    it reads itself or through its callees, and the helpers it runs.

    Raises RecursionUnsupported, DynamicCallUnsupported,
    ExternalNameCollision, or TransformUnsupported (a call that runs before
    its helper is defined) when the unit cannot be inlined soundly.
    """
    planned = set(defs)
    # per call site of a helper, the defs that enclose it, outermost first
    sites: dict[str, list[list[str]]] = {name: [] for name in planned}
    parent_def: dict[str, str | None] = {}

    def scan(node, owners: list[str], call: ast.Call | None):
        """``call`` is the call whose ``func`` is ``node``, if any."""
        if isinstance(node, _DEF_NODES):
            parent_def[node.name] = owners[-1] if owners else None
            owners = owners + [node.name]
        elif (name := _name_of(node)) in planned:
            if not _reads(node):
                raise DynamicCallUnsupported(
                    f"function name {name!r} is rebound by {type(node).__name__} "
                    f"(line {node.lineno})"
                )
            if call is None:
                raise DynamicCallUnsupported(
                    f"function {name!r} is used as a value, not called"
                )
            sites[name].append(owners)
            return
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            hit = planned.intersection(node.names)
            if hit:
                raise DynamicCallUnsupported(
                    f"global/nonlocal declaration of function name {sorted(hit)[0]!r}"
                )
        func = node.func if type(node) is ast.Call else None
        for child in ast.iter_child_nodes(node):
            scan(child, owners, node if child is func else None)

    for stmt in tree.body:
        scan(stmt, [], None)

    # owner -> callee; a nested def may only be called inside its parent.
    # This check and the capture check go through ``defs`` in walk order,
    # so the error raised first does not depend on the hash seed.
    calls_of: dict[str, set[str]] = {name: set() for name in planned}
    for name in defs:
        parent = parent_def[name]
        for owners in sites[name]:
            if parent is not None and parent not in owners:
                raise DynamicCallUnsupported(
                    f"{name!r} is called outside the scope that defines it"
                )
            if owners:
                calls_of[owners[-1]].add(name)

    locals_of: dict[str, set[str]] = {}
    free_of: dict[str, set[str]] = {}  # read by it or by a helper it calls
    runs: dict[str, set[str]] = {}  # itself and every helper it calls
    trail: list[str] = []

    def walk(name: str):
        trail.append(name)
        locals_of[name], free = _scope_names(defs[name])
        free -= planned
        ran = {name}
        for callee in sorted(calls_of[name]):
            if callee in trail:
                raise RecursionUnsupported(trail[trail.index(callee):] + [callee])
            if callee not in runs:
                walk(callee)
            free |= free_of[callee]
            ran |= runs[callee]
        trail.pop()
        free_of[name], runs[name] = free, ran

    for name in sorted(planned):
        if name not in runs:
            walk(name)

    for name in defs:
        for owners in sites[name]:
            captured = free_of[name] & set().union(*(locals_of[o] for o in owners))
            if captured:
                raise ExternalNameCollision(
                    f"inlining {name!r} would capture {sorted(captured)[0]!r} "
                    f"bound in {owners[-1]!r}"
                )

    _check_definition_order(tree, runs)


def _check_definition_order(tree: ast.Module, runs: dict[str, set[str]]):
    """Reject a call that runs before the ``def`` of its helper: as written
    it raises NameError, inlined it would not. A statement runs ``runs[h]``
    for each helper ``h`` it calls; a definition runs only its defaults and
    decorators."""
    pending = [tree]
    while pending:
        for holder, field in statement_blocks(pending.pop()):
            stmts = getattr(holder, field)
            pending.extend(stmts)
            later = {s.name for s in stmts if isinstance(s, _DEF_NODES)}
            for stmt in stmts:
                if not later:
                    break
                early: set[str] = set()
                stack = [stmt]
                while stack:
                    n = stack.pop()
                    if isinstance(n, _DEF_NODES):
                        args = n.args
                        stack += args.defaults + [d for d in args.kw_defaults if d]
                        stack += n.decorator_list
                        continue
                    if _is_helper_call(n, runs):
                        early |= later & runs[n.func.id]
                    stack.extend(ast.iter_child_nodes(n))
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


def _check_transformable(facts: _UnitFacts):
    planned = facts.defs
    for node in facts.suspects:
        if type(node) is ast.Call:
            if node.func.id not in planned:
                raise TransformUnsupported(
                    f"the unit reads names dynamically through {node.func.id}() "
                    f"(line {node.lineno})"
                )
        else:
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
        # Python evaluates these when the def runs, unless annotations are
        # deferred (Python 3.14, ``from __future__ import annotations``):
        # keep only those whose evaluation can neither fail nor act
        params = args.posonlyargs + args.args + args.kwonlyargs
        for annotation in [p.annotation for p in params] + [node.returns]:
            if not (annotation is None or type(annotation) is ast.Constant
                    or _reads(annotation) and annotation.id not in facts.stored
                    and hasattr(builtins, annotation.id)):
                raise TransformUnsupported(
                    f"{name!r} has an annotation that is neither a constant nor "
                    f"a builtin name (line {annotation.lineno})"
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
    __slots__ = ("node", "ctx", "owners")

    def __init__(self, node, ctx, owners):
        self.node = node  # a call, name, walrus, yield, yield from, await or with-item
        self.ctx = ctx  # "plain" | "conditional" | "deferred" | "repeated"
        self.owners = owners  # enclosing call nodes, outermost first


# a with-item stands for the call of its context manager's ``__enter__``
_EVENT_NODES = (ast.Call, ast.Name, ast.NamedExpr, ast.Yield, ast.YieldFrom, ast.Await,
                ast.withitem)


def _linearize(expr, ctx, owners, events):
    """Append an event for each call, name, walrus, yield, await and
    with-item of one expression, in evaluation order."""
    if expr is None:
        return
    if isinstance(expr, ast.BoolOp):
        _linearize(expr.values[0], ctx, owners, events)
        for v in expr.values[1:]:
            _linearize(v, _worse(ctx, "conditional"), owners, events)
        return
    if isinstance(expr, ast.IfExp):
        _linearize(expr.test, ctx, owners, events)
        _linearize(expr.body, _worse(ctx, "conditional"), owners, events)
        _linearize(expr.orelse, _worse(ctx, "conditional"), owners, events)
        return
    if isinstance(expr, ast.Compare):
        _linearize(expr.left, ctx, owners, events)
        for i, comp in enumerate(expr.comparators):
            sub_ctx = ctx if i == 0 else _worse(ctx, "conditional")
            _linearize(comp, sub_ctx, owners, events)
        return
    if isinstance(expr, ast.Lambda):
        for d in expr.args.defaults + [d for d in expr.args.kw_defaults if d]:
            _linearize(d, ctx, owners, events)
        _linearize(expr.body, _worse(ctx, "deferred"), owners, events)
        return
    if isinstance(expr, _COMPREHENSIONS):
        lazy = isinstance(expr, ast.GeneratorExp)
        inner = _worse(ctx, "deferred" if lazy else "repeated")
        for i, gen in enumerate(expr.generators):
            _linearize(gen.iter, ctx if i == 0 else inner, owners, events)
            for cond in gen.ifs:
                _linearize(cond, inner, owners, events)
        if isinstance(expr, ast.DictComp):
            _linearize(expr.key, inner, owners, events)
            _linearize(expr.value, inner, owners, events)
        else:
            _linearize(expr.elt, inner, owners, events)
        return
    inner = owners + [expr] if isinstance(expr, ast.Call) else owners
    for child in ast.iter_child_nodes(expr):
        # a walrus stores its target after its value, as its own event
        if isinstance(child, (ast.expr, ast.keyword)) and not (
                isinstance(expr, ast.NamedExpr) and child is expr.target):
            _linearize(child, ctx, inner, events)
    if isinstance(expr, _EVENT_NODES):
        events.append(_EvalEvent(expr, ctx, owners))


_CTX_RANK = {"plain": 0, "conditional": 1, "repeated": 2, "deferred": 3}


def _worse(a: str, b: str) -> str:
    return a if _CTX_RANK[a] >= _CTX_RANK[b] else b


# The (field, context) pairs each statement type evaluates itself, in the
# order CPython evaluates them; a type not listed evaluates nothing of its
# own (a def's defaults are hoisted before this table is read, and a
# decorated def is refused). A field holding a with-item, keyword, except
# handler or match arm reaches ``_linearize``'s generic branch, which
# visits that node's expressions in order; match patterns hold no call.
# A handler's type runs only when an exception propagates, a guard only
# when its pattern matches, an assert's message only when the test fails.
# An annotation is ``deferred``: ``from __future__ import annotations``
# skips it, and Python 3.14 defers it; ``_strip_local_annotations`` has
# already dropped the ones in a def.
_EVALUATES = {
    ast.Expr: (("value", "plain"),),
    ast.Assign: (("value", "plain"), ("targets", "plain")),
    ast.AugAssign: (("target", "plain"), ("value", "plain")),
    ast.AnnAssign: (("value", "plain"), ("target", "plain"), ("annotation", "deferred")),
    ast.Return: (("value", "plain"),),
    ast.Delete: (("targets", "plain"),),
    ast.If: (("test", "plain"),),
    ast.While: (("test", "repeated"),),
    ast.For: (("iter", "plain"), ("target", "repeated")),
    ast.AsyncFor: (("iter", "plain"), ("target", "repeated")),
    ast.With: (("items", "plain"),),
    ast.AsyncWith: (("items", "plain"),),
    ast.Raise: (("exc", "plain"), ("cause", "plain")),
    ast.Assert: (("test", "plain"), ("msg", "conditional")),
    ast.Match: (("subject", "plain"), ("cases", "conditional")),
    ast.ClassDef: (("decorator_list", "plain"), ("bases", "plain"), ("keywords", "plain")),
    **{t: (("handlers", "conditional"),) for t in TRY_NODES},
}
if hasattr(ast, "TypeAlias"):
    # ``type X = v`` (Python 3.12 on) evaluates ``v`` when it is first read
    _EVALUATES[ast.TypeAlias] = (("value", "deferred"),)


def _stmt_eval_parts(stmt) -> list[tuple[ast.AST, str]]:
    """(node, context) pairs in evaluation order for one statement."""
    parts = []
    for field, ctx in _EVALUATES.get(type(stmt), ()):
        value = getattr(stmt, field)
        parts += [(v, ctx) for v in (value if type(value) is list else [value])]
    return parts


def _is_helper_call(node, planned) -> bool:
    return type(node) is ast.Call and type(node.func) is ast.Name and node.func.id in planned


def _canonical_root_call(stmt, planned) -> ast.Call | None:
    """The statement's own call when it is already in splice position."""
    value = None
    if isinstance(stmt, ast.Expr):
        value = stmt.value
    elif isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
        value = stmt.value
    return value if _is_helper_call(value, planned) else None


class _CallSwap(ast.NodeTransformer):
    def __init__(self, mapping: dict[int, str]):
        self.mapping = mapping

    def visit_Call(self, node):
        self.generic_visit(node)
        name = self.mapping.get(id(node))
        if name is not None:
            return ast.copy_location(ast.Name(id=name, ctx=ast.Load()), node)
        return node


def _normalize_stmt(stmt, planned, shared, fresh, in_class_body):
    """Hoist unit calls out of compound positions; None means keep as is.

    A hoisted call may move ahead of constants and of names outside
    ``shared`` (the names a ``global`` statement declares); any other event
    it would move ahead of refuses the hoist.
    """
    events: list[_EvalEvent] = []
    for expr, ctx in _stmt_eval_parts(stmt):
        _linearize(expr, ctx, [], events)
    calls = [e for e in events if _is_helper_call(e.node, planned)]
    if not calls:
        return None
    if in_class_body:
        raise TransformUnsupported(
            "call to a unit function inside a class body"
        )
    root = _canonical_root_call(stmt, planned)
    hoisted = [e.node for e in calls if e.node is not root]
    for event in calls:
        if event.ctx != "plain":
            raise TransformUnsupported(
                f"call to {event.node.func.id!r} in a {event.ctx} position "
                f"(line {event.node.lineno})"
            )
    if not hoisted:
        return None

    # a hoisted call runs at its rank; an effect runs at the rank of its
    # innermost hoisted owner, or after every hoist when it has none;
    # ``latest`` is the furthest such position of the effects met so far
    rank = {id(call): i for i, call in enumerate(hoisted)}
    latest = -1
    for event in events:
        node = event.node
        if id(node) in rank:
            if latest > rank[id(node)]:
                raise TransformUnsupported(
                    f"cannot hoist call to {node.func.id!r} past an "
                    f"effectful expression (line {stmt.lineno})"
                )
        elif node is not root and (type(node) is not ast.Name or node.id in shared):
            owner = next((rank[id(o)] for o in reversed(event.owners) if id(o) in rank),
                         len(hoisted))
            latest = max(latest, owner)

    swap: dict[int, str] = {}
    prelude: list[ast.stmt] = []
    for call_node in hoisted:
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
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += zip(args.kwonlyargs, args.kw_defaults)
        prelude: list[ast.stmt] = []
        for param, default in pairs:
            if default is None:
                continue
            temp = fresh.make(f"{stmt.name}_{param.arg}_default")
            temp_of[(stmt.name, param.arg)] = temp
            prelude.append(_assign(temp, default, stmt))
        return prelude + [stmt] if prelude else None

    _rewrite_blocks(tree, visit)
    return temp_of


# ---------------------------------------------------------------------------
# return rewriting


def _none() -> ast.expr:
    return ast.Constant(value=None)


def _assign(name: str, value: ast.expr, like) -> ast.stmt:
    node = ast.Assign(targets=[ast.Name(id=name, ctx=ast.Store())], value=value)
    return ast.copy_location(node, like)


def _rewrite_returns(body, returns: int, ret_name: str, done_name: str):
    """(new_body, whether the body returns anywhere), given the number of
    ``return`` statements in the body."""
    if returns == 0:
        return list(body), False
    if returns == 1 and isinstance(body[-1], ast.Return):
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


@dataclass(frozen=True)
class _HelperFacts:
    locals: list[str]  # the names bound in its own scope, sorted
    returns: int  # its ``return`` statements
    declares_global: bool


def _helper_facts(def_node) -> _HelperFacts:
    """What every call site of a flattened helper reads of it."""
    returns = 0
    declares_global = False
    for n in _walk_own(def_node.body):
        returns += type(n) is ast.Return
        declares_global |= type(n) is ast.Global
    local_names, _ = _scope_names(def_node)
    return _HelperFacts(sorted(local_names), returns, declares_global)


def _splice_one(stmt, call, def_node, facts: _HelperFacts, fresh, default_temps,
                into_function):
    """Expand one canonical call site into a statement list."""
    fname = def_node.name
    rename = {name: fresh.make(name) for name in facts.locals}
    parts = _bind_arguments(call, def_node, rename, default_temps, fname)

    body = _copy_tree(def_node.body, rename)
    if facts.declares_global and not into_function:
        body = [_GlobalStripper().visit(s) for s in body]

    ret_name = fresh.make(f"{fname}_ret")
    done_name = fresh.make(f"{fname}_done")
    new_body, had_return = _rewrite_returns(body, facts.returns, ret_name, done_name)
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
    ``_analyze`` has rejected cycles, so this recursion ends. What the
    call sites read of the flat helper (``_helper_facts``) is taken then,
    once. A helper that is never called is dropped unspliced.
    """
    flat: dict[str, _HelperFacts] = {}

    def visit(stmt, ctx):
        if isinstance(stmt, _DEF_NODES):
            return []  # definition removed; hoisted defaults already placed
        call = _canonical_root_call(stmt, planned)
        if call is None:
            return None
        def_node = planned[call.func.id]
        facts = flat.get(def_node.name)
        if facts is None:
            _rewrite_blocks(def_node, visit, _BlockCtx(in_function=True))
            facts = flat[def_node.name] = _helper_facts(def_node)
        return _splice_one(stmt, call, def_node, facts, fresh, default_temps,
                           ctx.in_function)

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
    facts = _gather(tree)
    planned = facts.defs
    _analyze(tree, planned)
    _check_transformable(facts)

    fresh = _FreshNames(facts.names)
    default_temps = _hoist_defaults(tree, planned, fresh)

    def normalize(stmt, ctx):
        return _normalize_stmt(stmt, planned, facts.shared, fresh, ctx.in_class)

    _rewrite_blocks(tree, normalize)
    _splice_all(tree, planned, fresh, default_temps)

    # every def is a helper: a name of one left in the output is a call
    # site the rewrite missed, or a def it kept
    for n in ast.walk(tree):
        if _name_of(n) in planned:
            raise TransformUnsupported(
                f"internal: the output still names {_name_of(n)!r} (line {n.lineno})"
            )
    text = HEADER_COMMENT + "\n" + ast.unparse(tree) + "\n"
    return parse(text, unit_id=f"{unit.id}:singular")


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
