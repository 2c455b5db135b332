"""De-modularization: replace every call to a unit-defined function with
that function's body, then remove the definitions.

The transform is behavior-preserving or loudly rejected, never silently
wrong. Mechanics:

  - every helper call site takes one path: for each call in a statement,
    in Python's evaluation order (``parsing.EVALUATES`` lists it per
    statement type: a class's decorators before its bases, an assignment's
    value before its targets, an annotated target before its annotation),
    the helper's flat body is spliced ahead of the statement, and the call
    becomes its result variable (``None`` for a helper with no
    ``return``); a statement that is nothing but the call is dropped. A
    spliced body may move ahead only of constants and of names that no
    ``global`` statement in the unit declares (what an attribute,
    subscript or operator reads is not checked against what the helper
    changes);
  - parameters become assignments of the argument expressions, one per
    written argument (so each argument is evaluated exactly once, in call
    order); unsupplied parameters read default temps: a def is replaced
    by the assignments of its defaults to fresh temps, which run where
    and when the def would;
  - inlined locals are alpha-renamed with fresh ``__inl<N>`` suffixes;
  - a body whose single return is its last statement becomes an
    assignment to a fresh result variable. Otherwise a ``return`` sets
    the result and a fresh done flag (and breaks, inside a loop of the
    helper), and the flag guards what would still run after it: the rest
    of each block, and a ``try``'s ``else`` after a body that returned. A
    handler that may catch an exception from a ``finally`` block or a
    ``__exit__`` run after a return clears both, as the exception cancels
    the return;
  - a helper is flattened on its first call, and one that nothing calls
    is deleted unrewritten, so only a called helper's body can refuse the
    unit.

Rejected outright: recursion, any non-call use of a function name,
rebinding or shadowing of one (by assignment, parameter, import, except
clause, class or match capture), decorated/generator/async definitions,
*args/**kwargs, a keyword argument for a positional-only parameter,
``nonlocal``, dotted imports without ``as`` in a helper, a ``return`` in
a ``finally`` block or a ``break`` or ``continue`` there outside a loop
of that block (the flag cannot express the jump out of it), units that
read names dynamically anywhere (a call of the builtin ``eval``,
``exec``, ``globals`` or ``locals``, or of ``vars`` or ``dir`` without
an argument), classes with methods (methods are modules but only
dynamically invocable), call sites in deferred or repeated positions
(lambda bodies, comprehensions, while-tests, short-circuit operands,
ternary arms), splices that would run a helper's body ahead of anything
else (any other call, a name some ``global`` statement declares, a
walrus, a ``yield`` or ``await``, or a with-item's ``__enter__``), units
with functions but no call at the top level that reaches one (the flat
program would keep none of their code), a helper called in a ``for`` or
``while`` body (not its ``else``) whose flat body has a lambda or a
generator expression that reads one of its locals (the closure may run
after the next pass has rebound the spliced local; this also refuses
``sorted(xs, key=lambda i: a[i])``, whose key runs at once), calls that
come before their helper's ``def`` in source order, nested blocks
included (directly or through the helpers they run), calls of a helper
whose ``def`` stands in a compound statement's block (``if``, ``try``,
loop, ``with``, ``match``: it may not have run) from outside that block
(a call in the block, or in a block nested in it, is spliced; a call in
a helper's body counts at each of that helper's call sites), calls in
an ``except`` clause's type (it runs only when an exception propagates)
or in a module-level annotation, annotations without a value (``x: T``)
in a called helper, and sources nested too deeply for the rewrite's
recursion. An annotated local ``x: T = v`` becomes ``x = v``: a function
never evaluates the annotation, so the survey does not read it, and
neither the flat output nor a spliced copy keeps it. A
helper's parameter and return annotations run when its ``def`` does,
unless annotations are deferred (Python 3.14, ``from __future__ import
annotations``), so neither hoisting nor dropping them is sound: a helper
keeps only constants and builtin names the unit never binds there, and
any other annotation is refused. An output that still names a helper is
refused as an internal error.

The pipeline is one survey of the unit, the call-graph checks, and one
rewrite walk. One walker models what runs in which scope (``_survey``).
It reads the unit once, breadth first in ``ast.walk`` order: its
definitions, the names it binds and reads, the names its ``global``
statements declare, its scope-reading calls and classes, every call site
with the def whose body holds it, each def's parent, each name's first
use that is not a call, and each def's own scope (locals, free names,
returns, first refused construct, and the locals that a lambda body or a
generator reads). The checks go through these in walk order, so the
first reason to refuse is the first one raised. Only a def's body runs
in a scope of its own: its decorators, defaults and annotations run where
it stands, and every check counts a call or a yield there as the
enclosing scope's. The helper call graph is walked once, depth first
(``_analyze``): the walk meets the first cycle and gives each helper the
free names it reads through its callees, for the capture check. The same
walker scopes each helper once more when it is flattened, never per call
site; that flat scope holds its callees' closures.

The rewrite walk then visits the statements in source order, depth
first (``_rewrite_blocks`` with ``_inline_stmt``): it replaces each def
it meets by its default temps, drops each local annotation, splices each
call site, and flattens a helper where the walk first meets a call to
it. So a def is passed in the order its ``def`` statement would run, and
a call to a helper whose def the walk has not passed is refused. The
walk tracks the chain of blocks it is in, from the module's or the
flattened def's own body, and splices a call only where that chain
starts with its helper's def's chain (``_check_block``). Each
statement is rewritten once: the walk enters the blocks of a statement
that stays in the output, never a spliced copy of a flat body (it holds
no helper call and no def) nor a default temp.
"""

from __future__ import annotations

import ast
import builtins
import dataclasses
from collections import deque
from dataclasses import dataclass

from .errors import (
    DynamicCallUnsupported,
    ExternalNameCollision,
    RecursionUnsupported,
    TransformUnsupported,
)
from .parsing import EVALUATES, TRY_NODES, SourceUnit, parse, statement_blocks

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
_FINALLY_JUMPS = (ast.Return, ast.Break, ast.Continue)
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


@dataclass
class _Scope:  # what ``_survey`` finds in one def's own scope
    locals: set[str]  # the names bound in it
    free: set[str]  # the names its body resolves outside it
    declared: set[str]  # by ``global`` or ``nonlocal``
    late: list[ast.Name]  # its locals a lambda body or a generator reads, in walk order
    returns: int = 0  # its ``return`` statements
    refusal: str | None = None  # for its first yield, nonlocal, dotted import or class


class _Survey:
    """What one walk from a module or a def finds, in ``ast.walk`` order."""

    def __init__(self):
        self.defs: dict[str, ast.AST] = {}  # every def by name
        self.parents: dict[str, str | None] = {}  # per def, the def whose body holds it
        self.scopes: dict[str, _Scope] = {}  # per def, its own scope
        self.names: set[str] = set()  # every identifier bound or read
        self.stored: set[str] = set()  # those bound
        self.shared: set[str] = set()  # those a ``global`` statement declares
        self.suspects: list[ast.AST] = []  # scope-reading calls and classes
        # per name called, per call, the defs whose bodies hold it, outermost first
        self.sites: dict[str, list[tuple[str, ...]]] = {}
        # per name, the refusal for its first binding but a def, declaration,
        # or use but a call, should it name a def
        self.misuses: dict[str, str] = {}


def _survey(root: ast.Module | ast.FunctionDef) -> _Survey:
    """The one walk of what runs in which scope, breadth first from
    ``root`` in ``ast.walk`` order.

    Each node carries the defs whose scopes run it, the innermost one's
    ``_Scope`` (None in a class body, which runs in a scope no check
    reads), the names that lambdas and comprehensions around it bind there
    (they are neither local nor free where those read them), and whether
    it runs later than the statement that holds it: in a lambda's body, or
    in a generator expression past its first iterable. Only a def's body
    runs in its own scope: its decorators, defaults and annotations run
    where it stands, and its parameters bind only in its body. A lambda's
    defaults and a comprehension's first iterable run around it as well. A
    walrus target binds in the def, also inside a comprehension, unless it
    sits in a lambda. A yield that runs later makes the lambda a
    generator, not the def.

    Raises DynamicCallUnsupported on the first def, in walk order, whose
    name an earlier one already took.
    """
    found = _Survey()
    called: set[int] = set()  # the names that are a call's function, by id
    outside: dict[int, tuple] = {}  # a comprehension's first iterable: the context around it
    queue = deque([(root, ((), None, frozenset(), False))])
    while queue:
        node, context = queue.popleft()
        owners, scope, inner, later = context
        kind = type(node)
        name = _name_of(node)
        if name is not None:
            reads = kind is ast.Name and type(node.ctx) is ast.Load
            (found.names if reads else found.stored).add(name)
            if reads and id(node) in called:
                found.sites.setdefault(name, []).append(owners)
            elif kind not in _DEF_NODES and name not in found.misuses:
                found.misuses[name] = (
                    f"function {name!r} is used as a value, not called" if reads else
                    f"function name {name!r} is rebound by {kind.__name__} (line {node.lineno})")
            if scope is not None and kind is not ast.arg and name not in inner:
                if kind is ast.Name:
                    scope.free.add(name)
                    if later:
                        scope.late.append(node)
                if not reads:
                    scope.locals.add(name)
        if kind in _DEF_NODES:
            if name in found.defs:
                raise DynamicCallUnsupported(f"function name {name!r} is defined more than once")
            found.defs[name], found.parents[name] = node, owners[-1] if owners else None
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            own = found.scopes[name] = _Scope({p.arg for p in params if p}, set(), set(), [])
            body = {id(stmt) for stmt in node.body}
            runs_own = (owners + (name,), own, frozenset(), False)
            queue.extend((c, runs_own if id(c) in body else context)
                         for c in ast.iter_child_nodes(node))
            continue
        if kind is ast.Lambda:
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            own = {p.arg for p in params if p}
            own |= {w.target.id for w in ast.walk(node.body) if type(w) is ast.NamedExpr}
            queue += [(args, context), (node.body, (owners, scope, inner | own, True))]
            continue
        if kind in _COMPREHENSIONS:
            own = {x.id for g in node.generators for x in ast.walk(g.target)
                   if type(x) is ast.Name and not _reads(x)}
            outside[id(node.generators[0].iter)] = context
            context = (owners, scope, inner | own, later or kind is ast.GeneratorExp)
        elif kind is ast.comprehension:
            queue.extend((c, outside.pop(id(c), context)) for c in ast.iter_child_nodes(node))
            continue
        elif kind is ast.ClassDef:
            found.suspects.append(node)
            if scope is not None and scope.refusal is None:
                scope.refusal = f"{owners[-1]!r} defines class {node.name!r} in its body"
            context = (owners, None, inner, later)
        elif kind is ast.Call and type(node.func) is ast.Name:
            called.add(id(node.func))
            # the name may still be a helper's
            if node.func.id in _SCOPE_READERS or node.func.id in _BARE_SCOPE_READERS and not (
                    node.args or node.keywords):
                found.suspects.append(node)
        elif kind is ast.Global or kind is ast.Nonlocal:
            if kind is ast.Global:
                found.shared.update(node.names)
            for declared in sorted(set(node.names) - found.misuses.keys()):
                found.misuses[declared] = (
                    f"global/nonlocal declaration of function name {declared!r}")
            if scope is not None:
                scope.declared.update(node.names)
                scope.free.update(node.names)
                if kind is ast.Nonlocal and scope.refusal is None:
                    scope.refusal = f"{owners[-1]!r} declares nonlocal"
        elif kind is ast.Return and scope is not None:
            scope.returns += 1
        elif kind is ast.AnnAssign and scope is not None:
            # a def never evaluates a local annotation, and the rewrite drops it
            queue.extend((c, context) for c in (node.target, node.value) if c)
            continue
        elif scope is None or scope.refusal is not None:
            pass  # outside every def, in a class body, or refused already
        elif (kind is ast.Yield or kind is ast.YieldFrom) and not later:
            scope.refusal = f"{owners[-1]!r} is a generator function"
        elif kind is ast.alias and node.asname is None and "." in node.name:
            # the renamed copy would read `import a.b as a__inl0`, which
            # binds the submodule, not the package
            scope.refusal = f"{owners[-1]!r} imports {node.name!r} without 'as'"
        queue.extend((c, context) for c in ast.iter_child_nodes(node))
    found.names |= found.stored
    for scope in found.scopes.values():  # a declared name binds outside the def
        scope.locals -= scope.declared
        scope.free -= scope.locals
        scope.late = [n for n in scope.late if n.id in scope.locals]
    return found


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


def _analyze(facts: _Survey):
    """Check that the call graph of ``facts.defs``, every definition by
    name, is inlinable.

    The survey gives each helper's call sites, the def that holds each
    one and each def's parent; one depth-first walk of the call graph, in
    sorted order, meets the first cycle and gives each helper the free
    names it reads itself or through its callees.

    Raises RecursionUnsupported, DynamicCallUnsupported or
    ExternalNameCollision when the unit cannot be inlined soundly.
    """
    planned = facts.defs
    misuse = next((refusal for name, refusal in facts.misuses.items() if name in planned), None)
    if misuse:
        raise DynamicCallUnsupported(misuse)

    # owner -> callee; a nested def may only be called inside its parent.
    # This check and the capture check go through ``planned`` in walk
    # order, so the error raised first does not depend on the hash seed.
    calls_of: dict[str, set[str]] = {name: set() for name in planned}
    for name in planned:
        parent = facts.parents[name]
        for owners in facts.sites.get(name, ()):
            if parent is not None and parent not in owners:
                raise DynamicCallUnsupported(
                    f"{name!r} is called outside the scope that defines it"
                )
            if owners:
                calls_of[owners[-1]].add(name)

    free_of: dict[str, set[str]] = {}  # read by it or by a helper it calls
    trail: list[str] = []

    def walk(name: str):
        trail.append(name)
        free = facts.scopes[name].free - planned.keys()
        for callee in sorted(calls_of[name]):
            if callee in trail:
                raise RecursionUnsupported(trail[trail.index(callee):] + [callee])
            if callee not in free_of:
                walk(callee)
            free |= free_of[callee]
        trail.pop()
        free_of[name] = free

    for name in sorted(planned):
        if name not in free_of:
            walk(name)

    for name in planned:
        for owners in facts.sites.get(name, ()):
            captured = free_of[name] & set().union(*(facts.scopes[o].locals for o in owners))
            if captured:
                raise ExternalNameCollision(
                    f"inlining {name!r} would capture {sorted(captured)[0]!r} "
                    f"bound in {owners[-1]!r}"
                )


# ---------------------------------------------------------------------------
# transformability checks


def _check_transformable(facts: _Survey):
    for node in facts.suspects:
        if type(node) is ast.Call:
            if node.func.id not in facts.defs:
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
    for name, node in facts.defs.items():
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
        if facts.scopes[name].refusal:
            raise TransformUnsupported(facts.scopes[name].refusal)


# ---------------------------------------------------------------------------
# evaluation order of a statement's calls


class _EvalEvent:
    __slots__ = ("node", "ctx", "owners")

    def __init__(self, node, ctx, owners):
        self.node = node  # a call, name, walrus, yield, yield from, await or with-item
        self.ctx = ctx  # "plain" | "conditional" | "deferred" | "repeated"
        self.owners = owners  # enclosing call and lambda nodes, outermost first


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
        _linearize(expr.body, _worse(ctx, "deferred"), owners + [expr], events)
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
    if isinstance(expr, ast.Dict):  # key, value, key, value; a None key is a ** unpacking
        for key, value in zip(expr.keys, expr.values):
            _linearize(key, ctx, owners, events)
            _linearize(value, ctx, owners, events)
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


def _stmt_eval_parts(stmt) -> list[tuple[ast.AST, str]]:
    """(node, context) pairs in evaluation order for one statement.

    A with-item, keyword, except handler or match arm reaches
    ``_linearize``'s generic branch, which visits that node's expressions
    in order; match patterns hold no call. ``_inline_stmt`` has already
    dropped the annotation of a local in a def.
    """
    parts = []
    for field, ctx in EVALUATES.get(type(stmt), ()):
        value = getattr(stmt, field)
        parts += [(v, ctx) for v in (value if type(value) is list else [value])]
    return parts


def _is_helper_call(node, planned) -> bool:
    return type(node) is ast.Call and type(node.func) is ast.Name and node.func.id in planned


class _CallSwap(ast.NodeTransformer):
    def __init__(self, mapping: dict[int, ast.expr]):
        self.mapping = mapping

    def visit_Call(self, node):
        self.generic_visit(node)
        return self.mapping.get(id(node), node)


# ---------------------------------------------------------------------------
# return rewriting


def _none() -> ast.expr:
    return ast.Constant(value=None)


def _assign(name: str, value: ast.expr, like) -> ast.stmt:
    target = ast.copy_location(ast.Name(id=name, ctx=ast.Store()), like)
    return ast.copy_location(ast.Assign(targets=[target], value=value), like)


def _cleanup_after_return(stmts) -> bool:
    """Whether a ``return`` in ``stmts`` sits inside a ``finally``-bearing
    ``try`` or a ``with`` there: cleanup that runs after the return."""
    return any((type(n) is ast.With or isinstance(n, TRY_NODES) and n.finalbody)
               and any(type(r) is ast.Return for r in ast.walk(n))
               for s in stmts for n in ast.walk(s))


def _rewrite_returns(body, returns: int, ret_name: str, done_name: str) -> list[ast.stmt]:
    """The flat helper's body with each of its ``returns`` return
    statements replaced. A lone return at the end assigns the result.
    Otherwise one rule holds: a ``return`` sets the result and the done
    flag, and inside a loop of the helper it also breaks. Whatever would
    still run after a statement that may have returned is guarded by the
    flag: the rest of its block, and a ``try``'s ``else`` after a body
    that returned. Inside a loop the guard is ``if done: break``, and the
    break already skips the ``else``; outside one it is ``if not done:``
    around what follows. So only a ``finally`` block or an ``__exit__``
    runs while the flag is set, and an exception it raises cancels the
    return: a handler of a ``try`` whose body holds a return inside a
    ``finally``-bearing ``try`` or a ``with`` first clears both.

    Raises TransformUnsupported for a jump out of a ``finally`` block (a
    ``return``, or a ``break`` or ``continue`` outside a loop of that
    block): it drops a pending exception or return, which the flag cannot.
    """
    if returns == 0:
        return body
    if returns == 1 and isinstance(body[-1], ast.Return):
        tail = body[-1]
        return body[:-1] + [_assign(ret_name, tail.value or _none(), tail)]

    def guarded(stmts, like, in_loop) -> list[ast.stmt]:
        """What runs after ``like``, which may have returned: ``stmts``,
        already rewritten, under the flag."""
        done = ast.Name(id=done_name, ctx=ast.Load())
        if in_loop:
            guard = ast.If(test=done, body=[ast.Break()], orelse=[])
            return [ast.copy_location(guard, like)] + stmts
        guard = ast.If(test=ast.UnaryOp(op=ast.Not(), operand=done), body=stmts, orelse=[])
        return [ast.copy_location(guard, like)] if stmts else []

    def walk(stmts, in_loop, jumps) -> tuple[list[ast.stmt], bool]:
        """``stmts`` rewritten, and whether any of them may return;
        ``jumps`` are the statement types that would leave a finally block."""
        out: list[ast.stmt] = []
        for i, s in enumerate(stmts):
            if type(s) in jumps:
                kind = type(s).__name__.lower()
                raise TransformUnsupported(
                    f"{kind!r} jumps out of a finally block (line {s.lineno})")
            if isinstance(s, ast.Return):
                out += [_assign(ret_name, s.value or _none(), s),
                        _assign(done_name, ast.Constant(value=True), s)]
                out += [ast.copy_location(ast.Break(), s)] if in_loop else []
                return out, True
            out.append(s)
            returned = guard_else = False
            cancels = isinstance(s, TRY_NODES) and _cleanup_after_return(s.body)
            for holder, field in statement_blocks(s):
                loop = field == "body" and isinstance(holder, _LOOPS)
                # return is listed first: a loop in a finally keeps its break and continue
                inner = _FINALLY_JUMPS if field == "finalbody" else jumps[:1] if loop else jumps
                new, block_returned = walk(getattr(holder, field), in_loop or loop, inner)
                if holder is s and field == "body":  # a try's else runs after its body
                    guard_else = block_returned and not in_loop and isinstance(s, TRY_NODES)
                elif field == "orelse" and guard_else:
                    new = guarded(new, s, False)
                elif holder is not s and cancels:  # an except handler
                    new = [_assign(ret_name, _none(), holder),
                           _assign(done_name, ast.Constant(value=False), holder)] + new
                setattr(holder, field, new)
                returned |= block_returned
            if returned:
                rest, _ = walk(stmts[i + 1:], in_loop, jumps)
                return out + guarded(rest, s, in_loop), True
        return out, False

    init = [_assign(ret_name, _none(), body[0]),
            _assign(done_name, ast.Constant(value=False), body[0])]
    return init + walk(body, False, ())[0]


# ---------------------------------------------------------------------------
# splicing


def _bind_arguments(call: ast.Call, def_node, rename, default_temps, fname):
    """Assignments binding renamed params, one per written argument."""
    args = def_node.args
    positional = args.posonlyargs + args.args
    # as in the signature, a positional-only parameter takes no keyword
    keywords = {a.arg for a in args.args + args.kwonlyargs}
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
        if kw.arg not in keywords or kw.arg in bound:
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


def _copy_tree(node, rename: dict[str, str], into_module: bool):
    """Copy a statement list or subtree field by field, renaming each name
    in ``rename`` wherever a node binds or reads it. Nodes without fields
    (contexts and operators) are shared, as ``ast.parse`` shares them;
    other leaf values (names, constants) are immutable. Copied
    ``into_module``, a ``global`` becomes ``pass``: module scope is the
    global scope, and compile() rejects the declaration there after an
    earlier toplevel assignment."""
    if type(node) is list:
        return [_copy_tree(item, rename, into_module) for item in node]
    if not isinstance(node, ast.AST) or not node._fields:
        return node
    if into_module and type(node) is ast.Global:
        return ast.copy_location(ast.Pass(), node)
    new = ast.AST.__new__(type(node))
    for key, value in node.__dict__.items():
        setattr(new, key, _copy_tree(value, rename, into_module))
    name = _name_of(node)
    if name in rename:
        setattr(new, _BINDS[type(node)], rename[name])
    return new


def _splice_one(call, def_node, scope: _Scope, fresh, default_temps, into_function):
    """One call site of a flat helper: the statements that run its body,
    and the expression that reads its result. ``scope`` is the flat
    helper's."""
    fname = def_node.name
    rename = {name: fresh.make(name) for name in sorted(scope.locals)}
    parts = _bind_arguments(call, def_node, rename, default_temps, fname)

    body = _copy_tree(def_node.body, rename, not into_function)
    ret_name = fresh.make(f"{fname}_ret")
    done_name = fresh.make(f"{fname}_done")
    parts += _rewrite_returns(body, scope.returns, ret_name, done_name)
    result = ast.Name(id=ret_name, ctx=ast.Load()) if scope.returns else _none()
    return parts, ast.copy_location(result, call)


@dataclass(frozen=True)
class _Inlining:  # what the rewrite walk of one unit reads and fills in
    defs: dict[str, ast.AST]  # every def by name: each one is a helper
    shared: set[str]  # the names a ``global`` statement declares
    fresh: _FreshNames
    default_temps: dict[tuple[str, str], str]  # per (def, parameter), its default's temp
    flat: dict[str, _Scope]  # each helper flattened so far, by name: its flat scope
    defined: dict[str, tuple[str | None, tuple]]  # each def passed: its _BlockCtx owner, blocks
    held: dict[str, list[str]]  # per flat helper, the defs ``_check_block`` left to its sites


@dataclass(frozen=True)
class _BlockCtx:
    owner: str | None = None  # the helper whose body the walk flattens; None at module level
    in_class: bool = False
    in_loop: bool = False  # in a ``for`` or ``while`` body, not its ``else``
    blocks: tuple = ()  # (holder, field) of each compound statement block around, outermost first


def _rewrite_blocks(unit: _Inlining, node, ctx: _BlockCtx):
    """Replace each statement in the blocks right under ``node`` by what
    ``_inline_stmt`` gives for it, in source order and depth first: a
    statement that stays in the output has its own blocks walked before
    the next statement. What is spliced ahead of it, and a def's default
    temps, are not walked: a flat body holds no helper call and no def,
    and each temp has been through ``_inline_stmt`` already."""
    # the module's and a flattened def's own body are no compound statement's block
    nested = not isinstance(node, (ast.Module, *_DEF_NODES))
    for holder, field in statement_blocks(node):
        loop = field == "body" and isinstance(holder, _LOOPS)
        block_ctx = dataclasses.replace(
            ctx, in_loop=ctx.in_loop or loop,
            blocks=ctx.blocks + ((holder, field),) if nested else ctx.blocks)
        new_list: list[ast.stmt] = []
        for stmt in getattr(holder, field):
            new = _inline_stmt(unit, stmt, block_ctx)
            if new and new[-1] is stmt:
                in_class = block_ctx.in_class or type(stmt) is ast.ClassDef
                _rewrite_blocks(unit, stmt, dataclasses.replace(block_ctx, in_class=in_class))
            new_list += new
        setattr(holder, field, new_list or [ast.copy_location(ast.Pass(), holder)])


def _check_block(unit: _Inlining, name: str, ctx: _BlockCtx):
    """Refuse to splice the helper ``name`` where ``ctx`` says, past its
    def, unless its def has run there: the def stands in no compound
    statement's block, or in one that holds the call, directly or in a
    nested block. A call in a helper's body runs where that helper is
    spliced, so a def of another scope is left in ``unit.held`` for it."""
    owner, blocks = unit.defined[name]
    if not blocks:
        return
    if owner != ctx.owner:
        held = unit.held.setdefault(ctx.owner, [])
        if name not in held:
            held.append(name)
    elif ctx.blocks[:len(blocks)] != blocks:
        raise TransformUnsupported(f"{name!r} is defined in a block that may not run "
                                   f"(line {unit.defs[name].lineno})")


def _inline_stmt(unit: _Inlining, stmt, ctx: _BlockCtx) -> list[ast.stmt]:
    """The statements that replace ``stmt``, ``stmt`` itself last among
    them when it stays; the one path for a helper call site.

    ``_rewrite_blocks`` calls it once on each statement in source order.
    A def becomes the assignments of its defaults to fresh temps, each one
    rewritten by this function, as it may call a helper; only then is the
    def passed. A local ``x: T = v`` becomes ``x = v``: Python never
    evaluates an annotation in a function scope, and spliced into a caller
    it would run. A bare ``x: T`` is refused: it makes ``x`` local, and
    dropping it would turn the def's reads of ``x`` into global reads.
    Each helper call in ``stmt``, in the order CPython runs them, has its
    flat body spliced ahead of ``stmt`` and reads as its result. A body
    may move ahead only of constants and of names outside
    ``unit.shared``. A helper is flattened by this same walk on its first
    call, where its callees run too; ``_analyze`` has rejected cycles, so
    this recursion ends. A call to a helper whose def the walk has not
    passed is refused: as written it raises NameError; so is one whose
    def's block may not have run (``_check_block``). Each later call site
    comes later in source order, so a flat body needs only the block check
    of the defs in ``unit.held``.
    """
    if isinstance(stmt, _DEF_NODES):
        args = stmt.args
        positional = args.posonlyargs + args.args
        pairs = list(zip(positional[len(positional) - len(args.defaults):], args.defaults))
        pairs += zip(args.kwonlyargs, args.kw_defaults)
        temps: list[ast.stmt] = []
        for param, default in pairs:
            if default is not None:
                temp = unit.default_temps[(stmt.name, param.arg)] = unit.fresh.make(
                    f"{stmt.name}_{param.arg}_default")
                temps += _inline_stmt(unit, _assign(temp, default, stmt), ctx)
        unit.defined[stmt.name] = (ctx.owner, ctx.blocks)
        return temps
    if type(stmt) is ast.AnnAssign and ctx.owner is not None and not ctx.in_class:
        if stmt.value is None:
            raise TransformUnsupported(
                f"annotation without a value in a function (line {stmt.lineno})")
        stmt = ast.copy_location(ast.Assign(targets=[stmt.target], value=stmt.value), stmt)
    events: list[_EvalEvent] = []
    for expr, when in _stmt_eval_parts(stmt):
        _linearize(expr, when, [], events)
    calls = [e for e in events if _is_helper_call(e.node, unit.defs)]
    if not calls:
        return [stmt]
    if ctx.in_class:
        raise TransformUnsupported("call to a unit function inside a class body")
    for event in calls:
        if event.ctx != "plain":
            raise TransformUnsupported(
                f"call to {event.node.func.id!r} in a {event.ctx} position "
                f"(line {event.node.lineno})"
            )

    # a call is spliced at its rank; an effect runs at the rank of its
    # innermost call owner, or after every splice when it has none;
    # ``latest`` is the furthest such position of the effects met so far.
    # A lambda's body is skipped: it runs only when something calls the
    # lambda, a call (an event of its own) or an object's operator (not
    # checked for any operand). A generator's elements count: ``x in gen``,
    # ``*gen`` or a comprehension over it runs them with no event.
    rank = {id(e.node): i for i, e in enumerate(calls)}
    latest = -1
    for event in events:
        node = event.node
        if id(node) in rank:
            if latest > rank[id(node)]:
                raise TransformUnsupported(
                    f"cannot hoist call to {node.func.id!r} past an "
                    f"effectful expression (line {stmt.lineno})"
                )
        elif ((type(node) is not ast.Name or node.id in unit.shared)
              and not any(type(o) is ast.Lambda for o in event.owners)):
            owner = next((rank[id(o)] for o in reversed(event.owners) if id(o) in rank),
                         len(calls))
            latest = max(latest, owner)

    results: dict[int, ast.expr] = {}  # per call spliced, what reads its result
    spliced: list[ast.stmt] = []
    for event in calls:
        call = _CallSwap(results).visit(event.node)  # the calls in it already spliced
        def_node = unit.defs[call.func.id]
        if def_node.name not in unit.defined:
            raise TransformUnsupported(f"{def_node.name!r} is called before its definition runs")
        _check_block(unit, def_node.name, ctx)
        scope = unit.flat.get(def_node.name)
        if scope is None:
            _rewrite_blocks(unit, def_node, _BlockCtx(owner=def_node.name))
            scope = unit.flat[def_node.name] = _survey(def_node).scopes[def_node.name]
        for held in unit.held.get(def_node.name, ()):
            _check_block(unit, held, ctx)
        if ctx.in_loop and scope.late:
            raise TransformUnsupported(
                f"{def_node.name!r} is called in a loop, and a lambda or generator in it "
                f"reads its local {scope.late[0].id!r} (line {scope.late[0].lineno})"
            )
        body, results[id(call)] = _splice_one(call, def_node, scope, unit.fresh,
                                              unit.default_temps, ctx.owner is not None)
        spliced += body
    if type(stmt) is ast.Expr and stmt.value is calls[-1].node:
        return spliced
    return spliced + [_CallSwap(results).visit(stmt)]


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
    facts = _survey(tree)
    _analyze(facts)
    _check_transformable(facts)

    inlining = _Inlining(facts.defs, facts.shared, _FreshNames(facts.names), {}, {}, {}, {})
    _rewrite_blocks(inlining, tree, _BlockCtx())

    # every def is a helper: a name of one left in the output is a call
    # site the rewrite missed, or a def it kept
    for n in ast.walk(tree):
        if _name_of(n) in facts.defs:
            raise TransformUnsupported(
                f"internal: the output still names {_name_of(n)!r} (line {n.lineno})"
            )
    if not inlining.flat:
        # nothing reaches a def: the unit would come out with none of its code
        raise TransformUnsupported("no function is called at the top level")
    text = HEADER_COMMENT + "\n" + ast.unparse(tree) + "\n"
    return parse(text, unit_id=f"{unit.id}:singular")
