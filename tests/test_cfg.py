import ast
import sys

import pytest

from modscore.cfg import _EXPR_CHILDREN, _count_expr_decisions, build_cfg, graph_counts
from modscore.complexity import cc_decision_points, cc_from_cfg
from modscore.errors import UnsupportedConstruct
from modscore.parsing import FunctionDef, parse

from gen_programs import runnable_program, structured_function


def fn_of(src: str):
    return parse(src).functions[0]


def test_straight_line_is_a_chain_of_statements():
    # one node per statement plus the exit, one edge between neighbours
    g = build_cfg(fn_of("def f():\n    a = 1\n    b = 2\n    c = 3\n"))
    assert graph_counts(g) == (3, 4, 1)


def test_if_else_with_join_is_a_diamond():
    src = "def f(x):\n    if x:\n        a = 1\n    else:\n        a = 2\n    return a\n"
    g = build_cfg(fn_of(src))
    # if, two arms, return, exit; the arms join at the return
    assert graph_counts(g) == (5, 5, 1)


def test_while_break_inside_if_matches_decision_oracle():
    src = (
        "def f(x):\n"
        "    while x > 0:\n"
        "        if x == 3:\n"
        "            break\n"
        "        x -= 1\n"
        "    return x\n"
    )
    fn = fn_of(src)
    assert cc_from_cfg(build_cfg(fn)) == cc_decision_points(fn)


@pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+")
@pytest.mark.parametrize("count_short_circuit", [True, False])
def test_except_star_matches_decision_oracle(count_short_circuit):
    src = (
        "def f(x):\n"
        "    try:\n"
        "        x = 1 / x\n"
        "    except* ZeroDivisionError:\n"
        "        x = 0\n"
        "    except* (TypeError, ValueError):\n"
        "        x = -1 if x and x > 0 else -2\n"
        "    else:\n"
        "        x += 1\n"
        "    finally:\n"
        "        print(x)\n"
        "    return x\n"
    )
    fn = parse(src).functions[0]
    assert (cc_from_cfg(build_cfg(fn, count_short_circuit))
            == cc_decision_points(fn, count_short_circuit))


def test_graph_counts_single_block():
    g = build_cfg(fn_of("def f():\n    pass\n"))
    assert graph_counts(g) == (1, 2, 1)


def test_dead_code_is_a_separate_component():
    src = "def f(x):\n    return x\n    y = 1\n"
    g = build_cfg(fn_of(src))
    _, _, p = graph_counts(g)
    assert p == 2


def test_every_edge_endpoint_is_a_node():
    src = "def f(x):\n    for i in range(x):\n        if i % 2:\n            continue\n    return i\n"
    g = build_cfg(fn_of(src))
    nodes = set(g.nodes)
    assert g.entry in nodes
    assert set(g.exits) <= nodes
    assert all(a in nodes and b in nodes for a, b in g.edges)


def test_no_duplicate_edges():
    src = "def f(x):\n    while x:\n        x -= 1\n    return x\n"
    g = build_cfg(fn_of(src))
    assert len(g.edges) == len(set(g.edges))


def test_nested_function_body_excluded():
    src = (
        "def f(x):\n"
        "    def helper(y):\n"
        "        if y:\n"
        "            return 1\n"
        "        return 0\n"
        "    return helper(x)\n"
    )
    fn = fn_of(src)
    assert cc_from_cfg(build_cfg(fn)) == 1


def test_deterministic_construction():
    src = structured_function(7)
    fn1 = parse(src).functions[0]
    fn2 = parse(src).functions[0]
    g1, g2 = build_cfg(fn1), build_cfg(fn2)
    assert g1.nodes == g2.nodes
    assert g1.edges == g2.edges
    assert g1.entry == g2.entry and g1.exits == g2.exits


def test_toplevel_script_graph():
    unit = parse("x = 1\nif x:\n    print(x)\n")
    g = build_cfg(unit.toplevel)
    assert cc_from_cfg(g) == 2


def test_unsupported_construct_names_the_kind():
    from modscore.cfg import _Builder

    class Bogus(ast.stmt):
        _fields = ()

    builder = _Builder(True)
    with pytest.raises(UnsupportedConstruct) as err:
        builder.stmt(Bogus(), [])
    assert "Bogus" in str(err.value)


@pytest.mark.parametrize("jump", [ast.Break, ast.Continue])
def test_loop_jump_outside_any_loop_is_refused(jump):
    # parse rejects such a body, so the definition is built by hand
    fn = FunctionDef("f", "f", ast.Module(body=[jump()], type_ignores=[]))
    with pytest.raises(UnsupportedConstruct) as err:
        build_cfg(fn)
    assert err.value.kind == jump.__name__


# Statement kinds the generators never emit. On reachable code the graph
# route and the decision-point route agree.
ROUTES_AGREE_CASES = {
    "match-with-catchall-and-guards": (
        "def f(p, q):\n"
        "    match p:\n"
        "        case 0 if q or p:\n"
        "            x = 1\n"
        "        case [a, *_] if a:\n"
        "            x = 2\n"
        "        case {'k': b}:\n"
        "            x = b if q else 3\n"
        "        case _:\n"
        "            x = 4\n"
        "    return x\n"
    ),
    "match-without-catchall": (
        "def f(p):\n"
        "    x = 0\n"
        "    match p and p[0]:\n"
        "        case 1 | 2:\n"
        "            x = 1\n"
        "        case str() if len(p) > 1:\n"
        "            return 2\n"
        "        case _ if p:\n"
        "            x = 3\n"
        "    return x\n"
    ),
    "match-capture-catchall-with-guard-then-catchall": (
        "def f(p):\n"
        "    match p:\n"
        "        case y if y:\n"
        "            return y\n"
        "        case _:\n"
        "            return 0\n"
    ),
    "with": (
        "def f(a, b):\n"
        "    with open(a if b else 'x') as h, g(b or a) as k[a and 0]:\n"
        "        if h:\n"
        "            return k\n"
        "    return 0\n"
    ),
    "async-with": (
        "async def f(a, b):\n"
        "    async with a or b as c:\n"
        "        if c:\n"
        "            return 1\n"
        "    return 2\n"
    ),
    "class-with-decisions-in-bases-keywords-decorators": (
        "def f(a, b):\n"
        "    @deco(a or b)\n"
        "    class C(A if a else B, metaclass=M if b else type):\n"
        "        xs = [i for i in a if i]\n"
        "        if b:\n"
        "            y = 1\n"
        "    return C\n"
    ),
    "while-else": (
        "def f(x):\n"
        "    while x > 0 and x != 7:\n"
        "        if x == 3:\n"
        "            break\n"
        "        x -= 1\n"
        "    else:\n"
        "        x = -1 if x else -2\n"
        "    return x\n"
    ),
    "for-else": (
        "def f(xs):\n"
        "    for x in xs or ():\n"
        "        if x:\n"
        "            continue\n"
        "        print(x)\n"
        "    else:\n"
        "        if xs:\n"
        "            return 1\n"
        "    return 0\n"
    ),
    "return-through-finally": (
        "def f(x):\n"
        "    try:\n"
        "        if x:\n"
        "            return 1\n"
        "        x += 1\n"
        "    finally:\n"
        "        print(x)\n"
        "    return x\n"
    ),
    "break-and-continue-through-finally": (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        try:\n"
        "            if x:\n"
        "                break\n"
        "            if x is None:\n"
        "                continue\n"
        "        finally:\n"
        "            print(x)\n"
        "    return 0\n"
    ),
    "jumps-through-nested-finally": (
        "def f(xs):\n"
        "    while xs:\n"
        "        try:\n"
        "            try:\n"
        "                if xs[0]:\n"
        "                    return xs\n"
        "                break\n"
        "            finally:\n"
        "                xs = xs[1:]\n"
        "        except IndexError:\n"
        "            continue\n"
        "        finally:\n"
        "            print(xs)\n"
        "    return None\n"
    ),
    "raise-in-try": (
        "def f(x):\n"
        "    try:\n"
        "        if x:\n"
        "            raise ValueError(x or 1) from None\n"
        "    except ValueError:\n"
        "        return 0\n"
        "    except (TypeError, KeyError) if x else OSError:\n"
        "        return 2\n"
        "    return 1\n"
    ),
    "async-for": (
        "async def f(xs):\n"
        "    async for x in xs:\n"
        "        if x:\n"
        "            break\n"
        "    else:\n"
        "        return 0\n"
        "    return 1\n"
    ),
    "lambda": (
        "def f(xs):\n"
        "    key = lambda v, w=(xs or 1): v if v > 0 else -v\n"
        "    return sorted(xs, key=lambda v: v and key(v) or 0)\n"
    ),
    "assert-delete-annotated-assign": (
        "def f(a, b):\n"
        "    assert a or b, 'x' if a else 'y'\n"
        "    c: int = a and b\n"
        "    del a[b or 0]\n"
        "    return c\n"
    ),
}


@pytest.mark.parametrize("count_short_circuit", [True, False])
@pytest.mark.parametrize("case", ROUTES_AGREE_CASES)
def test_graph_route_agrees_with_decision_points(case, count_short_circuit):
    fn = fn_of(ROUTES_AGREE_CASES[case])
    g = build_cfg(fn, count_short_circuit)
    assert graph_counts(g)[2] == 1
    assert len(g.edges) == len(set(g.edges))
    assert cc_from_cfg(g) == cc_decision_points(fn, count_short_circuit)


# Dead code is a component of its own in the graph, which counts only the
# decisions whose arms do not rejoin; the decision-point route counts every
# construct. (graph counts, graph CC, decision-point CC)
DEAD_CODE_CASES = {
    # the dead `if` returns into the region's own exit, the dead `while`
    # breaks out: no arm of either rejoins
    "return-then-if-and-while": (
        "def f(x):\n"
        "    return 1\n"
        "    if x:\n"
        "        return 2\n"
        "    while x:\n"
        "        break\n",
        (5, 7, 2), 2, 3,
    ),
    # both ways out of the loop return, so the tail is dead; the graph
    # counts the dead statement's component
    "for-else-returns-leaving-a-dead-tail": (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            return 1\n"
        "    else:\n"
        "        return 0\n"
        "    x = 2\n",
        (6, 6, 2), 4, 3,
    ),
    # a break in a dead region inside a loop leaves to the region's own
    # exit, not the loop's; here the dead `if`'s arms rejoin after all
    "break-in-a-dead-region-of-a-loop": (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        continue\n"
        "        if x:\n"
        "            break\n"
        "        x = 1\n"
        "    return 0\n",
        (7, 8, 2), 3, 3,
    ),
    # a return in a dead region inside a try goes to the region's own
    # exit, not to the pending finally
    "return-in-a-dead-region-of-a-try-finally": (
        "def f():\n"
        "    try:\n"
        "        return 1\n"
        "        return 2\n"
        "    finally:\n"
        "        x = 0\n",
        (5, 7, 2), 2, 1,
    ),
    # a loop in a dead region: its continue goes to its own header, its
    # return passes the loop to the region's exit
    "loop-in-a-dead-region": (
        "def f(xs):\n"
        "    return 0\n"
        "    for x in xs:\n"
        "        if x:\n"
        "            continue\n"
        "        return x\n",
        (6, 7, 2), 3, 3,
    ),
    # a dead region inside a finally, after the finally's own return
    "dead-region-inside-a-finally": (
        "def f():\n"
        "    try:\n"
        "        x = 1\n"
        "    finally:\n"
        "        return x\n"
        "        x = 2\n",
        (4, 6, 2), 2, 1,
    ),
}


@pytest.mark.parametrize("case", DEAD_CODE_CASES)
def test_dead_code_counts_are_pinned(case):
    src, counts, graph_cc, decision_cc = DEAD_CODE_CASES[case]
    fn = fn_of(src)
    g = build_cfg(fn)
    assert graph_counts(g) == counts
    assert len(g.edges) == len(set(g.edges))
    assert cc_from_cfg(g) == graph_cc
    assert cc_decision_points(fn) == decision_cc


@pytest.mark.parametrize("seed", range(200))
def test_reachability_property(seed):
    """Each node reachable from entry, or in a dead component of its own."""
    src = structured_function(seed)
    g = build_cfg(parse(src).functions[0])
    assert len(g.edges) == len(set(g.edges))
    succ, pred = {}, {}
    for a, b in g.edges:
        succ.setdefault(a, []).append(b)
        pred.setdefault(b, []).append(a)

    def closure(starts, table):
        seen = set(starts)
        todo = list(starts)
        while todo:
            for nxt in table.get(todo.pop(), []):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    from_entry = closure([g.entry], succ)
    _, _, p = graph_counts(g)
    if p == 1:
        assert from_entry == set(g.nodes)
    else:
        assert from_entry < set(g.nodes)
    # within the entry component every node also lies on a path to an exit
    to_exit = closure([e for e in g.exits if e in from_entry], pred)
    assert from_entry <= to_exit


# -- expression decisions: one pass against a full walk ------------------------


def reference_expr_decisions(root, count_boolops: bool) -> int:
    """The counter before it skipped leaves: every node under root."""
    count = 0
    for node in ast.walk(root):
        if isinstance(node, ast.IfExp):
            count += 1
        elif isinstance(node, ast.BoolOp) and count_boolops:
            count += len(node.values) - 1
        elif isinstance(node, ast.comprehension):
            count += len(node.ifs)
    return count


def assert_expr_counts_match(src: str):
    """Every expression of the program, with and without short-circuit
    operators counted."""
    exprs = [n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.expr)]
    for flag in (True, False):
        got = [_count_expr_decisions(e, flag) for e in exprs]
        assert got == [reference_expr_decisions(e, flag) for e in exprs], flag


EXPR_EDGE_CASES = {
    "dict_unpacking": "x = {**d, 'k': a or b, (g if h else i): 1, **(e if c else f)}\n",
    "lambda_defaults": "g = lambda a=(p or q), *, b=(r if s else t): a and b\n",
    "nested_comprehension_ifs": (
        "xs = [[y for y in row if y if y > 1] for row in rows if row or alt]\n"
        "d = {k: v for k, v in items if k for _ in (v and w) if v}\n"
        "s = {a for a in (b for b in c if b) if a}\n"
    ),
    "walrus": "if (n := (a or b)) and (m := c if d else e):\n    pass\n",
    "f_strings": "s = f\"{a or b!r:>{w if w else 3}} {[i for i in x if i]}\"\n",
    "match_guards": (
        "match p:\n"
        "    case {'k': [1, *rest]} if rest and (a or b):\n"
        "        pass\n"
        "    case Point(x=0) if (c if d else e):\n"
        "        pass\n"
    ),
    "subscripts_slices_calls": (
        "y = f(*a, **{'k': b or c})[i if j else k : m and n : -1].attr\n"
        "z = not (a < b < (c or d)) + -e\n"
    ),
    "await_yield": (
        "async def h():\n"
        "    await (a or b)\n"
        "    yield (c if d else e)\n"
        "def g():\n"
        "    yield from (x for x in y if x or z)\n"
    ),
}


@pytest.mark.parametrize("name", sorted(EXPR_EDGE_CASES))
def test_expr_decisions_match_full_walk_on_edge_cases(name):
    assert_expr_counts_match(EXPR_EDGE_CASES[name])


@pytest.mark.parametrize("seed", range(0, 200, 4))
def test_expr_decisions_match_full_walk_on_generated_programs(seed):
    assert_expr_counts_match(structured_function(seed))
    assert_expr_counts_match(runnable_program(seed)[0])


def test_expr_children_cover_every_expression_kind():
    assert set(ast.expr.__subclasses__()) <= set(_EXPR_CHILDREN)
