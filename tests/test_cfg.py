import ast

import pytest

from modscore.cfg import _EXPR_CHILDREN, _count_expr_decisions, build_cfg, graph_counts
from modscore.complexity import cc_decision_points, cc_from_cfg
from modscore.errors import UnsupportedConstruct
from modscore.parsing import parse
from modscore.profiles import PY3, PY3_NO_SHORT_CIRCUIT

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

    builder = _Builder(PY3)
    with pytest.raises(UnsupportedConstruct) as err:
        builder.stmt(Bogus(), [])
    assert "Bogus" in str(err.value)


@pytest.mark.parametrize("seed", range(200))
def test_reachability_property(seed):
    """Each node reachable from entry, or in a dead component of its own."""
    src = structured_function(seed)
    g = build_cfg(parse(src).functions[0])
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
    """Every expression of the program, under both profiles."""
    exprs = [n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.expr)]
    for profile in (PY3, PY3_NO_SHORT_CIRCUIT):
        flag = profile.count_short_circuit
        got = [_count_expr_decisions(e, flag) for e in exprs]
        assert got == [reference_expr_decisions(e, flag) for e in exprs], profile.name


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
