import itertools

import pytest

from modscore.cfg import build_cfg
from modscore.complexity import cc_decision_points, cc_from_cfg, unit_complexity
from modscore.parsing import parse

from gen_programs import structured_function


def fn_of(src: str):
    return parse(src).functions[0]


def count_paths_two_predicate_and() -> int:
    """Brute-force oracle: distinct evaluation paths of `if A and B: X`."""
    paths = set()
    for a, b in itertools.product([False, True], repeat=2):
        trace = ["A"]
        if a:
            trace.append("B")
            if b:
                trace.append("X")
        paths.add(tuple(trace))
    return len(paths)


def test_no_decisions_is_one():
    assert cc_decision_points(fn_of("def f():\n    a = 1\n    return a\n")) == 1


def test_short_circuit_counts_as_path():
    # frozen from the enumeration oracle: 3 independent paths
    assert count_paths_two_predicate_and() == 3
    fn = fn_of("def f(a, b):\n    if a and b:\n        return 1\n    return 0\n")
    assert cc_decision_points(fn) == 3


def test_for_plus_except_is_three():
    src = (
        "def f(xs):\n"
        "    for x in xs:\n"
        "        pass\n"
        "    try:\n"
        "        y = 1\n"
        "    except ValueError:\n"
        "        y = 0\n"
        "    return y\n"
    )
    assert cc_decision_points(fn_of(src)) == 3


def test_short_circuit_mode_off():
    src = "def f(a, b):\n    if a and b:\n        return 1\n    return 0\n"
    fn = parse(src).functions[0]
    assert cc_decision_points(fn, count_short_circuit=False) == 2
    assert cc_from_cfg(build_cfg(fn, count_short_circuit=False)) == 2


def test_cfg_form_trivial_values():
    assert cc_from_cfg(build_cfg(fn_of("def f():\n    pass\n"))) == 1
    src = "def f(x):\n    if x:\n        a = 1\n    else:\n        a = 2\n    return a\n"
    assert cc_from_cfg(build_cfg(fn_of(src))) == 2


def test_unit_aggregation():
    src = (
        # three functions with CC 3, 5, 7 and a straight-line toplevel
        "def f3(x):\n"
        "    if x > 0:\n"
        "        x += 1\n"
        "    if x > 1:\n"
        "        x += 2\n"
        "    return x\n"
        "def f5(x):\n"
        "    for i in range(x):\n"
        "        if i % 2:\n"
        "            x += 1\n"
        "        if i % 3:\n"
        "            x += 2\n"
        "        if i % 5:\n"
        "            x += 3\n"
        "    return x\n"
        "def f7(x):\n"
        "    while x > 9:\n"
        "        x -= 1\n"
        "    if x == 1 or x == 2 or x == 3:\n"
        "        x = 0\n"
        "    if x == 4:\n"
        "        x = 1\n"
        "    elif x == 5:\n"
        "        x = 2\n"
        "    return x\n"
        "print(f3(1), f5(2), f7(3))\n"
    )
    unit = parse(src)
    report = unit_complexity(unit)
    values = sorted(report.per_function.values())
    assert values == [3, 5, 7]
    assert report.cc_total == 16
    assert report.cc_avg == 5
    assert report.function_count == 3


def test_unit_with_no_functions():
    src = (
        "x = int(input())\n"
        "if x > 0:\n    print(1)\n"
        "elif x < 0:\n    print(-1)\n"
        "elif x == 0:\n    print(0)\n"
        "else:\n    print(9)\n"
    )
    report = unit_complexity(parse(src))
    assert report.function_count == 0
    assert report.cc_avg == 0
    assert report.cc_total == 4


def test_figure_style_singular_snippet_has_no_functions(fixtures_dir):
    text = (fixtures_dir / "figure_style" / "sc.py").read_text()
    report = unit_complexity(parse(text))
    assert report.function_count == 0


def test_every_function_cc_at_least_one():
    src = structured_function(11)
    unit = parse(src)
    report = unit_complexity(unit)
    assert all(v >= 1 for v in report.per_function.values())


@pytest.mark.parametrize("seed", range(300))
def test_oracle_equivalence(seed):
    fn = parse(structured_function(seed)).functions[0]
    assert cc_from_cfg(build_cfg(fn)) == cc_decision_points(fn)


def test_monotonic_one_decision():
    base = "def f(x):\n    a = x\n{extra}    return a\n"
    plain = fn_of(base.format(extra=""))
    with_if = fn_of(base.format(extra="    if a:\n        a += 1\n"))
    assert cc_decision_points(with_if) == cc_decision_points(plain) + 1


def test_monotonic_short_circuit_adds_two():
    base = "def f(x):\n    a = x\n{extra}    return a\n"
    plain = fn_of(base.format(extra=""))
    with_and = fn_of(base.format(extra="    if a and x:\n        a += 1\n"))
    assert cc_decision_points(with_and) == cc_decision_points(plain) + 2


def test_cc_total_invariant_under_reordering():
    a = "def f(x):\n    if x:\n        return 1\n    return 0\n"
    b = "def g(x):\n    for i in range(x):\n        x += i\n    return x\n"
    top = "print(f(1) + g(2))\n"
    one = unit_complexity(parse(a + b + top))
    two = unit_complexity(parse(b + a + top))
    assert one.cc_total == two.cc_total
