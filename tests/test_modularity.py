import pytest
from hypothesis import given, strategies as st

from modscore.errors import EmptyInput, InvalidThreshold
from modscore.modularity import (
    categorize_solutions,
    ideal_modules,
    modularity_score,
    score_unit,
)
from modscore.parsing import parse


def test_ideal_modules_floor():
    assert ideal_modules(12, 5) == 2
    assert ideal_modules(4, 5) == 0
    assert ideal_modules(25, 5) == 5


def test_ideal_modules_rejects_bad_tau():
    with pytest.raises(InvalidThreshold):
        ideal_modules(10, 0)


def test_negative_counts_rejected():
    with pytest.raises(InvalidThreshold, match="^cc_total must be >= 0, got -1$"):
        ideal_modules(-1, 5)
    with pytest.raises(InvalidThreshold, match="^n and m_star must be non-negative$"):
        modularity_score(-1, 0)


def test_score_three_cases():
    assert modularity_score(0, 0) == 0
    assert modularity_score(3, 0) == 1
    assert modularity_score(1, 4) == 0.25
    assert modularity_score(9, 4) == 1


def test_singular_snippet_scores_zero():
    src = (
        "n = int(input())\n"
        "t = 0\n"
        "for i in range(n):\n"
        "    if i % 2:\n"
        "        t += i\n"
        "    if i % 3:\n"
        "        t -= 1\n"
        "    if i % 5:\n"
        "        t += 2\n"
        "print(t)\n"
    )
    report = score_unit(parse(src))
    assert report.complexity.cc_total >= 5
    assert report.n == 0
    assert report.mos == 0


def test_figure_style_pairs(fixtures_dir):
    for name, expected in (("mc", 1.0), ("sc", 0.0), ("tmc", 1.0), ("tsc", 0.0)):
        text = (fixtures_dir / "figure_style" / f"{name}.py").read_text()
        report = score_unit(parse(text), tau=5)
        assert report.mos == expected, name


def test_hand_built_half_score():
    # one function with ten decision points by hand (CC 11), toplevel 1:
    # cc_total 12, m* = 2, n = 1
    src = (
        "def busy(x):\n"
        "    if x > 0 and x < 50:\n"   # if + and = 2
        "        x += 1\n"
        "    if x % 2 or x % 3:\n"     # if + or = 2
        "        x -= 1\n"
        "    for i in range(3):\n"     # 1
        "        while x > 40:\n"      # 1
        "            x -= 2\n"
        "    y = 1 if x else 0\n"      # 1
        "    if x > 10:\n"             # 1
        "        y += 1\n"
        "    elif x > 5:\n"            # 1
        "        y += 2\n"
        "    try:\n"
        "        y = 10 // x\n"
        "    except ZeroDivisionError:\n"  # 1
        "        y = 0\n"
        "    return y\n"
        "print(busy(int(input())))\n"
    )
    report = score_unit(parse(src), tau=5)
    assert report.complexity.cc_total == 12
    assert report.m_star == 2
    assert report.n == 1
    assert report.mos == 0.5


def test_categorize_basic():
    sources = [
        "n = int(input())\nt = 0\nfor i in range(n):\n    if i % 2:\n        t += i\n    if i % 3:\n        t += 1\n    if t > 99:\n        t = 0\nprint(t)\n",
        "def h(x):\n    return x\n\ndef g(x):\n    if x:\n        return h(x)\n    return 0\n\nprint(g(int(input())))\n",
    ]
    reports = [score_unit(parse(s)) for s in sources]
    assert [r.mos for r in reports] == [0.0, 1.0]
    picks = categorize_solutions(reports)
    assert picks.mc_index == 1
    assert picks.sc_index == 0


def test_categorize_all_zero_has_no_mc():
    sources = ["print(1)\n", "x = 1\nprint(x)\n"]
    picks = categorize_solutions([score_unit(parse(s)) for s in sources])
    assert picks.mc_index is None
    assert picks.sc_index == 0  # shortest zero-score solution


def test_categorize_tie_break_fewest_lines():
    longer = "def a(x):\n    return x\n\n\n\n\nprint(a(1))\n"
    shorter = "def b(x):\n    return x\nprint(b(1))\n"
    reports = [score_unit(parse(s)) for s in (longer, shorter)]
    assert reports[0].mos == reports[1].mos == 1.0
    assert categorize_solutions(reports).mc_index == 1


def test_categorize_empty_raises():
    with pytest.raises(EmptyInput):
        categorize_solutions([])


def test_categorize_mixed_taus_raises():
    reports = [score_unit(parse("print(1)\n"), tau=tau) for tau in (5, 6)]
    with pytest.raises(InvalidThreshold, match=r"^solutions scored with different taus: \[5, 6\]"):
        categorize_solutions(reports)


@given(st.integers(0, 500), st.integers(0, 500))
def test_score_bounded(n, m_star):
    assert 0.0 <= modularity_score(n, m_star) <= 1.0


@given(st.integers(1, 100), st.integers(0, 200))
def test_score_monotone_in_n(m_star, n):
    a = modularity_score(n, m_star)
    b = modularity_score(n + 1, m_star)
    assert b >= a
    if n >= m_star:
        assert a == 1.0


@given(st.integers(0, 400))
def test_m_star_antitone_in_tau(cc_total):
    assert ideal_modules(cc_total, 10) <= ideal_modules(cc_total, 5)


def test_score_unit_tau_monotonicity(fixtures_dir):
    text = (fixtures_dir / "figure_style" / "mc.py").read_text()
    unit = parse(text)
    assert score_unit(unit, tau=10).m_star <= score_unit(unit, tau=5).m_star


def test_exhaustive_three_case_definition():
    for n in range(51):
        for m_star in range(51):
            got = modularity_score(n, m_star)
            if m_star > 0:
                assert got == min(1, n / m_star)
            elif n == 0:
                assert got == 0
            else:
                assert got == 1
