import ast
import json
import re
import subprocess
import sys

import pytest

from modscore.corpus import TestCase, load_corpus
from modscore.errors import (
    DynamicCallUnsupported,
    ExternalNameCollision,
    RecursionUnsupported,
    TransformUnsupported,
)
from modscore.inliner import (
    _FreshNames,
    _identifiers,
    _splice_one,
    singularize,
    verify_equivalence,
)
from modscore.modularity import score_unit
from modscore.parsing import parse
from modscore.sandbox import _in_zygotes, run_program

from gen_programs import runnable_program


def run(src: str, stdin: bytes = b"") -> tuple[bytes, int]:
    proc = subprocess.run(
        [sys.executable, "-c", src], input=stdin, capture_output=True, timeout=10
    )
    return proc.stdout, proc.returncode


def assert_same_behavior(src: str, stdin: bytes = b""):
    out = singularize(parse(src))
    assert out.function_count == 0
    before = run(src, stdin)
    after = run(out.text, stdin)
    assert before == after
    return out


# -- singularize: rejected call graphs ---------------------------------------


def test_self_recursion_rejected():
    src = "def f(x):\n    if x:\n        return f(x - 1)\n    return 0\nprint(f(3))\n"
    with pytest.raises(RecursionUnsupported):
        singularize(parse(src))


def test_mutual_recursion_rejected():
    src = (
        "def even(n):\n    if n == 0:\n        return True\n    return odd(n - 1)\n"
        "def odd(n):\n    if n == 0:\n        return False\n    return even(n - 1)\n"
        "print(even(4))\n"
    )
    with pytest.raises(RecursionUnsupported):
        singularize(parse(src))


def test_higher_order_use_rejected():
    src = "def f(x):\n    return x\nprint(list(map(f, [1, 2])))\n"
    with pytest.raises(DynamicCallUnsupported):
        singularize(parse(src))


def test_rebinding_rejected():
    src = "def f(x):\n    return x\nf = 3\nprint(f)\n"
    with pytest.raises(DynamicCallUnsupported):
        singularize(parse(src))


def test_shadowing_parameter_rejected():
    src = "def f(x):\n    return x\ndef g(f):\n    return f\nprint(g(f(1)))\n"
    with pytest.raises(DynamicCallUnsupported):
        singularize(parse(src))


def test_nested_called_outside_scope_rejected():
    src = (
        "def outer():\n"
        "    def inner(k):\n"
        "        return k\n"
        "    return 1\n"
        "print(inner(2))\n"
    )
    with pytest.raises(DynamicCallUnsupported):
        singularize(parse(src))


def test_free_name_capture_rejected():
    src = (
        "limit = 10\n"
        "def clamp(x):\n"
        "    if x > limit:\n"
        "        return limit\n"
        "    return x\n"
        "def use(limit):\n"
        "    return clamp(limit + 5)\n"
        "print(use(20))\n"
    )
    with pytest.raises(ExternalNameCollision):
        singularize(parse(src))


# Each unit is helpers, a caller, then print, and binds or reads a name
# through a match capture, a class, a comprehension, a lambda, a walrus or
# a nested def's default. The flat form must print what the original
# prints, or the unit must be refused; the controls must not be refused.
BINDING_CASES = {
    "list-capture-vs-caller-name": (
        "def f(p):\n    match p:\n        case [a, b]:\n            return a + b\n"
        "    return 0\na = 10\nprint(f([1, 2]), a)\n"
    ),
    "star-capture-vs-caller-name": (
        "def f(p):\n    match p:\n        case [*r]:\n            return len(r)\n"
        "    return 0\nr = 10\nprint(f([1, 2]), r)\n"
    ),
    "rest-capture-vs-caller-name": (
        "def f(p):\n    match p:\n        case {**rest}:\n            return len(rest)\n"
        "    return 0\nrest = 10\nprint(f({1: 2}), rest)\n"
    ),
    "capture-rebinds-helper": (
        "def f(x):\n    return x + 1\nmatch 5:\n    case f:\n        pass\nprint(f(1))\n"
    ),
    "comprehension-target-named-like-global": (
        "x = 7\ndef h(r):\n    return [x for x in r] + [x]\nprint(h([1, 2]))\n"
    ),
    "capture-hides-global-read-by-callee": (
        "x = 1\ndef g():\n    return x\ndef f(p):\n    match p:\n        case x:\n"
        "            pass\n    return g()\nprint(f(5))\n"
    ),
    "class-rebinds-helper": (
        "def f(x):\n    return x + 1\nclass f:\n    pass\nprint(f(1))\n"
    ),
    "comprehension-target-named-like-global-vs-caller-local": (
        "x = 7\ndef h(r):\n    return [x for x in r] + [x]\n"
        "def main():\n    x = 3\n    print(h([1]), x)\nmain()\n"
    ),
    "comprehension-iterates-global-of-its-target-name": (
        "x = [1, 2]\ndef h():\n    return [x for x in x]\n"
        "def main():\n    x = [9]\n    print(h(), x)\nmain()\n"
    ),
    "walrus-in-lambda-vs-global": (
        "y = 4\ndef h(r):\n    g = lambda: (y := r)\n    return g() + y\nprint(h(1), y)\n"
    ),
    "nested-def-default-reads-global-vs-caller-local": (
        "x = 1\ndef f():\n    def g(a=x):\n        return a\n    return g()\n"
        "def main():\n    x = 5\n    print(f(), x)\nmain()\n"
    ),
    "control-comprehension-target-vs-caller-local": (
        "def h(r):\n    return sum(i for i in r)\n"
        "def main():\n    i = 5\n    print(h([1, 2]), i)\nmain()\n"
    ),
    "control-lambda-parameter-vs-global": (
        "x = 5\ndef h(y):\n    g = lambda x: x * 2\n    return g(y) + x\nprint(h(3))\n"
    ),
    "control-walrus-in-helper": (
        "def h(r):\n    if (n := len(r)) > 1:\n        return n\n    return 0\n"
        "n = 10\nprint(h([1, 2, 3]), n)\n"
    ),
}


@pytest.mark.parametrize("case", BINDING_CASES)
def test_name_bindings_keep_their_scope(case, fast_limits):
    src = BINDING_CASES[case]
    try:
        flat = singularize(parse(src)).text
    except (DynamicCallUnsupported, ExternalNameCollision):
        assert not case.startswith("control")
        return
    before, after = _in_zygotes(
        lambda code: run_program(code, b"", fast_limits), [src, flat], jobs=1
    )
    assert (after.verdict, after.stdout) == (before.verdict, before.stdout)


# Each unit reads names by name at run time, through a builtin that sees
# the scope it runs in: in a helper, spliced, it would see renamed names
# and the caller's; at the top level, the inlined temps and no removed
# definitions. The flat form must print what the original prints, or the
# unit must be refused; the controls must not be refused.
DYNAMIC_READ_CASES = {
    "eval-reads-parameter-named-like-global": (
        'a = 100\ndef f(a):\n    return eval("a * 2")\nprint(f(3))\n'
    ),
    "locals-lists-helper-locals": (
        "def f(a):\n    b = 1\n    return sorted(locals())\nprint(f(3))\n"
    ),
    "exec-reads-parameter-named-like-global": (
        'def f(a):\n    exec("print(a)")\n    return a\na = 9\nprint(f(1))\n'
    ),
    "globals-listed-in-helper": (
        "def f():\n    y = 1\n    return [k for k in globals() if k[0] != '_']\nprint(f())\n"
    ),
    "bare-vars-lists-helper-locals": (
        "def f(a):\n    return sorted(vars())\nprint(f(1))\n"
    ),
    "bare-dir-lists-helper-locals": "def f(a):\n    return dir()\nprint(f(1))\n",
    "top-level-globals-lists-inlined-temps": (
        "def f(a):\n    return a\nprint(f(1))\n"
        "print(sorted(k for k in globals() if k[0] != '_'))\n"
    ),
    "top-level-eval-calls-removed-helper": (
        'def f(a):\n    return a * 2\nprint(eval("f(5)"))\n'
    ),
    "top-level-bare-vars-lists-inlined-temps": (
        "def f(a):\n    return a\nx = f(1)\nprint(sorted(vars()))\n"
    ),
    "control-top-level-vars-of-an-object": (
        "import types\ndef f(a):\n    return a\nx = f(1)\n"
        "print(sorted(vars(types.SimpleNamespace(y=x))))\n"
    ),
    "control-vars-of-an-object": (
        "import types\ndef f(o):\n    return sorted(vars(o))\n"
        "print(f(types.SimpleNamespace(x=1)))\n"
    ),
    "control-helper-named-eval": (
        "def eval(x):\n    return x * 2\ndef g(y):\n    return eval(y)\nprint(g(2))\n"
    ),
}


@pytest.mark.parametrize("case", DYNAMIC_READ_CASES)
def test_dynamic_name_reads_keep_their_output(case, fast_limits):
    src = DYNAMIC_READ_CASES[case]
    try:
        flat = singularize(parse(src)).text
    except TransformUnsupported as exc:
        assert not case.startswith("control")
        assert "reads names dynamically" in str(exc)
        return
    before, after = _in_zygotes(
        lambda code: run_program(code, b"", fast_limits), [src, flat], jobs=1
    )
    assert (after.verdict, after.stdout) == (before.verdict, before.stdout)


# Each unit holds an expression that Python evaluates only in some cases:
# an annotation in a function scope never, an except clause's type only
# when an exception propagates. The flat form must print what the
# original prints, or the unit must be refused; the refused ones must be.
DEFERRED_EVALUATION_CASES = {
    "local-annotation-calls-helper": (
        "def g():\n    print('g ran')\n    return int\n"
        "def f():\n    x: g() = 5\n    return x\nprint(f())\n"
    ),
    "local-annotation-calls-helper-defined-later": (
        "def f():\n    x: g() = 5\n    return x\nprint(f())\n"
        "def g():\n    return int\n"
    ),
    "local-annotation-names-undefined": (
        "def f():\n    x: Undefined = 5\n    return x\nprint(f())\n"
    ),
    "refused-bare-local-annotation": (
        "def f():\n    x: Undefined\n    x = 1\n    return x\nprint(f())\n"
    ),
    "refused-helper-call-in-except-type": (
        "def exc_type():\n    return ValueError\n"
        "try:\n    int('x')\nexcept exc_type():\n    print('caught')\n"
    ),
}


@pytest.mark.parametrize("case", DEFERRED_EVALUATION_CASES)
def test_deferred_evaluation_keeps_its_output(case, fast_limits):
    src = DEFERRED_EVALUATION_CASES[case]
    try:
        flat = singularize(parse(src)).text
    except TransformUnsupported:
        assert case.startswith("refused")
        return
    assert not case.startswith("refused")
    before, after = _in_zygotes(
        lambda code: run_program(code, b"", fast_limits), [src, flat], jobs=1
    )
    assert (after.verdict, after.stdout) == (before.verdict, before.stdout)


# -- singularize: behavior preservation ---------------------------------------


def test_single_call_single_return():
    out = assert_same_behavior("def d(x):\n    return x * 2\n\nprint(d(21))\n")
    assert "__inl" in out.text


def test_three_call_sites_duplicate_body():
    src = "def sq(v):\n    return v * v\n\nprint(sq(2))\nprint(sq(3))\nprint(sq(4))\n"
    out = assert_same_behavior(src)
    assert out.text.count("*") >= 3  # body duplicated per site


def test_early_returns_in_loop():
    src = (
        "def find(xs, t):\n"
        "    for i, x in enumerate(xs):\n"
        "        if x == t:\n"
        "            return i\n"
        "    return -1\n"
        "print(find([4, 5, 6], 5))\n"
        "print(find([4, 5, 6], 9))\n"
    )
    assert_same_behavior(src)


def test_mutable_default_shared_across_calls():
    src = (
        "def push(v, box=[]):\n"
        "    box.append(v)\n"
        "    return len(box)\n"
        "print(push(1))\n"
        "print(push(2))\n"
        "print(push(3))\n"
    )
    assert_same_behavior(src)


def test_argument_side_effects_once_in_order():
    src = "def pair(a, b):\n    return a + ':' + b\n\nprint(pair(input(), input()))\n"
    assert_same_behavior(src, b"first\nsecond\n")


def test_keyword_arguments_written_order():
    src = (
        "def tag(prefix, value):\n"
        "    return prefix + str(value)\n"
        "print(tag(value=input(), prefix=input()))\n"
    )
    assert_same_behavior(src, b"VAL\nPRE\n")


def test_nested_call_chain():
    src = (
        "def g(x):\n    return x + 1\n"
        "def f(x):\n    return g(x) * 2\n"
        "print(f(g(3)))\n"
    )
    assert_same_behavior(src)


def test_call_in_if_and_for_headers():
    src = (
        "def h(x):\n    return x + 1\n"
        "if h(3) > 2:\n"
        "    print('big')\n"
        "for v in range(h(1)):\n"
        "    print(v)\n"
    )
    assert_same_behavior(src)


def test_idempotent_on_singular_unit():
    src = "n = int(input())\nprint(n * 2)\n"
    unit = parse(src)
    assert singularize(unit) is unit


REWRITTEN_IN_PLACE = (
    # hoisted defaults, a hoisted nested call, early returns, a global
    "def f(x, acc=[], *, k=len('ab')):\n"
    "    global total\n"
    "    for i in range(x):\n"
    "        if i > k:\n"
    "            return acc\n"
    "        acc.append(i)\n"
    "    return acc\n"
    "def g(y):\n    return f(y) + f(y + 1)\n"
    "total = 0\nprint(g(f(2)[0] + 3))\n"
)


@pytest.mark.parametrize("src", [REWRITTEN_IN_PLACE, runnable_program(3)[0]])
def test_singularize_leaves_its_input_untouched(src):
    unit = parse(src)
    before = ast.dump(unit.tree, include_attributes=True)
    functions = [(f.node, f.qualname) for f in unit.functions]
    first = singularize(unit)
    assert ast.dump(unit.tree, include_attributes=True) == before
    assert [(f.node, f.qualname) for f in unit.functions] == functions
    assert singularize(unit).text == first.text


def test_helper_spliced_at_two_sites_gets_independent_copies():
    tree = ast.parse("def sq(v):\n    w = [v, -v]\n    return w[0] * w[1]\na = sq(2)\nb = sq(3)\n")
    helper, site_a, site_b = tree.body
    before = ast.dump(helper, include_attributes=True)
    fresh = _FreshNames(_identifiers(tree)[0])
    first = _splice_one(site_a, site_a.value, helper, fresh, {}, False)
    second = _splice_one(site_b, site_b.value, helper, fresh, {}, False)

    def owned(stmts):
        # nodes with fields; contexts and operators are shared singletons
        return {id(n) for s in stmts for n in ast.walk(s) if n._fields}

    assert not owned(first) & owned(second)
    assert not owned(helper.body) & (owned(first) | owned(second))
    assert ast.dump(helper, include_attributes=True) == before
    assert ast.unparse(ast.Module(first, [])) != ast.unparse(ast.Module(second, []))


def test_modularity_collapses_to_zero(fixtures_dir):
    text = (fixtures_dir / "figure_style" / "tmc.py").read_text()
    unit = parse(text)
    assert score_unit(unit).mos == 1.0
    transformed = singularize(unit)
    after = score_unit(transformed)
    assert after.n == 0
    assert after.mos == 0.0


def test_output_header_documents_suffix():
    out = singularize(parse("def d(x):\n    return x\nprint(d(1))\n"))
    first = out.text.splitlines()[0]
    assert first.startswith("#") and "__inl" in first


_FRESH_NAME = re.compile(r"\b\w*?__inl\d+(?:__inl\d+)*\b")


def renumbered(text: str) -> str:
    """Each distinct fresh identifier becomes <base>__inl<k>, k counting
    distinct identifiers in order of first appearance."""
    seen: dict[str, str] = {}

    def rename(match):
        name = match.group(0)
        return seen.setdefault(name, f"{name.split('__inl')[0]}__inl{len(seen)}")

    return _FRESH_NAME.sub(rename, text)


def test_output_matches_golden_up_to_fresh_numbering(fixtures_dir):
    # singularize_golden.json holds the renumbered output of every solution
    # of the corpus; the numbering of fresh names is not part of the contract
    golden = json.loads((fixtures_dir / "singularize_golden.json").read_text())
    got = {}
    for problem in load_corpus(fixtures_dir / "singularize_corpus.jsonl"):
        for i, solution in enumerate(problem.solutions):
            got[f"{problem.id}[{i}]"] = renumbered(singularize(parse(solution)).text)
    assert got == golden


# -- singularize: loud rejections --------------------------------------------


def test_generator_rejected():
    src = "def gen(n):\n    yield n\nfor v in gen(3):\n    print(v)\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_decorated_function_rejected():
    src = (
        "import functools\n"
        "@functools.lru_cache\n"
        "def f(x):\n    return x\n"
        "print(f(1))\n"
    )
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_star_args_rejected():
    src = "def f(*xs):\n    return sum(xs)\nprint(f(1, 2))\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_class_with_methods_rejected():
    src = (
        "class Box:\n"
        "    def get(self):\n"
        "        return 1\n"
        "b = Box()\n"
        "print(b.get())\n"
    )
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_call_in_while_test_rejected():
    src = "def more(x):\n    return x > 0\nn = 3\nwhile more(n):\n    n -= 1\nprint(n)\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_call_in_comprehension_rejected():
    src = "def f(x):\n    return x\nprint([f(v) for v in range(3)])\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_hoist_past_effect_rejected():
    src = "def f(x):\n    return x\nprint(input() + f('a'))\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


@pytest.mark.parametrize("binder", [
    "try:\n    raise ValueError('boom')\nexcept ValueError as len:\n    ",
    "match 3:\n    case len:\n        ",
    "match [3]:\n    case [*len]:\n        ",
    "match {}:\n    case {**len}:\n        ",
])
def test_hoist_past_builtin_rebound_by_except_or_match_rejected(binder):
    # `len` is no longer the builtin, and calling it raises before f runs;
    # hoisting f's body ahead of it would print first
    src = "def f(x):\n    print('f ran')\n    return x\n" + binder + "y = len([1]) + f(1)\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_dotted_import_in_helper_rejected():
    # renamed, `import os.path` would bind os.path to the fresh name, not os
    src = "def h():\n    import os.path\n    return os.sep\nprint(h())\n"
    with pytest.raises(TransformUnsupported, match="without 'as'"):
        singularize(parse(src))


def test_conditional_operand_rejected():
    src = "def f(x):\n    return x\nflag = True\nprint(flag and f(1))\n"
    with pytest.raises(TransformUnsupported):
        singularize(parse(src))


def test_argument_evaluated_once_even_if_used_twice():
    # stdin holds a single line: a second evaluation would hit EOF
    src = "def twice(x):\n    return x + x\n\nprint(twice(input()))\n"
    assert_same_behavior(src, b"ab\n")


def test_global_declaration_preserved():
    src = (
        "counter = 0\n"
        "def bump(step):\n"
        "    global counter\n"
        "    counter += step\n"
        "    return counter\n"
        "print(bump(2))\n"
        "print(bump(3))\n"
        "print(counter)\n"
    )
    assert_same_behavior(src)


def test_uncalled_helper_dropped_without_splicing_its_body():
    # f never runs, so the call in it that cannot be bound does not refuse
    # the unit: f is removed whole
    src = "def g(a):\n    return a\ndef f(b):\n    return g(b, 2)\nprint(g(1))\n"
    assert_same_behavior(src)


@pytest.mark.parametrize("src", [
    # NameError as written; splicing would make it print 1
    "print(f(1))\ndef f(x):\n    return x\n",
    # the late helper is reached through the one called
    "def f():\n    return g()\nprint(f())\ndef g():\n    return 1\n",
    # a default is evaluated when its def runs
    "def f(x=g()):\n    return x\ndef g():\n    return 1\nprint(f())\n",
    # the same rule inside a function body
    "def main():\n    y = h()\n    def h():\n        return 1\n    return y\nprint(main())\n",
], ids=["direct", "through-helper", "default", "function-body"])
def test_call_before_definition_rejected(src):
    with pytest.raises(TransformUnsupported, match="before its definition"):
        singularize(parse(src))


def test_call_after_all_definitions_transformed():
    src = "def main():\n    return g()\ndef g():\n    return 1\nprint(main())\n"
    assert_same_behavior(src)


def test_uncalled_function_removed_but_default_effects_kept():
    src = (
        "def unused(x=print('def-time')):\n"
        "    return x\n"
        "print('done')\n"
    )
    assert_same_behavior(src)


# -- verify_equivalence ------------------------------------------------------


def test_verify_equivalence_identity(fast_limits, fixtures_dir):
    problems = load_corpus(fixtures_dir / "singularize_corpus.jsonl")
    problem = problems[0]
    unit = parse(problem.solutions[0])
    assert verify_equivalence(unit, unit, problem.tests, fast_limits)


def test_verify_equivalence_detects_mutation(fast_limits, fixtures_dir):
    problems = load_corpus(fixtures_dir / "singularize_corpus.jsonl")
    problem = problems[0]  # s01 doubles its input
    unit = parse(problem.solutions[0])
    broken = parse("print(int(input()) * 2 + 1)\n")
    assert not verify_equivalence(unit, broken, problem.tests, fast_limits)


def test_verify_equivalence_compares_output(fast_limits):
    tests = [TestCase(b"", b"3\n")]
    one, two = parse("print(1)\n"), parse("print(2)\n")
    assert not verify_equivalence(one, two, tests, fast_limits)
    padded = parse("print('1 ')\n")
    assert verify_equivalence(one, padded, tests, fast_limits)
    assert not verify_equivalence(one, padded, tests, fast_limits, exact=True)


def test_fixture_pair_verifies(fast_limits, fixtures_dir):
    text = (fixtures_dir / "figure_style" / "tmc.py").read_text()
    unit = parse(text)
    transformed = singularize(unit)
    problems = load_corpus(fixtures_dir / "mini_corpus.jsonl")
    p03 = next(p for p in problems if p.id == "p03")
    assert verify_equivalence(unit, transformed, p03.tests, fast_limits)


# -- adversarial control-flow shapes ------------------------------------------

CONTROL_FLOW_CASES = [
    # return inside nested loops
    "def grid_find(n, target):\n"
    "    for i in range(n):\n"
    "        for j in range(n):\n"
    "            if i * n + j == target:\n"
    "                return (i, j)\n"
    "            x = i + j\n"
    "    return (-1, -1)\n"
    "print(grid_find(4, 9))\nprint(grid_find(4, 99))\n",
    # for-else with returns in body and else arm
    "def hunt(xs):\n"
    "    for x in xs:\n"
    "        if x < 0:\n"
    "            return 'neg'\n"
    "    else:\n"
    "        return 'clean'\n"
    "print(hunt([1, 2, 3]))\nprint(hunt([1, -2, 3]))\n",
    # return inside try-finally still runs the cleanup
    "def f(x):\n"
    "    try:\n"
    "        if x > 0:\n"
    "            return 'pos'\n"
    "        return 'nonpos'\n"
    "    finally:\n"
    "        print('cleanup')\n"
    "print(f(3))\nprint(f(-3))\n",
    # while-else with return on both paths
    "def countdown(n):\n"
    "    while n > 0:\n"
    "        n -= 1\n"
    "        if n == 2:\n"
    "            return 'hit two'\n"
    "    else:\n"
    "        return 'exhausted'\n"
    "print(countdown(5))\nprint(countdown(1))\n",
    # return from an except handler inside a loop
    "def scan(xs):\n"
    "    total = 0\n"
    "    for x in xs:\n"
    "        try:\n"
    "            total += 10 // x\n"
    "        except ZeroDivisionError:\n"
    "            return -1\n"
    "    return total\n"
    "print(scan([1, 2, 5]))\nprint(scan([1, 0, 5]))\n",
    # match arms with returns, including a guarded case
    "def label(x):\n"
    "    match x:\n"
    "        case 0:\n"
    "            return 'zero'\n"
    "        case 1 if x > 0:\n"
    "            return 'one'\n"
    "        case _:\n"
    "            return 'many'\n"
    "print(label(0), label(1), label(7))\n",
    # chained remainder guards after conditional returns
    "def steps(x):\n"
    "    r = []\n"
    "    if x > 3:\n"
    "        return 'big'\n"
    "    r.append('a')\n"
    "    if x > 1:\n"
    "        return 'mid'\n"
    "    r.append('b')\n"
    "    return ','.join(r)\n"
    "print(steps(5))\nprint(steps(2))\nprint(steps(0))\n",
    # early return inside with: the context still exits first
    "import contextlib\n"
    "def f(x):\n"
    "    with contextlib.ExitStack() as stack:\n"
    "        stack.callback(print, 'exit')\n"
    "        if x:\n"
    "            return 'early'\n"
    "        print('body')\n"
    "    return 'late'\n"
    "print(f(1))\nprint(f(0))\n",
    # early returns inside try ... else
    "def parse_int(s):\n"
    "    try:\n"
    "        n = int(s)\n"
    "    except ValueError:\n"
    "        return 'bad'\n"
    "    else:\n"
    "        if n < 0:\n"
    "            return 'neg'\n"
    "        print('ok')\n"
    "    return n\n"
    "print(parse_int('x'), parse_int('-3'), parse_int('7'))\n",
    # early return inside a match arm within a loop
    "def first_pair(items):\n"
    "    for item in items:\n"
    "        match item:\n"
    "            case (a, b):\n"
    "                return a + b\n"
    "            case _:\n"
    "                print('skip', item)\n"
    "    return None\n"
    "print(first_pair([1, (2, 3), 4]))\nprint(first_pair([5]))\n",
    # early return inside try ... except*
    pytest.param(
        "def f(x):\n"
        "    try:\n"
        "        if x:\n"
        "            return 1\n"
        "    except* ValueError:\n"
        "        pass\n"
        "    return 2\n"
        "print(f(1), f(0))\n",
        marks=pytest.mark.skipif(sys.version_info < (3, 11), reason="except* is 3.11+"),
    ),
]


@pytest.mark.parametrize(
    "src", CONTROL_FLOW_CASES, ids=[str(i) for i in range(len(CONTROL_FLOW_CASES))]
)
def test_control_flow_shapes_preserved(src):
    assert_same_behavior(src)


# -- randomized semantic preservation ----------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_preserved(seed):
    src, stdin = runnable_program(seed)
    assert_same_behavior(src, stdin)
