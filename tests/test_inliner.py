import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from modscore.corpus import TestCase, load_corpus
from modscore.errors import (
    DynamicCallUnsupported,
    ExternalNameCollision,
    RecursionUnsupported,
    TransformUnsupported,
)
import modscore.inliner as inliner_module
from modscore.inliner import (
    _FreshNames,
    _linearize,
    _splice_one,
    _stmt_eval_parts,
    _survey,
    singularize,
)
from modscore.modularity import score_unit
from modscore.parsing import EVALUATES, parse
from modscore.sandbox import RunLimits, compare_runs, run_program, run_solution, verify_equivalence

from differential import renumbered
from gen_programs import runnable_program


LIMITS = RunLimits()


def assert_same_behavior(src: str, stdin: bytes = b""):
    """The flat form of ``src``, checked to define no function and to give
    the verdict and byte-exact stdout ``src`` gives on ``stdin``."""
    out = singularize(parse(src))
    assert out.function_count == 0
    assert compare_runs([(src, out.text, [TestCase(stdin, b"")])], LIMITS, exact=True) == [None]
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


# Units with two reasons to refuse each: the refusal raised must be the
# first in the checks' order. The checks' order is the duplicate def,
# then the call graph (a helper's name bound other than by its def,
# declared, or used other than called; a nested def called outside its
# parent; a cycle; a capture), then the scope readers and classes with
# methods, then each helper, then the rewrite walk's refusals (a call
# before its def among them) in source order. Up to the rewrite, one walk
# reads the unit, breadth first in ``ast.walk`` order, and every order is
# that walk's. Several units put the two reasons in one order by the walk
# and in the other by the text.
REFUSAL_ORDER_CASES = {
    "duplicate-def-then-eval": (
        "print(eval('1'))\ndef f():\n    return 1\ndef f():\n    return 2\nprint(f())\n",
        DynamicCallUnsupported, "function name 'f' is defined more than once"),
    "duplicate-def-walk-order": (
        "def a():\n    def b():\n        return 1\n    return b()\n"
        "def b():\n    return 2\ndef c():\n    return 3\ndef c():\n    return 4\n"
        "print(a(), b(), c())\n",
        DynamicCallUnsupported, "function name 'c' is defined more than once"),
    "class-method-then-generator": (
        "def g():\n    yield 1\nclass C:\n    def m(self):\n        return 1\n"
        "print(list(g()))\n",
        TransformUnsupported,
        "class 'C' defines method 'm'; methods are only dynamically invocable"),
    "reader-and-recursion": (
        "def f(n):\n    if n:\n        return f(n - 1)\n    return eval('0')\nprint(f(2))\n",
        RecursionUnsupported, "recursive call chain: f -> f"),
    "class-before-deeper-reader": (
        "def f():\n    return eval('1')\nclass C:\n    def m(self):\n        return 1\n"
        "print(f())\n",
        TransformUnsupported,
        "class 'C' defines method 'm'; methods are only dynamically invocable"),
    "reader-before-generator": (
        "def f():\n    yield 1\nprint(list(f()), eval('1'))\n",
        TransformUnsupported, "the unit reads names dynamically through eval() (line 3)"),
    "helpers-in-walk-order": (
        "def outer():\n    def inner():\n        yield 1\n    return list(inner())\n"
        "async def later():\n    return 1\nprint(outer())\n",
        TransformUnsupported, "'later' is an async function"),
    "rebound-builtin-annotation": (
        "def f(x: list) -> int:\n    return 1\nlist = 3\nprint(f(1))\n",
        TransformUnsupported,
        "'f' has an annotation that is neither a constant nor a builtin name (line 1)"),
    # one statement calls two later defs: the first name in sorted order
    # is named, whichever call is met first
    "calls-before-two-later-defs": (
        "print(a(), b())\ndef a():\n    return 1\ndef b():\n    return 2\n",
        TransformUnsupported, "'a' is called before its definition runs"),
    "later-def-reached-through-callee": (
        "def a():\n    return b()\nprint(a())\ndef b():\n    return 2\n",
        TransformUnsupported, "'b' is called before its definition runs"),
    "two-cycles": (
        "def b():\n    return c()\ndef c():\n    return b()\ndef a():\n    return a()\n"
        "print(a(), b())\n",
        RecursionUnsupported, "recursive call chain: a -> a"),
    "call-into-cycle-before-later-def": (
        "def a():\n    return b()\ndef b():\n    return c()\ndef c():\n    return b()\n"
        "print(a(), d())\ndef d():\n    return 1\n",
        RecursionUnsupported, "recursive call chain: b -> c -> b"),
    "nested-called-outside-and-cycle": (
        "def f():\n    def inner():\n        return 1\n    return inner()\n"
        "def r():\n    return r()\nprint(f(), inner(), r())\n",
        DynamicCallUnsupported, "'inner' is called outside the scope that defines it"),
    # the rebinding is nearer the top of the tree than the value use
    "nested-value-use-then-top-level-rebinding": (
        "def f():\n    return 1\ndef g():\n    return [f]\nf = 2\nprint(g())\n",
        DynamicCallUnsupported, "function name 'f' is rebound by Name (line 5)"),
    "nested-value-use-then-shallower-one": (
        "def a():\n    return 1\ndef b():\n    return 2\n"
        "def c(n):\n    if n:\n        return [a]\n    return 0\nprint(b, c(1))\n",
        DynamicCallUnsupported, "function 'b' is used as a value, not called"),
    # the call before its def is met only by the rewrite, after the readers
    "call-before-def-then-eval": (
        "print(late())\ndef late():\n    return 1\nprint(eval('2'))\n",
        TransformUnsupported, "the unit reads names dynamically through eval() (line 4)"),
    "capture-through-callee-before-later-def": (
        "def h():\n    return z\ndef g():\n    return h()\ndef f():\n    z = 1\n    return g()\n"
        "z = 5\nprint(f(), late())\ndef late():\n    return 1\n",
        ExternalNameCollision, "inlining 'g' would capture 'z' bound in 'f'"),
}


@pytest.mark.parametrize("case", sorted(REFUSAL_ORDER_CASES))
def test_first_refusal_in_check_order_is_raised(case):
    src, error, message = REFUSAL_ORDER_CASES[case]
    with pytest.raises(error) as raised:
        singularize(parse(src))
    assert type(raised.value) is error
    assert str(raised.value) == message


# One reason to refuse each, with the class and message it is refused with.
REFUSAL_CASES = {
    "nonlocal-in-nested-helper": (
        "def outer():\n    v = 1\n    def bump():\n        nonlocal v\n        v += 1\n"
        "    return v\nprint(outer())\n",
        TransformUnsupported, "'bump' declares nonlocal"),
    "class-in-helper-body": (
        "def f():\n    class K:\n        x = 1\n    return K.x\nprint(f())\n",
        TransformUnsupported, "'f' defines class 'K' in its body"),
    "helper-call-in-class-body": (
        "def f():\n    return 1\nclass K:\n    x = f()\nprint(K.x)\n",
        TransformUnsupported, "call to a unit function inside a class body"),
    "global-names-helper": (
        "def f():\n    return 1\ndef g():\n    global f\n    return f()\nprint(g())\n",
        DynamicCallUnsupported, "global/nonlocal declaration of function name 'f'"),
    "nonlocal-names-helper": (
        "def g():\n    def f():\n        return 1\n    def h():\n        nonlocal f\n"
        "        return f()\n    return h()\nprint(g())\n",
        DynamicCallUnsupported, "global/nonlocal declaration of function name 'f'"),
    "star-unpacking": (
        "def f(a, b):\n    return a + b\nargs = [1, 2]\nprint(f(*args))\n",
        TransformUnsupported, "call to 'f' uses *unpacking (line 4)"),
    "double-star-unpacking": (
        "def f(a, b):\n    return a + b\nkw = {'a': 1, 'b': 2}\nx = f(**kw)\nprint(x)\n",
        TransformUnsupported, "call to 'f' uses **unpacking (line 4)"),
    "too-many-positional-arguments": (
        "def f(a, b):\n    return a + b\nprint(f(1, 2, 3))\n",
        TransformUnsupported, "call to 'f' passes too many positional arguments"),
    "unknown-keyword": (
        "def f(a, b):\n    return a + b\nprint(f(1, c=2))\n",
        TransformUnsupported, "call to 'f': bad keyword argument 'c'"),
    "keyword-for-a-bound-parameter": (
        "def f(a, b):\n    return a + b\nprint(f(1, a=2))\n",
        TransformUnsupported, "call to 'f': bad keyword argument 'a'"),
    "missing-argument": (
        "def f(a, b):\n    return a + b\nprint(f(1))\n",
        TransformUnsupported, "call to 'f': missing argument 'b'"),
    # the default runs where the def stands, before the def binds 'f'
    "default-calls-its-own-def": (
        "def f(x=f()):\n    return x\nprint(f())\n",
        TransformUnsupported, "'f' is called before its definition runs"),
    # a closure over a helper local outlives the next pass of the loop,
    # which rebinds the spliced local: flat, every closure would read the
    # last pass's value
    "lambda-over-helper-local-in-for": (
        "def f(a):\n    return lambda: a\nfs = []\nfor i in range(3):\n    fs.append(f(i))\n"
        "print([g() for g in fs])\n",
        TransformUnsupported,
        "'f' is called in a loop, and a lambda or generator in it reads its local 'a' (line 2)"),
    "generator-over-helper-local-in-while": (
        "def f(a):\n    return (a + j for j in range(2))\ngs = []\ni = 0\n"
        "while i < 3:\n    gs.append(f(i))\n    i += 1\nprint([list(g) for g in gs])\n",
        TransformUnsupported,
        "'f' is called in a loop, and a lambda or generator in it reads its local 'a' (line 2)"),
    # a flattened caller holds its callee's closure
    "closure-through-callee-in-loop": (
        "def f(a):\n    return lambda: a\ndef g(b):\n    return f(b + 1)\nfs = []\n"
        "for i in range(3):\n    fs.append(g(i))\nprint([h() for h in fs])\n",
        TransformUnsupported,
        "'g' is called in a loop, and a lambda or generator in it reads its local 'a__inl0' "
        "(line 2)"),
    # a false positive: the key runs within the call, before the next pass
    "sort-key-over-helper-local-in-loop": (
        "def f(xs, a):\n    return sorted(xs, key=lambda i: a[i])\n"
        "for k in range(2):\n    print(f([0, 1, 2], [3, k, 2]))\n",
        TransformUnsupported,
        "'f' is called in a loop, and a lambda or generator in it reads its local 'a' (line 2)"),
    # a lambda's default runs in the helper, so the helper is the generator
    "lambda-default-yields-in-helper": (
        "def f():\n    g = lambda x=(yield): x\n    return 1\nprint(f())\n",
        TransformUnsupported, "'f' is a generator function"),
    # the *args name is the helper's local, so the caller's 'a' is not captured
    "star-args-read-in-helper": (
        "def f(*a):\n    return a\ndef g(a):\n    return f(1)\nprint(g(2))\n",
        TransformUnsupported, "'f' takes *args/**kwargs"),
    # a def nested in a block below the call has not run yet either
    "call-before-def-in-a-later-block": (
        "print(f(1))\nif True:\n    def f(x):\n        return x\n",
        TransformUnsupported, "'f' is called before its definition runs"),
    "call-before-def-in-a-later-block-caught": (
        "try:\n    print(f(1))\nexcept NameError:\n    print('ne')\n"
        "if True:\n    def f(x):\n        return x + 1\nprint(f(2))\n",
        TransformUnsupported, "'f' is called before its definition runs"),
    # a def in a compound statement's block may not have run by a call
    # outside that block: each of the first two raises NameError as written
    "def-in-an-if-block-that-does-not-run": (
        "if False:\n    def f(x):\n        return x\nprint(f(1))\n",
        TransformUnsupported, "'f' is defined in a block that may not run (line 2)"),
    "def-in-a-try-body-after-a-raise": (
        "try:\n    1 / 0\n    def f(x):\n        return x\nexcept ZeroDivisionError:\n"
        "    pass\nprint(f(1))\n",
        TransformUnsupported, "'f' is defined in a block that may not run (line 3)"),
    "def-in-an-earlier-if-block": (
        "if True:\n    def f(x):\n        return x + 1\nprint(f(2))\n",
        TransformUnsupported, "'f' is defined in a block that may not run (line 2)"),
    # a call in a helper's body runs where the helper is spliced: the
    # second call of 'h' stands outside the block of 'f'
    "def-in-a-block-reached-through-a-helper-outside-it": (
        "def h():\n    return f(1)\nif True:\n    def f(x):\n        return x + 1\n"
        "    print(h())\nprint(h())\n",
        TransformUnsupported, "'f' is defined in a block that may not run (line 4)"),
    "nested-def-in-a-block-reached-through-a-helper-outside-it": (
        "def g(c):\n    def h():\n        return f()\n    if c:\n        def f():\n"
        "            return 1\n        print(h())\n    return h()\nprint(g(1))\n",
        TransformUnsupported, "'f' is defined in a block that may not run (line 5)"),
}


@pytest.mark.parametrize("case", REFUSAL_CASES)
def test_refusal_names_its_reason(case):
    src, error, message = REFUSAL_CASES[case]
    with pytest.raises(error) as raised:
        singularize(parse(src))
    assert type(raised.value) is error
    assert str(raised.value) == message


@pytest.mark.parametrize("src", [
    "def f():\n    await g()\n",
    "def f():\n    return [await x for x in y]\n",
    "def f():\n    return lambda: await g()\n",
    "async def f():\n    return lambda: await g()\n",
])
def test_await_outside_an_async_def_never_parses(src):
    # so a helper that is not async never awaits, and an async one is
    # refused as such
    with pytest.raises(SyntaxError):
        parse(src)


def test_first_refusal_does_not_depend_on_the_hash_seed():
    # four captures, then four nested defs called outside their parents:
    # the first helper in walk order is named under every hash seed
    units = [
        "".join(f"c{k} = 1\ndef r{k}():\n    return c{k}\n"
                f"def w{k}():\n    c{k} = 2\n    return r{k}()\nprint(w{k}())\n"
                for k in range(4)),
        "".join(f"def p{k}():\n    def q{k}():\n        return 1\n    return q{k}()\n"
                f"print(p{k}(), q{k}())\n" for k in range(4)),
    ]
    script = (
        "import json, sys\nfrom modscore.inliner import singularize\n"
        "from modscore.parsing import parse\n"
        "for src in json.loads(sys.argv[1]):\n"
        "    try:\n        singularize(parse(src))\n"
        "    except Exception as e:\n        print(type(e).__name__, e)\n"
    )
    src_dir = str(Path(inliner_module.__file__).resolve().parent.parent)
    seen = {
        subprocess.run(
            [sys.executable, "-c", script, json.dumps(units)], capture_output=True,
            text=True, timeout=30, check=True,
            env={**os.environ, "PYTHONPATH": src_dir, "PYTHONHASHSEED": str(seed)},
        ).stdout
        for seed in range(6)
    }
    assert seen == {
        "ExternalNameCollision inlining 'r0' would capture 'c0' bound in 'w0'\n"
        "DynamicCallUnsupported 'q0' is called outside the scope that defines it\n"
    }


def test_helper_scope_taken_once_however_many_call_sites(monkeypatch):
    # the unit's survey gives every scope as written, and each helper is
    # surveyed once more when flattened; never per call site
    seen = []
    survey = inliner_module._survey

    def counted(root):
        seen.append(getattr(root, "name", "<module>"))
        return survey(root)

    monkeypatch.setattr(inliner_module, "_survey", counted)
    src = "def sq(v):\n    w = v * v\n    return w\n"
    src += "".join(f"a{i} = sq({i})\n" for i in range(6)) + "print(a1 + a5)\n"
    out = assert_same_behavior(src)
    assert out.text.count("w__inl") >= 6
    assert seen == ["<module>", "sq"]


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
def test_name_bindings_keep_their_scope(case):
    try:
        assert_same_behavior(BINDING_CASES[case])
    except (DynamicCallUnsupported, ExternalNameCollision):
        assert not case.startswith("control")


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
def test_dynamic_name_reads_keep_their_output(case):
    try:
        assert_same_behavior(DYNAMIC_READ_CASES[case])
    except TransformUnsupported as exc:
        assert not case.startswith("control")
        assert "reads names dynamically" in str(exc)


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
    # only a called helper's body can refuse the unit
    "bare-local-annotation-in-an-uncalled-helper": (
        "def dead():\n    x: int\n    return 1\ndef f():\n    return 2\nprint(f())\n"
    ),
    # the annotation is not read, so it is no use of 'g' as a value
    "local-annotation-names-a-helper": (
        "def g():\n    return 1\ndef f():\n    x: g = 5\n    return x\nprint(f())\n"
    ),
    "refused-helper-call-in-except-type": (
        "def exc_type():\n    return ValueError\n"
        "try:\n    int('x')\nexcept exc_type():\n    print('caught')\n"
    ),
    # the lambda is the generator, not the helper
    "helper-lambda-body-yields": "def f():\n    g = lambda: (yield)\n    return 1\nprint(f())\n",
    # a lambda's body runs when the lambda is called, not with its
    # statement, so a body spliced ahead of the statement may pass it
    "lambda-body-before-a-hoisted-call": (
        "def f():\n    return 1\nx = (lambda: print(2), f())\nprint(x[1])\n"
    ),
    # the key reads a helper local, but the helper is spliced in no loop
    "sort-key-over-helper-local": (
        "def f(xs, a):\n    return sorted(xs, key=lambda i: a[i])\n"
        "print(f([0, 1, 2], [3, 1, 2]))\n"
    ),
    # spliced in a loop's else, which runs once
    "closure-over-helper-local-in-loop-else": (
        "def f(a):\n    return lambda: a\nfs = []\nfor i in range(3):\n    pass\n"
        "else:\n    fs.append(f(i))\nprint([g() for g in fs])\n"
    ),
}


def assert_flat_keeps_output(case: str, src: str):
    """The flat form of ``src`` prints what ``src`` prints, or ``src`` is
    refused; it is refused exactly when ``case`` starts with "refused"."""
    try:
        assert_same_behavior(src)
    except TransformUnsupported:
        assert case.startswith("refused")
        return
    assert not case.startswith("refused")


@pytest.mark.parametrize("case", DEFERRED_EVALUATION_CASES)
def test_deferred_evaluation_keeps_its_output(case):
    assert_flat_keeps_output(case, DEFERRED_EVALUATION_CASES[case])


# Each unit calls a helper, or names something, where a statement
# evaluates it: a class's decorators run before its bases, an annotated
# target is evaluated like any other, and a helper's annotations run when
# its def does (unless annotations are deferred, so a helper keeps only
# annotations that can neither fail nor act). A module-level annotation
# is deferred under ``from __future__ import annotations``.
STATEMENT_EVALUATION_CASES = {
    "class-decorator-runs-before-base": (
        "def f():\n    print('f')\n    return lambda c: c\n"
        "def g():\n    print('g')\n    return object\n"
        "@f()\nclass C(g()):\n    pass\nprint(C.__name__)\n"
    ),
    "annotated-subscript-target-calls-helper": (
        "a = [0]\ndef f():\n    print('f')\n    return 0\na[f()]: int = 5\nprint(a)\n"
    ),
    "bare-annotated-subscript-target-calls-helper": (
        "a = [0]\ndef f():\n    print('f')\n    return 0\na[f()]: int\nprint(a)\n"
    ),
    "refused-helper-annotation-names-undefined": (
        "def f(x: Undefined) -> int:\n    return x\nprint(f(1))\n"
    ),
    "refused-helper-annotation-names-later-binding": (
        "def f(x: T):\n    return x\nT = int\nprint(f(1))\n"
    ),
    "refused-module-annotation-calls-helper-under-future-import": (
        "from __future__ import annotations\n"
        "def f():\n    print('f')\n    return int\nx: f() = 5\nprint(x)\n"
    ),
    "control-helper-annotations-are-builtins": (
        "def f(x: int, y: 'str' = 'b') -> int:\n    return x\nprint(f(1))\n"
    ),
}


@pytest.mark.parametrize("case", STATEMENT_EVALUATION_CASES)
def test_statement_evaluation_keeps_its_output(case):
    assert_flat_keeps_output(case, STATEMENT_EVALUATION_CASES[case])


# Each unit calls helpers that print their names inside one expression:
# spliced ahead of it, the calls must run in the order CPython runs them,
# a dict display's key before its value and a ``**`` unpacking in place.
EXPRESSION_EVALUATION_CASES = {
    "dict-display-key-value-pairs": (
        "def a():\n    print('a')\n    return 1\ndef b():\n    print('b')\n    return 2\n"
        "def c():\n    print('c')\n    return 3\ndef d():\n    print('d')\n    return 4\n"
        "x = {a(): b(), c(): d()}\nprint(x)\n"
    ),
    "dict-display-unpacking-before-key": (
        "def a():\n    print('a')\n    return 1\ndef b():\n    print('b')\n    return 2\n"
        "x = {**{a(): 0}, b(): 1}\nprint(x)\n"
    ),
}


@pytest.mark.parametrize("case", EXPRESSION_EVALUATION_CASES)
def test_expression_evaluation_keeps_its_output(case):
    assert_flat_keeps_output(case, EXPRESSION_EVALUATION_CASES[case])


def test_missed_call_site_refused_not_left_calling_a_removed_def(monkeypatch):
    # with the target out of the table the call in it is never spliced,
    # and its def is removed all the same
    monkeypatch.setitem(EVALUATES, ast.AnnAssign, (("value", "plain"), ("annotation", "deferred")))
    src = STATEMENT_EVALUATION_CASES["annotated-subscript-target-calls-helper"]
    with pytest.raises(TransformUnsupported, match="^internal: the output still names 'f'"):
        singularize(parse(src))


# Each statement's or expression's evaluated slots hold ``log(i, value)``
# calls, numbered in source order. The order in which ``_linearize`` meets
# them must be the order CPython runs them.
EVALUATION_ORDER_CASES = {
    "assign": (ast.Assign, "a[log(0, 0)] = a[log(1, 1)] = log(2, 5)\n"),
    "augmented-assign": (ast.AugAssign, "a[log(0, 0)] += log(1, 1)\n"),
    "annotated-assign": (ast.AnnAssign, "a[log(0, 0)]: log(1, int) = log(2, 5)\n"),
    "bare-annotation": (ast.AnnAssign, "a[log(0, 0)]: log(1, int)\n"),
    "for": (ast.For, "for a[log(0, 0)] in log(1, [7]):\n    pass\n"),
    "async-for": (ast.AsyncFor, (
        "async def items():\n    yield 7\n"
        "async def main():\n    async for a[log(0, 0)] in log(1, items()):\n        pass\n"
    )),
    "with": (ast.With, (
        "from contextlib import nullcontext\n"
        "with log(0, nullcontext()) as a[log(1, 0)], log(2, nullcontext()):\n    pass\n"
    )),
    "raise": (ast.Raise, "raise log(0, ValueError) from log(1, None)\n"),
    "assert": (ast.Assert, "assert log(0, False), log(1, 'why')\n"),
    "try": (ast.Try, (
        "try:\n    raise KeyError\n"
        "except log(0, ValueError):\n    pass\nexcept log(1, KeyError):\n    pass\n"
    )),
    "match": (ast.Match, "match log(0, 1):\n    case 1 if log(1, True):\n        pass\n"),
    "class": (ast.ClassDef, (
        "@log(0, lambda c: c)\n@log(1, lambda c: c)\n"
        "class C(log(2, object), metaclass=log(3, type)):\n    pass\n"
    )),
    "bool-op": (ast.BoolOp, "log(0, 1) and log(1, 2) and log(2, 3)\n"),
    "bin-op": (ast.BinOp, "log(0, 1) + log(1, 2)\n"),
    "lambda": (ast.Lambda, "lambda x=log(0, 1), *, y=log(1, 2): x\n"),
    "if-exp": (ast.IfExp, "log(0, 'body') if log(1, True) else 'orelse'\n"),
    "dict-display": (ast.Dict, "{log(0, 'k'): log(1, 1), **log(2, {}), log(3, 'j'): log(4, 2)}\n"),
    "dict-unpacking-first": (ast.Dict, "{**log(0, {}), log(1, 'k'): log(2, 1)}\n"),
    "set": (ast.Set, "{log(0, 1), *log(1, []), log(2, 2)}\n"),
    "list-comp": (ast.ListComp, (
        "[log(0, x) for x in log(1, [1]) if log(2, True) for y in log(3, [1])]\n"
    )),
    "set-comp": (ast.SetComp, "{log(0, x) for x in log(1, [1]) if log(2, True)}\n"),
    "dict-comp": (ast.DictComp, "{log(0, x): log(1, x) for x in log(2, [1]) if log(3, True)}\n"),
    "generator": (ast.GeneratorExp, "list(log(0, x) for x in log(1, [1]) if log(2, True))\n"),
    "compare": (ast.Compare, "log(0, 1) < log(1, 2) < log(2, 3)\n"),
    "call": (ast.Call, "log(0, dict)(log(1, [(1, 2)]), *log(2, []), k=log(3, 0), **log(4, {}))\n"),
    "call-keyword-before-star": (ast.Call, "log(0, dict)(k=log(1, 0), *log(2, [[]]))\n"),
    "f-string": (ast.JoinedStr, "f'{log(0, 1)}-{log(1, 2)!r:>{log(2, 5)}}'\n"),
    "formatted-value": (ast.FormattedValue, "f'{log(0, 1):{log(1, 5)}}'\n"),
    "subscript": (ast.Subscript, "log(0, a)[log(1, 0)]\n"),
    "slice": (ast.Slice, "a[log(0, 0):log(1, 1):log(2, 1)]\n"),
    "list": (ast.List, "[log(0, 1), *log(1, []), log(2, 2)]\n"),
    "tuple": (ast.Tuple, "log(0, 1), *log(1, []), log(2, 2)\n"),
}


def run_logged(src: str) -> list[int]:
    """The ``i`` of each ``log(i, value)`` call, in the order ``src`` runs them;
    a coroutine ``main``, if ``src`` defines one, is run to its end."""
    ran: list[int] = []

    def log(i, value=None):
        ran.append(i)
        return value

    namespace = {"log": log, "a": [0, 0]}
    try:
        exec(compile(src, "<case>", "exec"), namespace)
        if "main" in namespace:
            namespace["main"]().send(None)
    except (StopIteration, ValueError, AssertionError):
        pass
    return ran


@pytest.mark.parametrize("case", EVALUATION_ORDER_CASES)
def test_linearized_order_is_cpython_order(case):
    kind, src = EVALUATION_ORDER_CASES[case]
    node = next(n for n in ast.walk(ast.parse(src)) if type(n) is kind)
    events: list = []
    for part, ctx in _stmt_eval_parts(node) if kind in EVALUATES else [(node, "plain")]:
        _linearize(part, ctx, [], events)
    linearized = [e.node.args[0].value for e in events
                  if type(e.node) is ast.Call and getattr(e.node.func, "id", None) == "log"]
    ran = run_logged(src)
    assert len(ran) == len(set(ran)) > 1
    assert linearized == ran


def test_order_cases_cover_every_statement_with_two_slots():
    with_two = {kind for kind, slots in EVALUATES.items() if len(slots) > 1}
    assert with_two <= {kind for kind, _ in EVALUATION_ORDER_CASES.values()}


def evaluated_slots(kind) -> int:
    """How many sub-expressions a node of an expression type can evaluate,
    read from the ASDL signature in its docstring (``Call(expr func, expr*
    args, keyword* keywords)``): a list field or a lambda's ``arguments``
    counts as two."""
    fields = re.findall(r"(\w+)([*?]?) \w+", kind.__doc__.partition("(")[2])
    return sum(2 if mark == "*" or typ == "arguments" else 1 for typ, mark in fields
               if typ in ("expr", "keyword", "comprehension", "arguments"))


def test_order_cases_cover_every_expression_with_two_slots():
    # a walrus stores its target after its value: it evaluates one
    with_two = {kind for kind in ast.expr.__subclasses__()
                if evaluated_slots(kind) > 1} - {ast.NamedExpr}
    assert ast.Call in with_two and ast.Attribute not in with_two
    assert with_two <= {kind for kind, _ in EVALUATION_ORDER_CASES.values()}


# statements that evaluate nothing themselves: the rewrite turns a def's
# defaults into assignments to temps, and a decorated def is refused
EVALUATES_NOTHING = {
    ast.FunctionDef, ast.AsyncFunctionDef, ast.Import, ast.ImportFrom,
    ast.Global, ast.Nonlocal, ast.Pass, ast.Break, ast.Continue,
}


def test_every_statement_type_is_in_the_table_or_evaluates_nothing():
    kinds = set(ast.stmt.__subclasses__())
    assert set(EVALUATES) == kinds
    assert {kind for kind, slots in EVALUATES.items() if not slots} == EVALUATES_NOTHING


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
    # hoisted defaults, nested calls, early returns, a global
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
    fresh = _FreshNames(_survey(tree).names)
    scope = _survey(helper).scopes["sq"]
    first, first_result = _splice_one(site_a.value, helper, scope, fresh, {}, False)
    second, second_result = _splice_one(site_b.value, helper, scope, fresh, {}, False)

    def owned(stmts):
        # nodes with fields; contexts and operators are shared singletons
        return {id(n) for s in stmts for n in ast.walk(s) if n._fields}

    assert not owned(first) & owned(second)
    assert not owned(helper.body) & (owned(first) | owned(second))
    assert ast.dump(helper, include_attributes=True) == before
    assert ast.unparse(ast.Module(first, [])) != ast.unparse(ast.Module(second, []))
    # each result reads the variable its own copy assigns last
    assert [ast.unparse(first[-1].targets[0]), ast.unparse(second[-1].targets[0])] == [
        first_result.id, second_result.id]
    assert first_result.id != second_result.id


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


# A helper's body, spliced ahead of the statement that calls it, may move
# ahead of constants and of names no ``global`` statement declares; it is
# refused ahead of anything else evaluated before the call: another call
# (builtin or not), a name some ``global`` statement declares, a walrus,
# or a context manager's ``__enter__``.
HOIST_CASES = {
    "refused-global-read-before-call": (
        "x = 0\ndef f():\n    global x\n    x = 10\n    return 1\nprint(x, f())\n"
    ),
    "refused-global-augmented-target": (
        "x = 0\ndef f():\n    global x\n    x = 10\n    return 1\nx += f()\nprint(x)\n"
    ),
    "refused-builtin-call-before-call": (
        "a = [0]\ndef f():\n    a.append(1)\n    return 1\nprint(len(a), f())\n"
    ),
    "refused-builtin-call-before-a-call-with-an-effect-inside": (
        "a = [0]\ndef k(v):\n    return v\ndef f():\n    a.append(1)\n    return 1\n"
        "print(len(a), k(len(a)), f())\n"
    ),
    "refused-context-entered-before-call": (
        "import contextlib, io\nbuf = io.StringIO()\ncm = contextlib.redirect_stdout(buf)\n"
        "def f():\n    print('f')\n    return contextlib.nullcontext()\n"
        "with cm, f():\n    pass\nprint(repr(buf.getvalue()))\n"
    ),
    "refused-call-of-a-lambda-before-call": (
        "a = [0]\ndef f():\n    a.append(1)\n    return 1\n"
        "print(list(map(lambda v: v, a)), f())\n"
    ),
    # a generator's elements may run with no call: ``in``, ``*`` or a comprehension
    "refused-generator-consumed-by-in-before-call": (
        "def f():\n    print('f')\n    return 1\n"
        "x = (2 in (print(c) for c in 'ab'), f())\nprint(x[1])\n"
    ),
    "refused-generator-unpacked-before-call": (
        "def f():\n    print('f')\n    return 1\nprint(*(print(c) for c in 'ab'), f())\n"
    ),
    "refused-generator-iterated-by-a-comprehension-before-call": (
        "def f():\n    print('f')\n    return 1\n"
        "x = ([y for y in (print(c) for c in 'ab')], f())\nprint(x[1])\n"
    ),
    "control-argument-read-before-call": (
        "def solve(n):\n    return n * 2\nn = 4\nprint(n, solve(n))\n"
    ),
    "control-method-call-around-call": (
        "def flip(w):\n    return w[::-1]\nout = []\n"
        "for w in ['ab', 'cd']:\n    out.append(flip(w))\nprint(out)\n"
    ),
    "control-augmented-target-not-declared-global": (
        "def f(i):\n    return i * i\ntotal = 0\n"
        "for i in range(4):\n    total += f(i)\nprint(total)\n"
    ),
    "control-global-read-after-call": (
        "hits = 0\nx = 5\ndef f(v):\n    global hits\n    hits += 1\n    return v\n"
        "print(x, f(1), hits)\n"
    ),
    "control-walrus-target-is-a-store": (
        "def f(v):\n    global x\n    x = 0\n    return v + 1\n"
        "y = (x := f(1))\nprint(x, y)\n"
    ),
}


@pytest.mark.parametrize("case", HOIST_CASES)
def test_hoist_keeps_output_or_is_refused(case):
    assert_flat_keeps_output(case, HOIST_CASES[case])


# Each unit calls a helper whose def stands in a compound statement's
# block, from that block or a block nested in it, after the def: the def
# has run by then, also when the call is in the body of a helper spliced
# there (the shape of a script's ``if __name__ == '__main__':`` block).
BLOCK_DEF_CASES = {
    "nested-def-in-a-block-of-its-parent": (
        "def g(c):\n    if c:\n        def f():\n            return 1\n        return f()\n"
        "    return 0\nprint(g(1))\n"
    ),
    "def-reached-through-a-helper-in-its-block": (
        "if len('ab') == 2:\n    def get(x):\n        return x * 2\n"
        "    def update():\n        print(get(3))\n    update()\n    update()\n"
    ),
    "def-reached-through-two-helpers-in-a-nested-block": (
        "def k():\n    return h() + 1\ndef h():\n    return f(1)\n"
        "for i in range(3):\n    def f(x):\n        return x + i\n"
        "    if i:\n        print(k())\n"
    ),
}


@pytest.mark.parametrize("case", BLOCK_DEF_CASES)
def test_def_in_a_block_is_spliced_where_it_has_run(case):
    assert_same_behavior(BLOCK_DEF_CASES[case])


def test_every_helper_call_of_a_statement_is_spliced_in_evaluation_order():
    # an assignment's value runs before its target, the value's inner call first
    src = (
        "def f(a):\n    print('f')\n    return a\n"
        "def g(b=0):\n    print('g')\n    return 0\n"
        "y = [0]\ny[g()] = f(5)\ny[g(0)] = f(f(0))\nprint(y)\n"
    )
    out = assert_same_behavior(src)
    printed = TestCase(b"", b"f\ng\nf\nf\ng\n[0]\n")
    assert run_solution(out.text, printed, LIMITS, exact=True).verdict == "pass"


def test_the_behaviour_check_tells_apart_outputs_with_one_verdict(monkeypatch):
    # with an assignment's targets run before its value, the flat form
    # prints in another order and exits 0 as its original does
    monkeypatch.setitem(EVALUATES, ast.Assign, (("targets", "plain"), ("value", "plain")))
    src = ("def f(a):\n    print('f')\n    return a\ndef g():\n    print('g')\n    return 0\n"
           "y = [0]\ny[g()] = f(5)\nprint(y)\n")
    flat = singularize(parse(src)).text
    [(index, before, after)] = compare_runs([(src, flat, [TestCase(b"", b"")])], LIMITS,
                                            exact=True)
    assert (index, before.verdict, after.verdict) == (0, "wrong_output", "wrong_output")
    assert (before.stdout, after.stdout) == (b"f\ng\n[5]\n", b"g\nf\n[5]\n")


def test_a_call_inside_a_statement_reads_the_helpers_result_with_no_temp():
    out = singularize(parse("def f(a):\n    return a + 1\nprint(f(1))\n"))
    assert "tmp__inl" not in out.text
    assert re.fullmatch(r"print\(f_ret__inl\d+\)", out.text.splitlines()[-1])


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


def test_uncalled_def_in_a_block_refuses_nothing():
    # only a splice of a helper defined in a block is refused
    src = "if False:\n    def g():\n        return 2\ndef f():\n    return 1\nprint(f())\n"
    assert_same_behavior(src)


def test_uncalled_function_removed_but_default_effects_kept():
    src = (
        "def unused(x=print('def-time')):\n"
        "    return x\n"
        "def used(y):\n"
        "    return y + 1\n"
        "print('done', used(1))\n"
    )
    out = assert_same_behavior(src)
    assert "def-time" in out.text


def test_each_statement_is_rewritten_once(monkeypatch):
    # the helper holds a loop and an if and is spliced three times; the
    # rewrite visits each statement of the source and each default temp
    # once, never a spliced copy
    seen = []
    inline_stmt = inliner_module._inline_stmt

    def counted(unit, stmt, ctx):
        seen.append(stmt)
        return inline_stmt(unit, stmt, ctx)

    monkeypatch.setattr(inliner_module, "_inline_stmt", counted)
    src = (
        "def f(n, k=2):\n    t = 0\n    for i in range(n):\n        if i % k:\n"
        "            t += i\n        else:\n            t -= 1\n    return t\n"
        "a = f(3)\nb = f(4, 3)\nprint(a, b, f(5))\n"
    )
    assert_same_behavior(src)
    statements = [n for n in ast.walk(ast.parse(src)) if isinstance(n, ast.stmt)]
    assert len(seen) == len(statements) + 1  # one default temp, for k
    assert sum(type(s) is ast.AugAssign for s in seen) == 2


def test_dead_helper_is_dropped_unrewritten():
    # dead's body alone would refuse the unit (a call in a ternary arm),
    # but nothing calls it, so it goes unrewritten next to a called helper
    src = (
        "def f(a):\n    return a * 2\n"
        "def dead(c):\n    return f(1) if c else 0\n"
        "print(f(int(input())))\n"
    )
    assert_same_behavior(src, b"4\n")


@pytest.mark.parametrize("src", [
    "def helper(x):\n    return x + 1\ndef solution(n):\n    return helper(n) * 2\n",
    "def main():\n    print('hi')\nif False:\n    print('never')\n",
], ids=["call-based", "entry-never-called"])
def test_unit_whose_defs_no_top_level_call_reaches_is_refused(src):
    # flat, it would keep none of its functions' code
    with pytest.raises(TransformUnsupported, match="^no function is called at the top level$"):
        singularize(parse(src))


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
    "def f(x):\n"
    "    try:\n"
    "        if x:\n"
    "            return 1\n"
    "    except* ValueError:\n"
    "        pass\n"
    "    return 2\n"
    "print(f(1), f(0))\n",
]


@pytest.mark.parametrize(
    "src", CONTROL_FLOW_CASES, ids=[str(i) for i in range(len(CONTROL_FLOW_CASES))]
)
def test_control_flow_shapes_preserved(src):
    assert_same_behavior(src)


# Each unit returns where Python skips what would follow: a try's else
# after a body that returned, or a pending exception or return that a
# jump out of a finally block drops. Per case: the source, what it
# prints, and the refusal message when the done flag cannot express the
# jump (or a keyword binds a positional-only parameter). A unit that is
# not refused must print the same flat.
RETURN_SKIP_CASES = {
    "try-else-after-body-returned": (
        "def f(x):\n    try:\n        if x > 0:\n            return 1\n"
        "    except ValueError:\n        pass\n    else:\n        print('else ran')\n"
        "    return 2\nprint(f(5))\nprint(f(0))\n",
        "1\nelse ran\n2\n", None),
    "try-else-after-body-returned-in-loop": (
        "def f(xs):\n    for x in xs:\n        try:\n            if x > 0:\n"
        "                return x\n        except ValueError:\n            pass\n"
        "        else:\n            print('else ran')\n    return 0\n"
        "print(f([0, 5]))\nprint(f([]))\n",
        "else ran\n5\n0\n", None),
    "try-except-else-finally-body-returns": (
        "def f(x):\n    try:\n        if x > 0:\n            return 10 // (x - 1)\n"
        "        print('body done')\n    except ZeroDivisionError:\n        return -1\n"
        "    else:\n        print('else ran')\n    finally:\n        print('finally ran')\n"
        "    return 0\nprint(f(5))\nprint(f(1))\nprint(f(0))\n",
        "finally ran\n2\nfinally ran\n-1\nbody done\nelse ran\nfinally ran\n0\n", None),
    # a loop of the finally block keeps its own break
    "control-break-in-a-loop-of-a-finally-block": (
        "def f(xs):\n    try:\n        if not xs:\n            return -1\n"
        "    finally:\n        for x in xs:\n            if x:\n                break\n"
        "        print('finally ran')\n    return len(xs)\nprint(f([]))\nprint(f([0, 1]))\n",
        "finally ran\n-1\nfinally ran\n2\n", None),
    # an exception from the cleanup that runs after a return cancels it,
    # and the handler that catches it goes on as if nothing had returned
    "return-cancelled-by-a-finally-block": (
        "def f(x):\n    try:\n        try:\n            return 1\n        finally:\n"
        "            10 // x\n    except ZeroDivisionError:\n        pass\n    return 2\n"
        "print(f(0))\nprint(f(1))\n",
        "2\n1\n", None),
    "return-cancelled-by-a-context-managers-exit": (
        "import contextlib\ndef f(x):\n    try:\n"
        "        with contextlib.ExitStack() as stack:\n"
        "            stack.callback(lambda: 10 // x)\n            return 1\n"
        "    except ZeroDivisionError:\n        pass\n    return 2\n"
        "print(f(0))\nprint(f(1))\n",
        "2\n1\n", None),
    "refused-positional-only-passed-by-keyword": (
        "def f(x, /):\n    return x\nprint(f(x=1))\n",
        "", "call to 'f': bad keyword argument 'x'"),
    "refused-return-in-finally": (
        "def f(x):\n    try:\n        return 10 // x\n    finally:\n        return -1\n"
        "print(f(0))\n",
        "-1\n", "'return' jumps out of a finally block (line 5)"),
    "refused-continue-in-finally": (
        "def f(xs):\n    for x in xs:\n        try:\n            return 10 // x\n"
        "        finally:\n            continue\n    return 0\nprint(f([0, 1]))\n",
        "0\n", "'continue' jumps out of a finally block (line 6)"),
}


@pytest.mark.parametrize("case", RETURN_SKIP_CASES)
def test_inlined_return_skips_what_python_skips(case):
    src, printed, refusal = RETURN_SKIP_CASES[case]
    assert run_program(src, b"", LIMITS).stdout == printed.encode()
    if refusal is None:
        assert_same_behavior(src)
    else:
        with pytest.raises(TransformUnsupported) as raised:
            singularize(parse(src))
        assert str(raised.value) == refusal


# -- randomized semantic preservation ----------------------------------------


@pytest.mark.parametrize("seed", range(25))
def test_random_programs_preserved(seed):
    src, stdin = runnable_program(seed)
    assert_same_behavior(src, stdin)
