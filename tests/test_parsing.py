import ast
import io
import tokenize

import pytest

from modscore.errors import EncodingError
from modscore.parsing import parse

from gen_programs import runnable_program, structured_function


def count_def_tokens(text: str) -> int:
    """Independent token-level scan for module-construct occurrences."""
    count = 0
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type == tokenize.NAME and tok.string == "def":
            count += 1
    return count


def test_no_definitions():
    unit = parse("print(1)")
    assert unit.functions == []
    assert unit.toplevel.node is unit.tree
    assert len(unit.toplevel.body) == 1


def test_nested_definition_order_and_depth():
    src = "def outer():\n    def inner():\n        pass\n    return inner\n"
    unit = parse(src)
    assert [f.name for f in unit.functions] == ["outer", "inner"]
    assert [f.qualname for f in unit.functions] == ["outer", "outer.inner"]


def test_exactly_one_toplevel():
    unit = parse("def f():\n    pass\n")
    assert unit.toplevel.node is unit.tree
    assert unit.toplevel not in unit.functions
    assert [f.node for f in unit.functions] == [unit.tree.body[0]]


def test_methods_are_extracted():
    src = "class Box:\n    def get(self):\n        return 1\n"
    unit = parse(src)
    assert [f.qualname for f in unit.functions] == ["Box.get"]


def test_lambda_is_not_a_module():
    unit = parse("f = lambda x: x + 1\n")
    assert unit.functions == []


def test_async_def_is_a_module():
    unit = parse("async def go():\n    pass\n")
    assert [f.name for f in unit.functions] == ["go"]


def test_syntax_error_has_position():
    with pytest.raises(SyntaxError) as err:
        parse("def broken(:\n    pass\n")
    assert err.value.lineno == 1


def test_grammar_valid_but_illegal_raises():
    with pytest.raises(SyntaxError):
        parse("break\n")
    with pytest.raises(SyntaxError):
        parse("return 1\n")


def test_invalid_utf8_bytes():
    with pytest.raises(EncodingError):
        parse(b"print('\xff\xfe')")


def test_figure_style_modular_snippet_has_functions(fixtures_dir):
    text = (fixtures_dir / "figure_style" / "mc.py").read_text()
    unit = parse(text)
    assert unit.function_count > 0


@pytest.mark.parametrize("seed", range(60))
def test_extraction_matches_token_scan(seed):
    src = structured_function(seed)
    unit = parse(src)
    assert len(unit.functions) == count_def_tokens(src)


def test_extraction_token_scan_with_strings_and_comments():
    src = (
        "# def not_really():\n"
        "text = 'def fake(): pass'\n"
        "def real():\n"
        "    return text\n"
    )
    unit = parse(src)
    assert len(unit.functions) == 1 == count_def_tokens(src)


# -- qualnames and the statement-only walk -------------------------------------


def test_qualname_keeps_class_of_enclosing_method():
    src = (
        "class A:\n    def run(self):\n        def helper():\n            pass\n"
        "class B:\n    def run(self):\n        def helper():\n            pass\n"
    )
    unit = parse(src)
    assert [f.qualname for f in unit.functions] == ["A.run", "A.run.helper", "B.run", "B.run.helper"]


def test_qualname_keeps_every_enclosing_class_and_function():
    src = (
        "def f():\n"
        "    class C:\n"
        "        def g(self):\n"
        "            class D:\n"
        "                def h(self):\n"
        "                    pass\n"
    )
    unit = parse(src)
    assert [f.qualname for f in unit.functions] == ["f", "f.C.g", "f.C.g.D.h"]


class _ReferenceExtractor(ast.NodeVisitor):
    """Visits every node, expressions included; one stack of enclosing
    class and function names."""

    def __init__(self):
        self.found = []
        self.path = []

    def _handle_def(self, node):
        self.found.append((node, ".".join(self.path + [node.name])))
        self.path.append(node.name)
        for child in node.body:
            self.visit(child)
        self.path.pop()

    visit_FunctionDef = _handle_def
    visit_AsyncFunctionDef = _handle_def

    def visit_ClassDef(self, node):
        self.path.append(node.name)
        for child in node.body:
            self.visit(child)
        self.path.pop()

    def visit_Lambda(self, node):
        pass


def assert_matches_reference(src: str):
    unit = parse(src)
    reference = _ReferenceExtractor()
    for stmt in unit.tree.body:
        reference.visit(stmt)
    got = [(f.node, f.qualname) for f in unit.functions]
    assert got == reference.found
    assert [f.name for f in unit.functions] == [node.name for node, _ in reference.found]


DEF_PLACEMENTS = [
    # try body, handlers, else and finally
    "try:\n    def a():\n        pass\nexcept ValueError:\n    def b():\n        pass\n"
    "except TypeError:\n    def c():\n        pass\nelse:\n    def d():\n        pass\n"
    "finally:\n    def e():\n        pass\n",
    # match arms, guarded and catch-all
    "match x:\n    case 1 if x:\n        def a():\n            pass\n"
    "    case _:\n        def b():\n            def c():\n                pass\n",
    # with blocks, loops and their else arms, if/elif/else
    "with open('f') as h, open('g'):\n    def a():\n        pass\n"
    "for i in range(3):\n    def b():\n        pass\nelse:\n    def c():\n        pass\n"
    "while x:\n    def d():\n        pass\nelse:\n    def e():\n        pass\n"
    "if x:\n    def f():\n        pass\nelif y:\n    def g():\n        pass\n"
    "else:\n    def h():\n        pass\n",
    # class bodies, nested classes, async defs and decorators
    "class K:\n    x = [lambda: 1]\n    def a(self):\n        pass\n"
    "    class L:\n        async def b(self):\n            async with m:\n"
    "                def c():\n                    pass\n"
    "@dec\ndef d(f=lambda y: y):\n    try:\n        pass\n    except OSError:\n"
    "        def e():\n            pass\n",
]


@pytest.mark.parametrize("index", range(len(DEF_PLACEMENTS)))
def test_extraction_matches_full_walk_on_def_placements(index):
    assert_matches_reference(DEF_PLACEMENTS[index])


@pytest.mark.parametrize("seed", range(0, 200, 4))
def test_extraction_matches_full_walk_on_generated_programs(seed):
    assert_matches_reference(structured_function(seed))
    assert_matches_reference(runnable_program(seed)[0])
