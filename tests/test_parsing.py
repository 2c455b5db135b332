import io
import tokenize

import pytest

from modscore.errors import EncodingError
from modscore.parsing import parse

from gen_programs import structured_function


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
    assert unit.toplevel.is_toplevel
    assert len(unit.toplevel.body) == 1


def test_nested_definition_order_and_depth():
    src = "def outer():\n    def inner():\n        pass\n    return inner\n"
    unit = parse(src)
    assert [f.name for f in unit.functions] == ["outer", "inner"]
    assert [f.nesting_depth for f in unit.functions] == [0, 1]


def test_exactly_one_toplevel():
    unit = parse("def f():\n    pass\n")
    records = unit.functions + [unit.toplevel]
    assert sum(1 for r in records if r.is_toplevel) == 1


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
