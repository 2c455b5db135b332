"""Parse source text and extract function definitions.

A parsed snippet becomes a SourceUnit: the raw text, one FunctionDef per
named definition (document order, nested after parent), and a synthetic
toplevel record for the statements outside any definition.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from .errors import EncodingError
from .profiles import PY3, SubjectProfile

TOPLEVEL_NAME = "<toplevel>"


@dataclass(eq=False)
class FunctionDef:
    """One named definition (or the toplevel pseudo-function)."""

    name: str
    qualname: str
    node: ast.AST  # ast.FunctionDef / ast.AsyncFunctionDef / ast.Module
    nesting_depth: int
    is_toplevel: bool = False

    @property
    def body(self) -> list[ast.stmt]:
        return self.node.body

    def __repr__(self):
        return f"FunctionDef({self.qualname!r}, depth={self.nesting_depth})"


@dataclass(eq=False)
class SourceUnit:
    """One code snippet plus its parse and extracted definitions."""

    id: str
    text: str
    tree: ast.Module
    functions: list[FunctionDef]
    toplevel: FunctionDef
    profile: SubjectProfile = PY3

    @property
    def function_count(self) -> int:
        return len(self.functions)


def _decode(text: bytes | str) -> str:
    if isinstance(text, str):
        return text
    try:
        return text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise EncodingError(f"input is not valid UTF-8: {exc}") from exc


class _Extractor(ast.NodeVisitor):
    """Collects named defs in document order, nested after their parent.

    Descends into class bodies (methods are modules) but records nesting
    depth only across enclosing function definitions.
    """

    def __init__(self):
        self.found: list[FunctionDef] = []
        self.fn_stack: list[str] = []
        self.class_stack: list[str] = []

    def _qualname(self, name: str) -> str:
        return ".".join(self.fn_stack + self.class_stack + [name])

    def _handle_def(self, node):
        fn = FunctionDef(
            name=node.name,
            qualname=self._qualname(node.name),
            node=node,
            nesting_depth=len(self.fn_stack),
        )
        self.found.append(fn)
        self.fn_stack.append(node.name)
        saved_classes, self.class_stack = self.class_stack, []
        for child in node.body:
            self.visit(child)
        self.class_stack = saved_classes
        self.fn_stack.pop()

    visit_FunctionDef = _handle_def
    visit_AsyncFunctionDef = _handle_def

    def visit_ClassDef(self, node):
        self.class_stack.append(node.name)
        for child in node.body:
            self.visit(child)
        self.class_stack.pop()

    def visit_Lambda(self, node):
        pass  # anonymous: not a module


def parse(text: bytes | str, profile: SubjectProfile = PY3, unit_id: str = "<unit>") -> SourceUnit:
    """Parse source and extract definitions under the given profile.

    Raises SyntaxError (with position) on unparseable input and
    EncodingError on invalid UTF-8. ``compile`` runs as well so
    grammar-valid but illegal statements (``break`` outside a loop,
    ``return`` at module level) surface here, not during analysis.
    """
    source = _decode(text)
    tree = ast.parse(source, filename=unit_id)
    compile(source, unit_id, "exec")

    extractor = _Extractor()
    for stmt in tree.body:
        extractor.visit(stmt)

    toplevel = FunctionDef(
        name=TOPLEVEL_NAME,
        qualname=TOPLEVEL_NAME,
        node=tree,
        nesting_depth=0,
        is_toplevel=True,
    )
    return SourceUnit(
        id=unit_id,
        text=source,
        tree=tree,
        functions=extractor.found,
        toplevel=toplevel,
        profile=profile,
    )
