"""A reader census of ``src/modscore/``: code that nothing reads fails.

One ``ast`` pass over the package lists each top-level def, class,
method, dataclass field, attribute set in an ``__init__`` and module
constant, and every name that is loaded, read as an attribute, passed as
a keyword or imported anywhere in the package outside ``__init__.py``
(which re-exports, and so reads, everything public). A definition whose
name is never read that way is dead code, unless ``ALLOWED`` names it
with the reason it stays. Names are matched by spelling, not by scope, so
the census misses a dead name that something else of the same spelling
reads; it never flags a read one. Dunder names are the interpreter's to
read.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "modscore"

ASDICT = "read through dataclasses.asdict by the CLI's filter report"
PERFBENCH = "read by perfbench/ as an oracle; leaves src/ with ROADMAP item 10"
PROMPTS = "the prompt assembly of ROADMAP item 6 will read it"

ALLOWED = {
    "complexity.cc_decision_points": PERFBENCH,
    "stats.pearson": PERFBENCH,
    "stats.spearman": PERFBENCH,
    "sandbox.passes_all": PERFBENCH,
    "sandbox.count_correct": PERFBENCH,
    "prompts.assemble_prompt": PROMPTS,
    "prompts.DEFAULT_TEMPLATE": PROMPTS,
    "sandbox.RunResult.detail": "the run record of ROADMAP item 2 will read it",
    "corpus.FilterReport.problems_after": ASDICT,
    "corpus.FilterReport.solutions_before": ASDICT,
    "corpus.FilterReport.solutions_after": ASDICT,
}


def _defined(module: str, tree: ast.Module) -> dict[str, str]:
    """Each definition the census checks, by dotted path, with its name."""
    found: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[f"{module}.{stmt.name}"] = stmt.name
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if type(stmt) is ast.Assign else [stmt.target]
            for n in (n for t in targets for n in ast.walk(t)):
                if type(n) is ast.Name:
                    found[f"{module}.{n.id}"] = n.id
        if type(stmt) is not ast.ClassDef:
            continue
        for member in stmt.body:
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found[f"{module}.{stmt.name}.{member.name}"] = member.name
            elif type(member) is ast.AnnAssign and type(member.target) is ast.Name:
                found[f"{module}.{stmt.name}.{member.target.id}"] = member.target.id
            if getattr(member, "name", None) == "__init__":
                for n in ast.walk(member):
                    if (type(n) is ast.Attribute and type(n.ctx) is ast.Store
                            and type(n.value) is ast.Name and n.value.id == "self"):
                        found[f"{module}.{stmt.name}.{n.attr}"] = n.attr
    return found


def _read(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for n in ast.walk(tree):
        if type(n) is ast.Name and type(n.ctx) is ast.Load:
            names.add(n.id)
        elif type(n) is ast.Attribute and type(n.ctx) is ast.Load:
            names.add(n.attr)
        elif type(n) is ast.keyword and n.arg:
            names.add(n.arg)
        elif type(n) is ast.ImportFrom:
            names.update(a.name for a in n.names)
    return names


@pytest.fixture(scope="module")
def unread() -> set[str]:
    defined: dict[str, str] = {}
    read: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined.update(_defined(path.stem, tree))
        if path.name != "__init__.py":
            read |= _read(tree)
    return {
        where for where, name in defined.items()
        if name not in read
        and not (name.startswith("__") and name.endswith("__"))
        # ast.NodeVisitor finds these by the node type's name
        and not name.startswith("visit_")
    }


def test_every_definition_in_src_has_a_reader(unread):
    assert sorted(unread - ALLOWED.keys()) == []


def test_every_allowed_name_is_still_unread(unread):
    # an entry whose name gained a reader has no reason left to stay
    assert sorted(ALLOWED.keys() - unread) == []
