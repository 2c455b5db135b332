"""Corpus records and filtering.

Corpus files are JSON Lines, one problem per line:

    {"id": "p1", "description": "...", "difficulty": "introductory",
     "solutions": ["...", ...],
     "tests": [{"input": "...", "output": "..."}, ...]}

Filtering keeps only solutions that pass every test; problems with no
tests or no surviving solutions are dropped and reported.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CorpusFormatError, InvalidLogProb
from .sandbox import RunLimits, passes_each

NO_TESTS_REASON = "insufficient or absent test cases"
NO_SOLUTIONS_REASON = "no solutions passing test cases"


@dataclass(frozen=True)
class TestCase:
    __test__ = False  # data record, not a pytest class

    input: bytes
    expected_output: bytes


@dataclass(eq=False)
class Problem:
    id: str
    description: str
    solutions: list[str]
    tests: list[TestCase]
    difficulty: str | None = None


def require(row, key: str, line_no: int):
    """``row[key]``, for a row read from line ``line_no``; refuses a row
    that is not an object or lacks the key."""
    if not isinstance(row, dict):
        raise CorpusFormatError(f"line {line_no}: expected an object")
    if key not in row:
        raise CorpusFormatError(f"line {line_no}: missing key {key!r}")
    return row[key]


def read_rows(path: str | Path, key: str | None, from_row) -> list:
    """``from_row(row, line_no)`` for each non-blank line of a JSON Lines
    file, in order.

    A line that is not UTF-8 or not JSON is refused with its number, and so
    is a ``TypeError``, ``ValueError`` or ``InvalidLogProb`` that
    ``from_row`` raises. Unless ``key`` is None, so is a row whose
    ``row[key]`` an earlier row has; ``from_row`` refuses a row without it.
    """
    items = []
    first_lines: dict[str, int] = {}
    # read bytes so a line that is not UTF-8 is reported by its number;
    # bytes.splitlines ends lines at \n, \r and \r\n, as text mode does
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for line_no, raw in enumerate(lines, start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError:
            raise CorpusFormatError(f"line {line_no}: not valid UTF-8") from None
        if not line:
            continue
        try:
            row = json.loads(line)
        except ValueError as exc:  # also an integer too long to convert
            raise CorpusFormatError(f"line {line_no}: invalid JSON: {exc}") from None
        try:
            items.append(from_row(row, line_no))
        except (TypeError, ValueError, InvalidLogProb) as exc:
            raise CorpusFormatError(f"line {line_no}: {exc}") from exc
        if key is not None:
            row_id = str(row[key])
            first = first_lines.setdefault(row_id, line_no)
            if first != line_no:
                raise CorpusFormatError(
                    f"line {line_no}: duplicate id {row_id!r} (first on line {first})"
                )
    return items


def case_from_row(row, line_no: int = 0) -> TestCase:
    if not isinstance(row, dict) or "input" not in row or "output" not in row:
        raise CorpusFormatError(f"line {line_no}: test needs input/output")
    return TestCase(
        input=str(row["input"]).encode("utf-8"),
        expected_output=str(row["output"]).encode("utf-8"),
    )


def problem_from_row(row: dict, line_no: int = 0) -> Problem:
    if not isinstance(row, dict):
        raise CorpusFormatError(f"line {line_no}: expected an object")
    tests = row.get("tests", [])
    if not isinstance(tests, list):
        raise CorpusFormatError(f"line {line_no}: tests must be a list")
    tests = [case_from_row(t, line_no) for t in tests]
    solutions = require(row, "solutions", line_no)
    if not isinstance(solutions, list) or not all(isinstance(s, str) for s in solutions):
        raise CorpusFormatError(f"line {line_no}: solutions must be a list of strings")
    return Problem(
        id=str(require(row, "id", line_no)),
        description=str(row.get("description", "")),
        solutions=list(solutions),
        tests=tests,
        difficulty=row.get("difficulty"),
    )


def problem_to_row(problem: Problem) -> dict:
    return {
        "id": problem.id,
        "description": problem.description,
        "difficulty": problem.difficulty,
        "solutions": list(problem.solutions),
        "tests": [
            {
                "input": t.input.decode("utf-8"),
                "output": t.expected_output.decode("utf-8"),
            }
            for t in problem.tests
        ],
    }


def load_corpus(path: str | Path) -> list[Problem]:
    return read_rows(path, "id", problem_from_row)


def save_corpus(problems: list[Problem], path: str | Path):
    with open(path, "w", encoding="utf-8") as handle:
        for problem in problems:
            handle.write(json.dumps(problem_to_row(problem)) + "\n")


def _generations_from_row(row, line_no: int) -> tuple[str, list[str]]:
    if not isinstance(row, dict) or "id" not in row or "generations" not in row:
        raise CorpusFormatError(f"line {line_no}: need id and generations")
    gens = row["generations"]
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise CorpusFormatError(f"line {line_no}: generations must be strings")
    return str(row["id"]), gens


def load_generations(path: str | Path) -> dict[str, list[str]]:
    """Rows of {"id": ..., "generations": [program, ...]}."""
    return dict(read_rows(path, "id", _generations_from_row))


@dataclass(eq=False)
class FilterReport:
    problems_before: int = 0
    problems_after: int = 0
    solutions_before: int = 0
    solutions_after: int = 0
    dropped: list[dict] = field(default_factory=list)


def filter_corpus(
    problems: list[Problem],
    limits: RunLimits,
    exact: bool = False,
    jobs: int = 0,
) -> tuple[list[Problem], FilterReport]:
    """Keep each problem's passing solutions; drop hopeless problems."""
    report = FilterReport(problems_before=len(problems))
    report.solutions_before = sum(len(p.solutions) for p in problems)

    verdicts = iter(passes_each(
        [(s, p.tests) for p in problems if p.tests for s in p.solutions],
        limits, exact, jobs,
    ))
    kept: list[Problem] = []
    for problem in problems:
        if not problem.tests:
            report.dropped.append({"id": problem.id, "reason": NO_TESTS_REASON})
            continue
        good = [s for s in problem.solutions if next(verdicts)]
        if not good:
            report.dropped.append({"id": problem.id, "reason": NO_SOLUTIONS_REASON})
            continue
        kept.append(
            Problem(
                id=problem.id,
                description=problem.description,
                solutions=good,
                tests=problem.tests,
                difficulty=problem.difficulty,
            )
        )
    report.problems_after = len(kept)
    report.solutions_after = sum(len(p.solutions) for p in kept)
    return kept, report
