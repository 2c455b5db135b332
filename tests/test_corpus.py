import json

import pytest

from modscore.corpus import (
    NO_TESTS_REASON,
    Problem,
    TestCase,
    case_from_row,
    filter_corpus,
    load_corpus,
    load_generations,
    problem_from_row,
    read_rows,
    save_corpus,
)
from modscore.errors import CorpusFormatError


def make_problem(pid, solutions, tests):
    return Problem(
        id=pid,
        description="",
        solutions=solutions,
        tests=[TestCase(i.encode(), o.encode()) for i, o in tests],
    )


def test_row_roundtrip(tmp_path):
    problems = [make_problem("a", ["print(1)\n"], [("", "1\n")])]
    path = tmp_path / "c.jsonl"
    save_corpus(problems, path)
    loaded = load_corpus(path)
    assert loaded[0].id == "a"
    assert loaded[0].tests[0].expected_output == b"1\n"


def test_malformed_rows_raise(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "x"}\n')
    with pytest.raises(CorpusFormatError):
        load_corpus(path)
    path.write_text("not json\n")
    with pytest.raises(CorpusFormatError):
        load_corpus(path)
    with pytest.raises(CorpusFormatError):
        problem_from_row({"id": "x", "solutions": [1]}, 1)


def test_load_generations(tmp_path):
    path = tmp_path / "g.jsonl"
    path.write_text(json.dumps({"id": "p", "generations": ["print(1)\n"]}) + "\n")
    table = load_generations(path)
    assert table == {"p": ["print(1)\n"]}
    path.write_text(json.dumps({"id": "p"}) + "\n")
    with pytest.raises(CorpusFormatError):
        load_generations(path)


def test_read_rows_refuses_a_repeated_key_only_when_given_one(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text('{"input": "1", "output": "2"}\n\n{"input": "1", "output": "2"}\n')
    assert read_rows(path, None, case_from_row) == [TestCase(b"1", b"2")] * 2
    with pytest.raises(CorpusFormatError, match=r"line 3: duplicate id '1' \(first on line 1\)"):
        read_rows(path, "input", case_from_row)


def test_filter_keeps_only_passing(fast_limits):
    good = "print(int(input()) * 2)\n"
    bad = "print(int(input()) * 3)\n"
    problem = make_problem("p", [good, bad, good], [("2\n", "4\n")])
    kept, report = filter_corpus([problem], fast_limits)
    assert len(kept) == 1
    assert kept[0].solutions == [good, good]
    assert report.solutions_before == 3
    assert report.solutions_after == 2


def test_filter_drops_zero_test_problem(fast_limits):
    problem = make_problem("empty", ["print(1)\n"], [])
    kept, report = filter_corpus([problem], fast_limits)
    assert kept == []
    assert report.dropped == [{"id": "empty", "reason": NO_TESTS_REASON}]
    assert report.dropped[0]["reason"] == "insufficient or absent test cases"


def test_filter_drops_problem_with_no_passing_solutions(fast_limits):
    problem = make_problem("hopeless", ["print(9)\n"], [("", "1\n")])
    kept, report = filter_corpus([problem], fast_limits)
    assert kept == []
    assert report.problems_after == 0


def test_filter_fixture_matches_expected_table(fast_limits, fixtures_dir):
    problems = load_corpus(fixtures_dir / "filter_corpus.jsonl")
    expected = json.loads((fixtures_dir / "filter_expected.json").read_text())
    kept, report = filter_corpus(problems, fast_limits, jobs=4)
    assert report.problems_before == expected["problems_before"]
    assert report.problems_after == expected["problems_after"]
    kept_by_id = {p.id: p for p in kept}
    originals = {p.id: p for p in problems}
    for pid, indices in expected["retained_solutions"].items():
        want = [originals[pid].solutions[i] for i in indices]
        assert kept_by_id[pid].solutions == want, pid
    dropped = {d["id"]: d["reason"] for d in report.dropped}
    assert dropped["f09"] == NO_TESTS_REASON
    assert "f10" in dropped


def test_filter_idempotent(fast_limits, fixtures_dir):
    problems = load_corpus(fixtures_dir / "filter_corpus.jsonl")
    once, _ = filter_corpus(problems, fast_limits, jobs=4)
    twice, report = filter_corpus(once, fast_limits, jobs=4)
    assert [p.id for p in twice] == [p.id for p in once]
    assert [p.solutions for p in twice] == [p.solutions for p in once]
    assert report.solutions_before == report.solutions_after
