import argparse
import contextlib
import io
import json
import os
import random
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

import modscore.cli as cli_module
import modscore.corpus as corpus_module
from modscore.cli import main
from modscore.corpus import TestCase

from conftest import FIXTURES, assert_no_children
from gen_programs import runnable_program


def run_cli(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_emits_report(capsys, tmp_path):
    path = tmp_path / "a.py"
    path.write_text("def f(x):\n    return x\nprint(f(1))\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["version"]
    assert payload["config"]["tau"] == 5
    (unit,) = payload["units"]
    assert unit["cc_total"] == 2
    assert unit["function_count"] == 1
    assert unit["mos"] == 1.0


def test_analyze_stable_output(capsys, tmp_path):
    path = tmp_path / "a.py"
    path.write_text("print(1)\n")
    _, out1, _ = run_cli(capsys, "analyze", str(path))
    _, out2, _ = run_cli(capsys, "analyze", str(path))
    assert out1 == out2


def test_classify_matches_hand_verified_file(capsys):
    corpus = FIXTURES / "mini_corpus.jsonl"
    code, out, _ = run_cli(capsys, "classify", str(corpus), "--tau", "5")
    assert code == 0
    payload = json.loads(out)
    expected = json.loads((FIXTURES / "mini_classification.json").read_text())
    got = {row["problem_id"]: row for row in payload["problems"]}
    for pid, want in expected["problems"].items():
        assert got[pid]["mc_solution_index"] == want["mc_solution_index"], pid
        assert got[pid]["sc_solution_index"] == want["sc_solution_index"], pid
        assert got[pid]["mos_values"] == want["mos_values"], pid


def test_singularize_writes_output(capsys, tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def d(x):\n    return x * 2\nprint(d(int(input())))\n")
    out_path = tmp_path / "out.py"
    code, _, _ = run_cli(capsys, "singularize", str(src), "--out", str(out_path))
    assert code == 0
    assert "def " not in out_path.read_text()


def test_singularize_unsupported_exits_3(capsys, tmp_path):
    src = tmp_path / "r.py"
    src.write_text("def f(x):\n    return f(x)\nprint(f(1))\n")
    code, _, err = run_cli(capsys, "singularize", str(src))
    assert code == 3
    assert "recursive" in err


def test_singularize_verify_mismatch_exits_3(capsys, monkeypatch, tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def d(x):\n    return x * 2\nprint(d(int(input())))\n")
    tests = tmp_path / "tests.jsonl"
    tests.write_text('{"input": "2", "output": "4"}\n')
    monkeypatch.setattr(cli_module, "verify_equivalence", lambda *args, **kwargs: False)
    code, out, err = run_cli(capsys, "singularize", str(src), "--verify", str(tests))
    assert code == 3
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("modscore: verification failed: verdicts or outputs differ")


def test_filter_writes_corpus_and_report(capsys, tmp_path):
    out = tmp_path / "filtered.jsonl"
    report = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "filter", str(FIXTURES / "filter_corpus.jsonl"),
        "--out", str(out), "--report", str(report), "--jobs", "4",
    )
    assert code == 0
    payload = json.loads(report.read_text())
    assert payload["filter"]["problems_after"] == 8
    assert len(out.read_text().splitlines()) == 8


def test_passk_subset(capsys, tmp_path):
    corpus_rows = [
        json.loads(line)
        for line in (FIXTURES / "mini_corpus.jsonl").read_text().splitlines()
    ]
    gen_rows = [
        json.loads(line)
        for line in (FIXTURES / "mini_generations.jsonl").read_text().splitlines()
    ]
    wanted = {"p01", "p05"}
    corpus = tmp_path / "c.jsonl"
    gens = tmp_path / "g.jsonl"
    corpus.write_text("".join(
        json.dumps(r) + "\n" for r in corpus_rows if r["id"] in wanted
    ))
    gens.write_text("".join(
        json.dumps(r) + "\n" for r in gen_rows if r["id"] in wanted
    ))
    code, out, _ = run_cli(
        capsys, "passk", str(corpus), "--gens", str(gens),
        "--k", "1,2", "--n", "4", "--jobs", "4",
    )
    assert code == 0
    payload = json.loads(out)
    by_id = {row["problem_id"]: row for row in payload["problems"]}
    assert by_id["p01"]["c"] == 2
    assert by_id["p05"]["c"] == 3
    assert payload["aggregate"]["1"] == pytest.approx((0.5 + 0.75) / 2, abs=1e-12)


def write_scored(path):
    rows = [
        {"unit_id": f"u{i}", "mos": (i % 10) / 10 + 0.05, "pass1": ((i * 7) % 10) / 10}
        for i in range(60)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


def test_correlate(capsys, tmp_path):
    scored = write_scored(tmp_path / "scored.jsonl")
    code, out, _ = run_cli(capsys, "correlate", str(scored), "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert -1 <= payload["pearson"]["r"] <= 1
    assert 0 < payload["pearson"]["p"] <= 1
    code2, out2, _ = run_cli(capsys, "correlate", str(scored), "--seed", "7")
    assert out == out2  # seeded, reproducible


def test_ppl(capsys):
    code, out, _ = run_cli(capsys, "ppl", str(FIXTURES / "logprobs.jsonl"))
    assert code == 0
    payload = json.loads(out)
    assert set(payload["by_category"]) == {"MC", "SC", "TMC", "TSC"}
    assert len(payload["records"]) == 20


def test_malformed_corpus_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{nope}\n")
    code, _, _ = run_cli(capsys, "classify", str(bad))
    assert code == 2


def test_missing_file_exits_2(capsys):
    code, _, _ = run_cli(capsys, "classify", "/does/not/exist.jsonl")
    assert code == 2


def test_unknown_subcommand_exits_1(capsys):
    assert main(["frobnicate"]) == 1


def test_usage_error_exits_1(capsys):
    assert main(["passk"]) == 1  # missing required --gens and corpus


def test_usage_errors_print_one_line_and_help_prints_usage(capsys):
    code, out, err = run_cli(capsys, "analyze", "a.py", "--bogus")
    assert (code, out, err) == (1, "", "modscore: error: unrecognized arguments: --bogus\n")
    code, out, err = run_cli(capsys, "passk")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "required" in err
    code, out, _ = run_cli(capsys, "analyze", "-h")
    assert code == 0 and out.startswith("usage: modscore analyze")


def test_each_subcommand_takes_only_the_flags_it_reads():
    limits = {"--wall-time", "--memory", "--output-cap", "--exact-output"}
    report = {"--config", "--json", "--table"}
    want = {
        "analyze": {"--profile", "--tau", *report},
        "classify": {"--profile", "--tau", "--jobs", *report},
        "singularize": {"--verify", "--out", "--config", *limits},
        "filter": {"--out", "--report", "--jobs", *limits, *report},
        "passk": {"--gens", "--k", "--n", "--jobs", *limits, *report},
        "correlate": {"--bins", "--per-bin", "--seed", "--jobs", *report},
        "ppl": report,
    }
    (commands,) = [action for action in cli_module.build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    got = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.choices.items()
    }
    assert got == want
    assert sum(map(len, got.values())) == 49


def test_the_benchmarks_argv_still_parses():
    # The argv shapes perfbench/passrun.py sends in its study and sandbox
    # passes: a flag they use cannot go without the benchmark changing too.
    parser = cli_module.build_parser()
    limits = ["--jobs", "2", "--wall-time", "1.5", "--memory", "268435456",
              "--output-cap", "65536"]
    for argv in (
        ["classify", "C", "--jobs", "2"],
        ["correlate", "S", "--seed", "7", "--jobs", "2"],
        ["filter", "C", "--out", "K", "--report", "R", *limits],
        ["passk", "C", "--gens", "G", "--k", "1,5", "--n", "10", *limits],
    ):
        assert parser.parse_args(argv).command == argv[0]


def test_config_file_flags_win(capsys, tmp_path):
    path = tmp_path / "a.py"
    path.write_text("print(1)\n")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"tau": 9, "seed": 123}))
    _, out, _ = run_cli(capsys, "analyze", str(path), "--config", str(config))
    payload = json.loads(out)
    assert payload["config"]["tau"] == 9
    _, out2, _ = run_cli(
        capsys, "analyze", str(path), "--config", str(config), "--tau", "3"
    )
    assert json.loads(out2)["config"]["tau"] == 3
    scored = write_scored(tmp_path / "scored.jsonl")
    _, out3, _ = run_cli(capsys, "correlate", str(scored), "--config", str(config))
    assert json.loads(out3)["config"]["seed"] == 123
    _, out4, _ = run_cli(
        capsys, "correlate", str(scored), "--config", str(config), "--seed", "4"
    )
    assert json.loads(out4)["config"]["seed"] == 4


def test_sandbox_unavailable_exits_4(capsys, monkeypatch):
    from modscore.errors import SandboxUnavailable

    def broken(*args, **kwargs):
        raise SandboxUnavailable("no isolation")

    monkeypatch.setattr(cli_module, "filter_corpus", broken)
    code, _, err = run_cli(
        capsys, "filter", str(FIXTURES / "filter_corpus.jsonl"), "--out", "/tmp/x.jsonl"
    )
    assert code == 4
    assert "sandbox" in err.lower()


def test_version_flag():
    proc = subprocess.run(
        [sys.executable, "-m", "modscore.cli", "--version"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "modscore" in proc.stdout


@pytest.mark.parametrize("copies", [1, 100])  # flushed at exit / written by print
def test_closed_stdout_exits_1_with_one_line(tmp_path, copies):
    path = tmp_path / "a.py"
    path.write_text("def f(x):\n    return x\nprint(f(1))\n")
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "modscore.cli", "analyze", *[str(path)] * copies],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.count("\n") == 1 and "stdout closed" in proc.stderr


def test_table_output(capsys, tmp_path):
    path = tmp_path / "a.py"
    path.write_text("print(1)\n")
    code, out, _ = run_cli(capsys, "analyze", str(path), "--table")
    assert code == 0
    with pytest.raises(json.JSONDecodeError):
        json.loads(out)
    assert "cc_total" in out
    # a nested dict prints its keys indented under its own, a scalar on its line
    scored = write_scored(tmp_path / "scored.jsonl")
    code, out, _ = run_cli(capsys, "correlate", str(scored), "--table", "--seed", "7")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "samples: 60"
    start = lines.index("pearson:")
    assert [line.split(":")[0] for line in lines[start:start + 3]] == ["pearson", "  r", "  p"]


@pytest.mark.parametrize("flags, message", [
    (["--k", "a"], "--k takes comma-separated integers"),
    (["--k", "1,0"], "--k values must be >= 1"),
    (["--k", "5", "--n", "4"], "k=5 exceeds n=4"),
    (["--k", "5"], "k=5 exceeds n=4"),
    (["--n", "3"], "expected n=3 generations, got 4"),
])
def test_passk_rejects_bad_input_before_running(capsys, monkeypatch, flags, message):
    def no_runs(*args, **kwargs):
        raise AssertionError("sandbox ran before validation")

    monkeypatch.setattr(cli_module, "passes_each", no_runs)
    code, out, err = run_cli(
        capsys, "passk", str(FIXTURES / "mini_corpus.jsonl"),
        "--gens", str(FIXTURES / "mini_generations.jsonl"), *flags,
    )
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and message in err


def test_passk_reports_skipped_problems_without_running_them(capsys, monkeypatch, tmp_path):
    judged = []

    def all_pass(items, *args, **kwargs):
        judged.extend(items)
        return [True] * len(items)

    monkeypatch.setattr(cli_module, "passes_each", all_pass)
    test = {"input": "", "output": "1\n"}
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in [
        {"id": "c", "solutions": [], "tests": [test]},
        {"id": "b", "solutions": [], "tests": []},
        {"id": "a", "solutions": [], "tests": [test]},
    ]))
    gens = tmp_path / "g.jsonl"
    gens.write_text("".join(json.dumps({"id": pid, "generations": [f"print({pid!r})"]}) + "\n"
                            for pid in ("b", "a")))
    code, out, _ = run_cli(capsys, "passk", str(corpus), "--gens", str(gens))
    assert code == 0
    payload = json.loads(out)
    assert payload["skipped"] == [{"id": "b", "reason": "no tests"},
                                  {"id": "c", "reason": "no generations"}]
    assert [row["problem_id"] for row in payload["problems"]] == ["a"]
    assert judged == [("print('a')", [TestCase(b"", b"1\n")])]


def scored_rows(count: int) -> str:
    """``count`` scored rows with distinct ids and the same mos and pass1."""
    return "".join(f'{{"unit_id": "u{i}", "mos": 0.5, "pass1": 1.0}}\n' for i in range(count))


SCORED_ROW = scored_rows(1)
VARIED_SCORED_ROWS = scored_rows(3).replace('"pass1": 1.0', '"pass1": 0.0', 1)
DUPLICATE_ID_CORPUS = (
    '{"id": "p", "solutions": ["print(1)"], "tests": [{"input": "", "output": "1\\n"}]}\n'
    '{"id": "q", "solutions": ["print(1)"], "tests": [{"input": "", "output": "1\\n"}]}\n'
    '{"id": "p", "solutions": ["print(2)"], "tests": [{"input": "", "output": "2\\n"}]}\n'
)
SURROGATE_SOLUTION_CORPUS = ('{"id": "p1", "solutions": ["print(1)\\ud800"], '
                             '"tests": [{"input": "", "output": "1\\n"}]}\n')
TOO_DEEP_TO_PARSE = "x = " + "+".join(["1"] * 3000) + "\n"
TOO_DEEP_TO_TRANSFORM = "def f(a):\n    return a\nx = " + "+".join(["f(1)"] * 600) + "\n"

BAD_INPUT_CASES = {
    # name: (command, text of the config file, or of the input file for the
    # commands in INPUT_COMMANDS (str, or bytes written as they are), or
    # None; exit code; part of the message)
    "tau-as-string": ("classify", '{"tau": "5"}', 1, "'tau' must be int"),
    "jobs-as-string": ("filter", '{"jobs": "2"}', 1, "'jobs' must be int"),
    "bool-as-int": ("analyze", '{"seed": true}', 1, "'seed' must be int"),
    "method-name-key": ("filter", '{"limits": 1}', 1, "unknown key 'limits'"),
    "misspelt-key": ("analyze", '{"tua": 3}', 1, "unknown key 'tua'"),
    "not-json": ("analyze", '{"tau": 3', 1, "not valid JSON"),
    "not-an-object": ("analyze", "[3]", 1, "must hold a JSON object"),
    "negative-limit": ("filter", '{"wall_time": -1}', 1, "limits must be positive"),
    "nan-wall-time-in-config": ("filter", '{"wall_time": NaN}', 1,
                                "wall_time must be finite and below 2**31 seconds"),
    "nan-wall-time": ("filter-wall-time-nan", None, 1,
                      "wall_time must be finite and below 2**31 seconds"),
    "infinite-wall-time": ("filter-wall-time-inf", None, 1,
                           "wall_time must be finite and below 2**31 seconds"),
    "huge-wall-time": ("filter-wall-time-1e30", None, 1,
                       "wall_time must be finite and below 2**31 seconds"),
    "huge-memory": ("filter-memory-huge", None, 1,
                    "memory and output_cap must be below 2**63 bytes"),
    "huge-output-cap-in-config": ("filter", '{"output_cap": 9223372036854775808}', 1,
                                  "memory and output_cap must be below 2**63 bytes"),
    "negative-jobs": ("filter-jobs-negative", None, 1, "jobs must be 0"),
    "unknown-output-format": ("analyze", '{"output_format": "xml"}', 1,
                              "output_format must be 'json' or 'table'"),
    "corpus-is-directory": ("classify-dir", None, 2, "Is a directory"),
    "input-path-too-long": ("analyze-long-path", None, 2, "File name too long"),
    "out-path-too-long": ("singularize-long-out", None, 2, "File name too long"),
    "verify-not-json": ("verify", "nope", 2, "line 1: invalid JSON"),
    "verify-empty": ("verify", "", 1, "no tests to verify against"),
    "verify-lacks-output": ("verify", '{"input": "1"}', 2, "line 1: missing key 'output'"),
    "scored-row-not-object": ("correlate", "[1]", 2, "line 1: expected an object"),
    "scored-row-missing-key": ("correlate", '{"unit_id": "u0", "mos": 0.5}\n', 2,
                               "line 1: missing key 'pass1'"),
    "ppl-row-not-object": ("ppl-given", "[1]", 2, "line 1: expected an object"),
    "ppl-row-missing-key": ("ppl-given", '{"id": "a", "category": "MC"}\n', 2,
                            "line 1: missing key 'token_logprobs'"),
    # rows that are well formed but too few or too alike to compute on
    "correlate-too-few-points": ("correlate", scored_rows(2), 1,
                                 "need at least 3 points, got 2"),
    "correlate-zero-variance": ("correlate", scored_rows(3), 1, "zero variance input"),
    "correlate-bin-too-small": ("correlate-per-bin-5", scored_rows(3), 1,
                                "bin [0, 0.1) holds 0 item(s), need 5"),
    "ppl-no-records": ("ppl-given", "", 1, "no records to summarize"),
    "corpus-not-utf8": ("corpus", b'{"id": "p1", "solutions": ["print(1)"]}\n{"id": "\xff"}\n',
                        2, "line 2: not valid UTF-8"),
    "corpus-cr-lines-not-utf8": ("corpus", b'{"id": "p1", "solutions": []}\r{"id": "\xff"}\r',
                                 2, "line 2: not valid UTF-8"),
    "corpus-tests-not-a-list": ("corpus", '{"id": "p1", "solutions": [], "tests": 5}\n',
                                2, "line 1: 'tests' must be a list of test objects"),
    "classify-duplicate-id": ("corpus", DUPLICATE_ID_CORPUS, 2,
                              "line 3: duplicate id 'p' (first on line 1)"),
    "passk-duplicate-id": ("passk-given", DUPLICATE_ID_CORPUS, 2,
                           "line 3: duplicate id 'p' (first on line 1)"),
    "filter-duplicate-id": ("filter-given", DUPLICATE_ID_CORPUS, 2,
                            "line 3: duplicate id 'p' (first on line 1)"),
    "gens-duplicate-id": ("passk-gens-given",
                          '{"id": "p01", "generations": ["print(1)"]}\n'
                          '{"id": "p01", "generations": ["print(2)"]}\n',
                          2, "line 2: duplicate id 'p01' (first on line 1)"),
    "correlate-duplicate-id": ("correlate", SCORED_ROW * 2, 2,
                               "line 2: duplicate id 'u0' (first on line 1)"),
    "ppl-duplicate-id": ("ppl-given",
                         '{"id": "a", "category": "MC", "token_logprobs": [-1]}\n'
                         '{"id": "a", "category": "SC", "token_logprobs": [-2]}\n',
                         2, "line 2: duplicate id 'a' (first on line 1)"),
    "corpus-test-input-not-encodable": ("corpus", '{"id": "p1", "solutions": [], '
                                        '"tests": [{"input": "\\ud800", "output": ""}]}\n',
                                        2, "line 1: 'utf-8' codec can't encode"),
    "corpus-integer-too-long": ("corpus", '{"id": 1' + "0" * 5000 + '}\n', 2,
                                "line 1: invalid JSON: Exceeds the limit"),
    "classify-solution-not-encodable": ("corpus", SURROGATE_SOLUTION_CORPUS, 2,
                                        "line 1: 'utf-8' codec can't encode"),
    "filter-solution-not-encodable": ("filter-given", SURROGATE_SOLUTION_CORPUS, 2,
                                      "line 1: 'utf-8' codec can't encode"),
    "passk-solution-not-encodable": ("passk-given", SURROGATE_SOLUTION_CORPUS, 2,
                                     "line 1: 'utf-8' codec can't encode"),
    "passk-generation-not-encodable": ("passk-gens-given",
                                       '{"id": "p01", "generations": ["print(1)\\ud800"]}\n',
                                       2, "line 1: 'utf-8' codec can't encode"),
    "corpus-row-not-object": ("corpus", "[1]\n", 2, "line 1: expected an object"),
    # a value of another kind than its key takes, which a str() or float()
    # used to read as something else
    "corpus-test-input-a-list": ("corpus", '{"id": "p1", "solutions": [], "tests": '
                                 '[{"input": ["x"], "output": "[\'x\']"}]}\n',
                                 2, "line 1: 'input' must be a string"),
    "corpus-test-output-null": ("corpus", '{"id": "p1", "solutions": [], "tests": '
                                '[{"input": "", "output": null}]}\n',
                                2, "line 1: 'output' must be a string"),
    "corpus-id-an-object": ("corpus", '{"id": {"p": 1}, "solutions": []}\n', 2,
                            "line 1: 'id' must be a string or an integer"),
    "correlate-mos-a-bool": ("correlate", '{"unit_id": "x", "mos": true, "pass1": 0.5}\n'
                             + VARIED_SCORED_ROWS, 2, "line 1: 'mos' must be a number"),
    "correlate-mos-out-of-range": ("correlate", '{"unit_id": "x", "mos": 1.5, "pass1": 0.5}\n',
                                   2, "line 1: mos out of [0,1]: 1.5"),
    "correlate-pass1-out-of-range": ("correlate",
                                     '{"unit_id": "x", "mos": 0.5, "pass1": -0.5}\n',
                                     2, "line 1: pass1 out of [0,1]: -0.5"),
    "correlate-pass1-a-string": ("correlate", '{"unit_id": "x", "mos": 0.25, "pass1": "0.5"}\n'
                                 + VARIED_SCORED_ROWS, 2,
                                 "line 1: 'pass1' must be a number"),
    "ppl-log-prob-a-string": ("ppl-given", '{"id": "a", "category": "MC", '
                              '"token_logprobs": ["-1"]}\n',
                              2, "line 1: 'token_logprobs' must be a list of numbers"),
    "ppl-log-prob-too-large-for-a-float": ("ppl-given", '{"id": "a", "category": "MC", '
                                           '"token_logprobs": [-1' + "1" * 400 + ']}\n',
                                           2,
                                           "line 1: 'token_logprobs' must be a list of numbers"),
    "gens-not-strings": ("passk-gens-given", '{"id": "p01", "generations": [1]}\n', 2,
                         "line 1: 'generations' must be a list of strings"),
    "correlate-zero-bins": ("correlate-bins-0", SCORED_ROW, 1,
                            "bins and per_bin must be positive"),
    "correlate-zero-per-bin": ("correlate-per-bin-0", SCORED_ROW, 1,
                               "bins and per_bin must be positive"),
    "source-too-deep-to-parse": ("analyze-given", TOO_DEEP_TO_PARSE, 2,
                                 "nested too deeply to parse"),
    "source-too-deep-to-transform": ("singularize-given", TOO_DEEP_TO_TRANSFORM, 3,
                                     "nested too deeply to transform"),
    "helper-annotation-undefined": ("singularize-given",
                                    "def f(x: Undefined) -> int:\n    return x\nprint(f(1))\n",
                                    3, "'f' has an annotation that is neither"),
    # a nested def's defaults run where the def stands, not in its body
    "nested-default-calls-a-later-def": (
        "singularize-given",
        "def outer():\n    def inner(x=late()):\n        return x\n    return 1\n"
        "r = outer()\ndef late():\n    return 5\nprint(r)\n",
        3, "'late' is called before its definition runs"),
    "nested-default-calls-its-encloser": (
        "singularize-given",
        "def outer(n):\n    if n == 0:\n        return 0\n    def inner(x=outer(n - 1)):\n"
        "        return x\n    return 1\nprint(outer(2))\n",
        3, "recursive call chain: outer -> outer"),
    "nested-default-yields": (
        "singularize-given",
        "def f():\n    def g(x=(yield 5)):\n        return x\n    return 1\nprint(f())\n",
        3, "'f' is a generator function"),
    "nested-default-capture-names-the-encloser": (
        "singularize-given",
        "v = 1\ndef helper():\n    return v\ndef outer():\n    v = 3\n"
        "    def inner(x=helper()):\n        return x\n    return inner() + v\nprint(outer())\n",
        3, "inlining 'helper' would capture 'v' bound in 'outer'"),
    "ppl-positive-log-prob": ("ppl-given", '{"id": "a", "category": "MC", "token_logprobs": [0.5]}\n',
                              2, "line 1: record a: positive log-prob 0.5"),
    "ppl-unknown-category": ("ppl-given", '{"id": "a", "category": "XX", "token_logprobs": [-1]}\n',
                             2, "line 1: record a: category 'XX' is not one of MC, SC, TMC, TSC"),
    "ppl-log-probs-not-a-list": ("ppl-given",
                                 '{"id": "a", "category": "MC", "token_logprobs": "-1"}\n',
                                 2, "line 1: 'token_logprobs' must be a list of numbers"),
    "ppl-no-tokens": ("ppl-given", '{"id": "a", "category": "MC", "token_logprobs": []}\n',
                      2, "line 1: record a: no tokens"),
    "ppl-nan-log-prob": ("ppl-given", '{"id": "a", "category": "MC", "token_logprobs": [-1, NaN]}\n',
                         2, "line 1: record a: log-prob nan is not finite"),
    "ppl-infinite-log-prob": ("ppl-given",
                              '{"id": "a", "category": "MC", "token_logprobs": [-Infinity]}\n',
                              2, "line 1: record a: log-prob -inf is not finite"),
    "ppl-perplexity-overflows": ("ppl-given",
                                 '{"id": "a", "category": "MC", "token_logprobs": [-1000]}\n',
                                 2, "line 1: record a: perplexity does not fit a float"),
    "ppl-category-std-overflows": ("ppl-given",
                                   '{"id": "a", "category": "MC", "token_logprobs": [-400]}\n'
                                   '{"id": "b", "category": "MC", "token_logprobs": [-1]}\n',
                                   2, "category MC: the mean or std of its perplexities"),
    "config-missing": ("analyze-config-missing", None, 1,
                       "No such file or directory"),
    "config-is-directory": ("analyze-config-dir", None, 1, "Is a directory"),
    # checked before the input is read: that input is malformed, or missing
    "zero-tau": ("classify-tau-0", '{"id": "p1", "solutions": ["def f(:\\n"]}\n', 1,
                 "tau must be 1 or more, got 0"),
    "zero-tau-in-config": ("correlate-missing", '{"tau": 0}', 1,
                           "tau must be 1 or more, got 0"),
    "negative-seed": ("correlate-seed-negative", "[1]", 1,
                      "seed must be 0 or more, got -5"),
    "negative-seed-in-config": ("correlate-missing", '{"seed": -1}', 1,
                                "seed must be 0 or more, got -1"),
    "correlate-zero-bins-alone": ("correlate-bins-0-alone", "[1]", 1,
                                  "bins and per_bin must be positive, got 0 and None"),
    "correlate-negative-bins-alone": ("correlate-bins-negative", None, 1,
                                      "bins and per_bin must be positive, got -2 and None"),
    # a flag for a setting the subcommand does not read
    "unread-flag-analyze": ("analyze-jobs", None, 1, "unrecognized arguments: --jobs"),
    "unread-flag-classify": ("classify-wall-time", None, 1,
                             "unrecognized arguments: --wall-time"),
    "unread-flag-singularize": ("singularize-table", None, 1,
                                "unrecognized arguments: --table"),
    "unread-flag-filter": ("filter-tau", None, 1, "unrecognized arguments: --tau"),
    "unread-flag-passk": ("passk-profile", None, 1, "unrecognized arguments: --profile"),
    "unread-flag-correlate": ("correlate-memory", None, 1,
                              "unrecognized arguments: --memory"),
    "unread-flag-ppl": ("ppl-seed", None, 1, "unrecognized arguments: --seed"),
}
INPUT_COMMANDS = {
    "verify", "correlate", "correlate-bins-0", "correlate-per-bin-0", "correlate-per-bin-5",
    "corpus",
    "analyze-given", "singularize-given", "correlate-seed-negative", "ppl-given",
    "classify-tau-0", "correlate-bins-0-alone", "filter-given", "passk-given",
    "passk-gens-given",
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_exits_with_one_line(capsys, monkeypatch, tmp_path, case):
    command, text, want_code, message = BAD_INPUT_CASES[case]

    def no_runs(*args, **kwargs):
        raise AssertionError("sandbox ran before validation")

    monkeypatch.setattr(cli_module, "filter_corpus", no_runs)
    monkeypatch.setattr(cli_module, "verify_equivalence", no_runs)
    source = tmp_path / "a.py"
    source.write_text("def f(x):\n    return x\nprint(f(1))\n")
    given = tmp_path / "given"
    if text is not None:
        given.write_bytes(text if isinstance(text, bytes) else text.encode("utf-8"))
    corpus = str(FIXTURES / "mini_corpus.jsonl")
    argv = {
        "analyze": ["analyze", str(source)],
        "classify": ["classify", corpus],
        "filter": ["filter", corpus, "--out", str(tmp_path / "kept.jsonl")],
        "filter-wall-time-nan": ["filter", corpus, "--out", "-", "--wall-time", "nan"],
        "filter-wall-time-inf": ["filter", corpus, "--out", "-", "--wall-time", "inf"],
        "filter-wall-time-1e30": ["filter", corpus, "--out", "-", "--wall-time", "1e30"],
        "filter-memory-huge": ["filter", corpus, "--out", "-",
                               "--memory", "99999999999999999999"],
        "filter-jobs-negative": ["filter", corpus, "--out", "-", "--jobs", "-3"],
        "classify-dir": ["classify", str(tmp_path)],
        "analyze-long-path": ["analyze", str(tmp_path / ("x" * 5000))],
        "singularize-long-out": ["singularize", str(source), "--out", str(tmp_path / ("x" * 5000))],
        "verify": ["singularize", str(source), "--verify", str(given)],
        "correlate": ["correlate", str(given)],
        "correlate-bins-0": ["correlate", str(given), "--per-bin", "1", "--bins", "0"],
        "correlate-per-bin-0": ["correlate", str(given), "--per-bin", "0"],
        "correlate-per-bin-5": ["correlate", str(given), "--per-bin", "5"],
        "correlate-bins-0-alone": ["correlate", str(given), "--bins", "0"],
        "correlate-bins-negative": ["correlate", str(tmp_path / "missing.jsonl"),
                                    "--bins", "-2"],
        "corpus": ["classify", str(given)],
        "analyze-given": ["analyze", str(given)],
        "singularize-given": ["singularize", str(given)],
        "correlate-seed-negative": ["correlate", str(given), "--seed", "-5"],
        "correlate-missing": ["correlate", str(tmp_path / "missing.jsonl")],
        "ppl-given": ["ppl", str(given)],
        "classify-tau-0": ["classify", str(given), "--tau", "0"],
        "analyze-config-missing": ["analyze", str(source), "--config",
                                   str(tmp_path / "missing.json")],
        "analyze-config-dir": ["analyze", str(source), "--config", str(tmp_path)],
        "analyze-jobs": ["analyze", str(source), "--jobs", "2"],
        "classify-wall-time": ["classify", corpus, "--wall-time", "1"],
        "singularize-table": ["singularize", str(source), "--table"],
        "filter-tau": ["filter", corpus, "--out", str(tmp_path / "kept.jsonl"), "--tau", "3"],
        "passk-profile": ["passk", corpus, "--gens", str(FIXTURES / "mini_generations.jsonl"),
                          "--profile", "py3"],
        "filter-given": ["filter", str(given), "--out", str(tmp_path / "kept.jsonl")],
        "passk-given": ["passk", str(given), "--gens", str(FIXTURES / "mini_generations.jsonl")],
        "passk-gens-given": ["passk", corpus, "--gens", str(given)],
        "correlate-memory": ["correlate", str(tmp_path / "missing.jsonl"), "--memory", "1"],
        "ppl-seed": ["ppl", str(FIXTURES / "logprobs.jsonl"), "--seed", "1"],
    }[command]
    if text is not None and command not in INPUT_COMMANDS:
        argv += ["--config", str(given)]
    code, out, err = run_cli(capsys, *argv)
    assert code == want_code
    assert out == ""
    assert err.count("\n") == 1 and message in err


# -- each row field is read with its kind -------------------------------------

# in an argv, these stand for the file of rows and a unit to singularize
GIVEN, UNIT = "<rows>", "<unit>"
# Each row type: an argv that reads a file of its rows, a well-typed row,
# and the path to each typed field in it with the kinds of JSON value the
# field takes, and for a list the kinds its items take.
ROW_FIELDS = {
    "corpus": (
        ["filter", GIVEN, "--out", os.devnull],
        {"id": "p1", "description": "", "difficulty": None, "solutions": ["print(1)\n"],
         "tests": [{"input": "", "output": "1\n"}]},
        {("id",): ({"string", "int"}, None), ("description",): ({"string"}, None),
         ("solutions",): ({"list"}, {"string"}), ("tests",): ({"list"}, {"object"}),
         ("tests", 0, "input"): ({"string"}, None), ("tests", 0, "output"): ({"string"}, None)},
    ),
    "generations": (
        ["passk", str(FIXTURES / "mini_corpus.jsonl"), "--gens", GIVEN],
        {"id": "p01", "generations": ["print(1)\n"]},
        {("id",): ({"string", "int"}, None), ("generations",): ({"list"}, {"string"})},
    ),
    "verify": (
        ["singularize", UNIT, "--verify", GIVEN],
        {"input": "", "output": "1\n"},
        {("input",): ({"string"}, None), ("output",): ({"string"}, None)},
    ),
    "scored": (
        ["correlate", GIVEN],
        {"unit_id": "u0", "mos": 0.5, "pass1": 1.0},
        {("unit_id",): ({"string", "int"}, None), ("mos",): ({"int", "float"}, None),
         ("pass1",): ({"int", "float"}, None)},
    ),
    "logprobs": (
        ["ppl", GIVEN],
        {"id": "a", "category": "MC", "token_logprobs": [-1.0]},
        {("id",): ({"string", "int"}, None), ("category",): ({"string"}, None),
         ("token_logprobs",): ({"list"}, {"int", "float"})},
    ),
}
JSON_KINDS = {type(None): "null", bool: "bool", int: "int", float: "float", str: "string",
              list: "list", dict: "object"}
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=5,
)


def values_not_taken(kinds: set, item_kinds: set | None):
    """JSON values of each kind outside ``kinds``; for a list field, also
    lists holding an item of a kind outside ``item_kinds``."""
    values = JSON_VALUES.filter(lambda v: JSON_KINDS[type(v)] not in kinds)
    if item_kinds is None:
        return values
    return values | st.lists(JSON_VALUES, min_size=1, max_size=3).filter(
        lambda v: any(JSON_KINDS[type(item)] not in item_kinds for item in v))


@pytest.mark.parametrize("row_type, path", [
    pytest.param(row_type, path, id=f"{row_type}-{'.'.join(map(str, path))}")
    for row_type, (_, _, fields) in ROW_FIELDS.items() for path in fields
])
def test_a_field_of_another_kind_exits_2_naming_its_key(tmp_path_factory, row_type, path):
    argv, row, fields = ROW_FIELDS[row_type]
    work = tmp_path_factory.mktemp("rows")
    rows, unit = work / "rows.jsonl", work / "unit.py"
    unit.write_text("def f(x):\n    return x\nprint(f(1))\n")
    argv = [{GIVEN: str(rows), UNIT: str(unit)}.get(arg, arg) for arg in argv]

    def no_runs(*args, **kwargs):
        raise AssertionError("a program ran")

    @settings(max_examples=30, deadline=None)
    @given(value=values_not_taken(*fields[path]))
    def check(value):
        bad = json.loads(json.dumps(row))
        holder = bad
        for step in path[:-1]:
            holder = holder[step]
        holder[path[-1]] = value
        rows.write_text(json.dumps(bad) + "\n")
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert (code, out.getvalue()) == (2, "")
        assert err.getvalue().count("\n") == 1 and f"{path[-1]!r}" in err.getvalue()
        assert "Traceback" not in err.getvalue()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli_module, "passes_each", no_runs)
        patch.setattr(corpus_module, "passes_each", no_runs)
        patch.setattr(cli_module, "verify_equivalence", no_runs)
        check()


def test_an_integer_id_reads_as_its_string(capsys, tmp_path):
    rows = [{"id": 7, "solutions": ["print(1)\n"]}, {"id": "8", "solutions": ["print(2)\n"]}]
    corpus = tmp_path / "c.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    code, out, err = run_cli(capsys, "classify", str(corpus))
    assert (code, err) == (0, "")
    assert [row["problem_id"] for row in json.loads(out)["problems"]] == ["7", "8"]
    corpus.write_text(corpus.read_text() + '{"id": "7", "solutions": []}\n')
    code, _, err = run_cli(capsys, "classify", str(corpus))
    assert code == 2 and "line 3: duplicate id '7' (first on line 1)" in err


@pytest.mark.parametrize("name", ["mini_corpus", "filter_corpus"])
def test_corpus_commands_give_the_same_output_in_any_row_order(capsys, tmp_path, name):
    # problems come in id order, whatever the order of the rows
    lines = (FIXTURES / f"{name}.jsonl").read_text().splitlines(keepends=True)
    gens = (FIXTURES / "mini_generations.jsonl").read_text().splitlines(keepends=True)
    results = []
    for order in (slice(None), slice(None, None, -1)):
        corpus, gens_file = tmp_path / "corpus.jsonl", tmp_path / "gens.jsonl"
        corpus.write_text("".join(lines[order]))
        gens_file.write_text("".join(gens[order]))
        runs = [["classify", str(corpus)],
                ["filter", str(corpus), "--out", str(tmp_path / "kept.jsonl"),
                 "--report", str(tmp_path / "report.json"), "--jobs", "2"]]
        if name == "mini_corpus":
            runs.append(["passk", str(corpus), "--gens", str(gens_file), "--k", "1,2",
                         "--jobs", "2"])
        result = [run_cli(capsys, *argv) for argv in runs]
        result += [(tmp_path / "kept.jsonl").read_bytes(), (tmp_path / "report.json").read_bytes()]
        results.append(result)
    assert results[0] == results[1]
    assert all(code == 0 for code, _, _ in results[0][:-2])


# -- classify and analyze over --jobs worker processes ------------------------


def without_jobs(out: str, jobs: int) -> str:
    """The report with its echo of --jobs, the one part that may differ, masked."""
    assert out.count(f'"jobs": {jobs}\n') == 1
    return out.replace(f'"jobs": {jobs}\n', '"jobs": "masked"\n')


def generated_corpus(path, problems: int = 12, per_problem: int = 3):
    with open(path, "w", encoding="utf-8") as handle:
        for p in range(problems):
            seeds = range(p * per_problem, (p + 1) * per_problem)
            row = {"id": f"g{p:02d}", "solutions": [runnable_program(s)[0] for s in seeds]}
            handle.write(json.dumps(row) + "\n")
    return path


@pytest.mark.parametrize("name", [
    "mini_corpus", "filter_corpus", "singularize_corpus", "generated",
])
def test_classify_output_is_the_same_for_any_jobs(capsys, tmp_path, name):
    if name == "generated":
        corpus = generated_corpus(tmp_path / "generated.jsonl")
    else:
        corpus = FIXTURES / f"{name}.jsonl"
    results = []
    for jobs in (1, 2, 3):
        code, out, err = run_cli(capsys, "classify", str(corpus), "--jobs", str(jobs))
        assert (code, err) == (0, "")
        results.append(without_jobs(out, jobs))
        assert_no_children()
    assert results[1] == results[0] and results[2] == results[0]
    assert json.loads(results[0])["problems"]


def test_classify_reports_the_first_error_in_id_order(capsys, tmp_path):
    corpus = tmp_path / "c.jsonl"
    rows = [  # file order differs from id order; p2 is the first bad one by id
        {"id": "p5", "solutions": ["print(1)\n", "for x in\n"]},
        {"id": "p1", "solutions": ["print(1)\n"]},
        {"id": "p4", "solutions": ["print(4)\n"]},
        {"id": "p2", "solutions": ["print(2)\n", "def f(:\n"]},
        {"id": "p3", "solutions": ["print(3)\n"]},
        {"id": "p6", "solutions": ["print(6)\n"]},
    ]
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    results = []
    for jobs in ("1", "2"):
        code, out, err = run_cli(capsys, "classify", str(corpus), "--jobs", jobs)
        assert_no_children()
        results.append((code, out, err))
    assert results[1] == results[0]
    code, out, err = results[0]
    assert (code, out) == (2, "")
    assert err.count("\n") == 1 and "p2[1]" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_classify_gives_a_problem_with_no_solutions_neither_pick(capsys, tmp_path, jobs):
    rows = [
        {"id": "p1", "solutions": ["print(1)\n", "def f(x):\n    return x\nprint(f(1))\n"]},
        {"id": "p2", "solutions": []},
        {"id": "p3", "solutions": ["print(3)\n"]},
    ]
    outs = []
    for name, kept in (("with.jsonl", rows), ("without.jsonl", rows[::2])):
        corpus = tmp_path / name
        corpus.write_text("".join(json.dumps(row) + "\n" for row in kept))
        code, out, err = run_cli(capsys, "classify", str(corpus), "--jobs", jobs)
        assert_no_children()
        assert (code, err) == (0, "")
        outs.append(json.loads(out)["problems"])
    with_empty, without = outs
    assert with_empty[1] == {"problem_id": "p2", "mc_solution_index": None,
                             "sc_solution_index": None, "mos_values": []}
    assert with_empty[::2] == without


_classify_problem = cli_module._classify_problem


def _row_with_pid(problem, count_short_circuit, tau):
    """A classify row that names the process it was computed in."""
    return {**_classify_problem(problem, count_short_circuit, tau), "pid": os.getpid()}


@pytest.mark.parametrize("jobs", ["1", "64"])
def test_classify_runs_in_place_or_in_one_worker_per_problem_at_most(
        capsys, monkeypatch, jobs):
    monkeypatch.setattr(cli_module, "_classify_problem", _row_with_pid)
    code, out, _ = run_cli(
        capsys, "classify", str(FIXTURES / "mini_corpus.jsonl"), "--jobs", jobs)
    assert code == 0
    pids = {row["pid"] for row in json.loads(out)["problems"]}
    if jobs == "1":
        assert pids == {os.getpid()}
    else:  # one share per problem, share 0 in the CLI's own process
        assert os.getpid() in pids and len(pids) == 10
    assert_no_children()


def _fail_at(*bad):
    def fn(i):
        if i in bad:
            raise ValueError(f"item {i}")
        return i, os.getpid()
    return fn


def test_map_jobs_gives_rows_in_input_order_one_share_per_process():
    rows = cli_module._map_jobs(_fail_at(), list(range(10)), 3)
    assert [i for i, _ in rows] == list(range(10))
    pids = [pid for _, pid in rows]
    assert pids[::3] == [os.getpid()] * 4
    assert len(set(pids)) == 3 and pids[1::3] == [pids[1]] * 3
    assert_no_children()


# with two shares, item i is in share i % 2: share 1 fails first (3, 6),
# share 0 fails first (2, 5), or share 1 fails twice (7, 9)
@pytest.mark.parametrize("bad, first", [((3, 6), 3), ((2, 5), 2), ((7, 9), 7)])
def test_map_jobs_raises_the_first_failing_item_in_input_order(bad, first):
    with pytest.raises(ValueError, match=f"^item {first}$"):
        cli_module._map_jobs(_fail_at(*bad), list(range(10)), 2)
    assert_no_children()


def test_classify_raises_when_a_worker_is_killed(capsys, monkeypatch):
    cli_pid = os.getpid()

    def killed_in_a_worker(problem, count_short_circuit, tau):
        if os.getpid() != cli_pid:
            os.kill(os.getpid(), signal.SIGKILL)
        return _classify_problem(problem, count_short_circuit, tau)

    monkeypatch.setattr(cli_module, "_classify_problem", killed_in_a_worker)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="was killed by signal 9"):
        main(["classify", str(FIXTURES / "mini_corpus.jsonl"), "--jobs", "2"])
    assert time.monotonic() - start < 10
    assert_no_children()


def test_map_jobs_kills_its_workers_when_it_is_interrupted():
    cli_pid = os.getpid()

    def interrupted_here_stuck_in_workers(i):
        if os.getpid() == cli_pid:
            raise KeyboardInterrupt
        time.sleep(60)

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        cli_module._map_jobs(interrupted_here_stuck_in_workers, list(range(6)), 3)
    assert time.monotonic() - start < 10
    assert_no_children()


SHORT_CIRCUIT_SOLUTION = "def f(a):\n    return " + " and ".join(["a"] * 9) + "\nprint(f(1))\n"


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("profile, mos", [("py3", 0.5), ("py3-nosc", 1.0)])
def test_classify_counts_short_circuit_operators_as_the_profile_says(
        capsys, tmp_path, jobs, profile, mos):
    # f's eight `and`s make cc_total 10 and m* 2 under py3, but 2 and 0 under
    # py3-nosc; the second solution defines nothing and scores 0 under both
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("".join(
        json.dumps({"id": f"p{i}", "solutions": [SHORT_CIRCUIT_SOLUTION, "print(1)\n"]}) + "\n"
        for i in range(3)))
    code, out, _ = run_cli(capsys, "classify", str(corpus), "--profile", profile, "--jobs", jobs)
    assert_no_children()
    assert code == 0
    assert [row["mos_values"] for row in json.loads(out)["problems"]] == [[mos, 0.0]] * 3


def test_default_jobs_counts_the_cores_this_process_may_use():
    assert cli_module._effective_jobs(3) == 3
    assert cli_module._effective_jobs(0) == len(os.sched_getaffinity(0))


def run_probe(probe: str) -> str:
    """Run ``probe`` in a fresh interpreter; its stdout."""
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# which of the process-pool modules classify once forked with and of numpy
# are loaded (numpy's OpenBLAS starts threads at import, and classify
# forks), then how many threads the process has
PRINT_LOADED_AND_THREADS = (
    "print(sorted(m for m in sys.modules if m == 'multiprocessing'"
    " or m.startswith('multiprocessing.') or m == 'concurrent.futures.process'"
    " or m == 'numpy'))\n"
    "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)\n"
)


def test_importing_the_cli_loads_no_multiprocessing():
    probe = "import os, sys, modscore.cli\n" + PRINT_LOADED_AND_THREADS
    assert run_probe(probe).splitlines() == ["[]", "1"]


def test_classify_over_jobs_loads_no_multiprocessing_and_leaves_one_thread():
    probe = (
        "import contextlib, io, os, sys\n"
        "from modscore.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main(['classify', {str(FIXTURES / 'mini_corpus.jsonl')!r},"
        " '--jobs', '2']) == 0\n"
    ) + PRINT_LOADED_AND_THREADS
    assert run_probe(probe).splitlines() == ["[]", "1"]


def test_only_the_statistics_commands_load_numpy(tmp_path):
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(
        json.dumps({"unit_id": f"u{i}", "mos": i / 10, "pass1": (i * 7 % 10) / 10}) + "\n"
        for i in range(10)
    ))
    probe = (
        "import contextlib, io, sys\n"
        "from modscore.cli import main\n"
        "def run(*argv):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(list(argv)) == 0, argv\n"
        f"run('classify', {str(FIXTURES / 'mini_corpus.jsonl')!r})\n"
        f"run('filter', {str(FIXTURES / 'filter_corpus.jsonl')!r},"
        f" '--out', {str(tmp_path / 'kept.jsonl')!r})\n"
        "print('numpy' in sys.modules)\n"
        f"run('correlate', {str(scored)!r})\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_probe(probe).split() == ["False", "True"]


def test_correlate_gives_the_same_output_for_any_blas_threads(tmp_path):
    # past 10,000 rows OpenBLAS splits a dot product across its threads,
    # which rounds r by their number unless numpy loads with one thread
    rng = random.Random(20_000)
    scored = tmp_path / "scored.jsonl"
    with open(scored, "w", encoding="utf-8") as handle:
        for i in range(20_000):
            mos = round(rng.random(), 3)
            pass1 = round(min(1.0, 0.3 * mos + 0.7 * rng.random()), 2)
            handle.write(json.dumps({"unit_id": f"u{i}", "mos": mos, "pass1": pass1}) + "\n")
    probe = (
        "import contextlib, io, json, os\n"
        "from modscore.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()) as out:\n"
        f"    assert main(['correlate', {str(scored)!r}]) == 0\n"
        "print(json.dumps([out.getvalue(), os.environ.get('OPENBLAS_NUM_THREADS')]))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    runs = {threads: subprocess.Popen(
                [sys.executable, "-c", probe], stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True, env={**env, "OPENBLAS_NUM_THREADS": threads})
            for threads in ("1", "2")}
    outs = {}
    for threads, proc in runs.items():
        out, err = proc.communicate(timeout=120)
        assert proc.returncode == 0, err
        outs[threads], left_set = json.loads(out)
        assert left_set == threads  # the caller's setting, restored
    assert outs["1"] == outs["2"]
    assert json.loads(outs["1"])["samples"] == 20_000


def test_statistics_leave_the_blas_variable_as_they_found_it():
    probe = (
        "import os, sys\n"
        "from modscore import stats\n"
        "stats.correlations([1, 2, 3, 4], [1, 3, 2, 4], 10)\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
        "print(len(os.listdir('/proc/self/task')) if os.path.isdir('/proc/self/task') else 1)\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**env, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["None", "1"]


# -- each report echoes the settings its command read -------------------------

SANDBOX_FLAGS = ["--jobs", "2", "--wall-time", "3", "--memory", "268435456",
                 "--output-cap", "65536", "--exact-output"]
SANDBOX_ECHO = {"jobs": 2, "wall_time": 3.0, "memory": 268435456, "output_cap": 65536,
                "exact_output": True}
# Written out here, not read from cli._READS: (flags, the config block they give).
ECHOES = {
    "analyze": (["--profile", "py3-nosc", "--tau", "3"], {"profile": "py3-nosc", "tau": 3}),
    "classify": (["--tau", "4", "--jobs", "1"], {"profile": "py3", "tau": 4, "jobs": 1}),
    "filter": (SANDBOX_FLAGS, SANDBOX_ECHO),
    "passk": (SANDBOX_FLAGS, SANDBOX_ECHO),
    "correlate": (["--seed", "7", "--jobs", "2"], {"seed": 7}),  # --jobs is taken, unread
    "ppl": ([], {}),
}


@pytest.mark.parametrize("command", sorted(ECHOES))
def test_report_echoes_what_it_read_and_replays_from_it(capsys, monkeypatch, tmp_path, command):
    flags, echo = ECHOES[command]
    figures = sorted(str(path) for path in (FIXTURES / "figure_style").glob("*.py"))
    written = {"filter": ["kept.jsonl", "report.json"]}.get(command, [])
    inputs = {
        "analyze": figures,
        "classify": [str(FIXTURES / "mini_corpus.jsonl")],
        "filter": [str(FIXTURES / "filter_corpus.jsonl"), "--out", "kept.jsonl",
                   "--report", "report.json"],
        "passk": [str(FIXTURES / "mini_corpus.jsonl"), "--gens",
                  str(FIXTURES / "mini_generations.jsonl"), "--k", "1,2", "--n", "4"],
        "correlate": [str(write_scored(tmp_path / "scored.jsonl"))],
        "ppl": [str(FIXTURES / "logprobs.jsonl")],
    }[command]
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, command, *inputs, *flags)
    assert (code, err) == (0, "")
    assert json.loads(out)["config"] == echo
    files = [(tmp_path / name).read_bytes() for name in written]
    if command == "filter":
        assert json.loads(files[1])["config"] == echo
    replay = tmp_path / "replay.json"
    replay.write_text(json.dumps(json.loads(out)["config"]))
    code, replayed, err = run_cli(capsys, command, *inputs, "--config", str(replay))
    assert (code, err) == (0, "")
    assert replayed == out
    assert [(tmp_path / name).read_bytes() for name in written] == files
