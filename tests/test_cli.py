import json
import os
import subprocess
import sys

import pytest

import modscore.cli as cli_module
from modscore.cli import main

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


def test_correlate(capsys, tmp_path):
    rows = [
        {"unit_id": f"u{i}", "mos": (i % 10) / 10 + 0.05, "pass1": ((i * 7) % 10) / 10}
        for i in range(60)
    ]
    scored = tmp_path / "scored.jsonl"
    scored.write_text("".join(json.dumps(r) + "\n" for r in rows))
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


def test_env_profile_override(capsys, tmp_path, monkeypatch):
    path = tmp_path / "a.py"
    path.write_text("def f(a, b):\n    return a and b\nprint(f(1, 2))\n")
    _, out_default, _ = run_cli(capsys, "analyze", str(path))
    monkeypatch.setenv("MODSCORE_PROFILE", "py3-nosc")
    _, out_env, _ = run_cli(capsys, "analyze", str(path), "--profile", "py3")
    cc_default = json.loads(out_default)["units"][0]["cc_total"]
    cc_env = json.loads(out_env)["units"][0]["cc_total"]
    assert cc_default == cc_env + 1  # short-circuit not counted under env profile


def test_config_file_flags_win(capsys, tmp_path):
    path = tmp_path / "a.py"
    path.write_text("print(1)\n")
    config = tmp_path / "conf.json"
    config.write_text(json.dumps({"tau": 9, "seed": 123}))
    _, out, _ = run_cli(capsys, "analyze", str(path), "--config", str(config))
    payload = json.loads(out)
    assert payload["config"]["tau"] == 9
    assert payload["config"]["seed"] == 123
    _, out2, _ = run_cli(
        capsys, "analyze", str(path), "--config", str(config), "--tau", "3"
    )
    assert json.loads(out2)["config"]["tau"] == 3


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


BAD_INPUT_CASES = {
    # name: (command, text of the config file, or of the input file for
    # "verify", "correlate" and "corpus" (str, or bytes written as they are),
    # or None; MODSCORE_PROFILE; exit code; part of the message)
    "env-profile": ("analyze", None, "bad", 1, "unknown profile 'bad'"),
    "tau-as-string": ("classify", '{"tau": "5"}', None, 1, "'tau' must be int"),
    "jobs-as-string": ("filter", '{"jobs": "2"}', None, 1, "'jobs' must be int"),
    "bool-as-int": ("analyze", '{"seed": true}', None, 1, "'seed' must be int"),
    "method-name-key": ("filter", '{"limits": 1}', None, 1, "unknown key 'limits'"),
    "misspelt-key": ("analyze", '{"tua": 3}', None, 1, "unknown key 'tua'"),
    "not-json": ("analyze", '{"tau": 3', None, 1, "not valid JSON"),
    "not-an-object": ("analyze", "[3]", None, 1, "must hold a JSON object"),
    "negative-limit": ("filter", '{"wall_time": -1}', None, 1, "limits must be positive"),
    "unknown-output-format": ("analyze", '{"output_format": "xml"}', None, 1,
                              "output_format must be 'json' or 'table'"),
    "corpus-is-directory": ("classify-dir", None, None, 2, "Is a directory"),
    "verify-not-json": ("verify", "nope", None, 2, "line 1: invalid JSON"),
    "verify-lacks-output": ("verify", '{"input": "1"}', None, 2, "line 1: test needs input/output"),
    "scored-row-not-object": ("correlate", "[1]", None, 2, "line 1: "),
    "corpus-not-utf8": ("corpus", b'{"id": "p1", "solutions": ["print(1)"]}\n{"id": "\xff"}\n',
                        None, 2, "line 2: not valid UTF-8"),
    "corpus-cr-lines-not-utf8": ("corpus", b'{"id": "p1", "solutions": []}\r{"id": "\xff"}\r',
                                 None, 2, "line 2: not valid UTF-8"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUT_CASES))
def test_bad_input_exits_with_one_line(capsys, monkeypatch, tmp_path, case):
    command, text, env_profile, want_code, message = BAD_INPUT_CASES[case]

    def no_runs(*args, **kwargs):
        raise AssertionError("sandbox ran before validation")

    monkeypatch.setattr(cli_module, "filter_corpus", no_runs)
    monkeypatch.setattr(cli_module, "verify_equivalence", no_runs)
    if env_profile is None:
        monkeypatch.delenv("MODSCORE_PROFILE", raising=False)
    else:
        monkeypatch.setenv("MODSCORE_PROFILE", env_profile)
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
        "classify-dir": ["classify", str(tmp_path)],
        "verify": ["singularize", str(source), "--verify", str(given)],
        "correlate": ["correlate", str(given)],
        "corpus": ["classify", str(given)],
    }[command]
    if text is not None and command not in ("verify", "correlate", "corpus"):
        argv += ["--config", str(given)]
    code, out, err = run_cli(capsys, *argv)
    assert code == want_code
    assert out == ""
    assert err.count("\n") == 1 and message in err


# -- classify and analyze over --jobs worker processes ------------------------


def without_jobs(out: str, jobs: int) -> str:
    """The report with its echo of --jobs, the one part that may differ, masked."""
    assert out.count(f'"jobs": {jobs},') == 1
    return out.replace(f'"jobs": {jobs},', '"jobs": "masked",')


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


_classify_problem = cli_module._classify_problem


def _row_with_pid(problem, profile_name, tau):
    """A classify row that names the process it was computed in."""
    return {**_classify_problem(problem, profile_name, tau), "pid": os.getpid()}


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
    else:
        assert os.getpid() not in pids and 1 <= len(pids) <= 10
    assert_no_children()


def test_default_jobs_counts_the_cores_this_process_may_use():
    assert cli_module._effective_jobs(3) == 3
    assert cli_module._effective_jobs(0) == len(os.sched_getaffinity(0))


def test_importing_the_cli_loads_no_multiprocessing():
    probe = (
        "import sys, modscore.cli\n"
        "print(sorted(m for m in sys.modules if m == 'multiprocessing'"
        " or m.startswith('multiprocessing.') or m == 'concurrent.futures.process'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
