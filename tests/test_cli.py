import json
import subprocess
import sys

import pytest

from modscore.cli import main

from conftest import FIXTURES


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
    import modscore.cli as cli_module
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
    import modscore.cli as cli_module

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
