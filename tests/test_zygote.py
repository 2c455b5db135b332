"""The zygote path against the spawn path, and the scheduler's process hygiene.

A run outside ``_in_zygotes`` spawns a fresh interpreter: that is the
reference. Inside it, the same ``run_solution`` forks from a zygote; both
must give the same verdict, stdout and detail.
"""

import json

import pytest

from modscore import sandbox
from modscore.cli import main
from modscore.corpus import TestCase, filter_corpus, load_corpus
from modscore.errors import SandboxUnavailable
from modscore.inliner import verify_equivalence
from modscore.parsing import parse
from modscore.sandbox import RunLimits, count_correct, run_solution

from conftest import FIXTURES, assert_no_children
from gen_programs import runnable_program

# kills the zygote it was forked from
KILL_PARENT = "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n"
DOUBLE = "print(int(input()) * 2)\n"


def assert_same_on_both_paths(cases, limits):
    spawned = [run_solution(code, test, limits) for code, test in cases]
    forked = sandbox._in_zygotes(
        lambda case: run_solution(case[0], case[1], limits), cases, jobs=2
    )
    for (code, test), a, b in zip(cases, spawned, forked):
        assert (b.verdict, b.stdout, b.detail) == (a.verdict, a.stdout, a.detail), code


@pytest.mark.parametrize("name", ["filter_corpus", "singularize_corpus", "mini_corpus"])
def test_fixture_corpora_agree(name, fast_limits):
    cases = [
        (solution, test)
        for problem in load_corpus(FIXTURES / f"{name}.jsonl")
        for solution in problem.solutions
        for test in problem.tests
    ]
    assert cases
    assert_same_on_both_paths(cases, fast_limits)


def test_generated_programs_agree(fast_limits):
    cases = []
    for seed in range(20):
        source, stdin = runnable_program(seed)
        cases.append((source, TestCase(stdin, b"")))
    assert_same_on_both_paths(cases, fast_limits)


EDGE_CASES = {
    "exit_code": "import sys\nprint('a')\nsys.exit(3)\n",
    "exit_message": "import sys\nsys.exit('bad input')\n",
    "exit_true": "import sys\nsys.exit(True)\n",
    "uncaught": "print('before')\nraise ValueError('boom')\n",
    "syntax_error": "print(\n",
    "whitespace_stderr": "import sys\nsys.stderr.write('\\n')\nsys.exit(3)\n",
    "atexit": "import atexit\natexit.register(lambda: print('bye'))\nprint('hi')\n",
    "atexit_after_error": (
        "import atexit\natexit.register(lambda: print('bye'))\nraise KeyError(1)\n"
    ),
    "thread": (
        "import threading, time\n"
        "def late():\n    time.sleep(0.2)\n    print('late')\n"
        "threading.Thread(target=late).start()\nprint('early')\n"
    ),
    "input": "a = input()\nb = input()\nprint(int(a) + int(b))\n",
    "stdin_buffer": "import sys\nprint(sorted(sys.stdin.buffer.read().split()))\n",
    "stdin_tell": "import sys\nsys.stdin.readline()\nprint(sys.stdin.tell(), sys.stdout.seekable())\n",
    "main_module": (
        "import sys\nprint(sorted(vars()), __name__, sys.argv,"
        " __file__.endswith('/prog.py'), type(__loader__).__name__)\n"
    ),
    "recursion_depth": (
        "def down(n):\n    try:\n        return down(n + 1)\n"
        "    except RecursionError:\n        return n\nprint(down(0))\n"
    ),
    "only_stdio_fds": (
        "import os\nopen_fds = []\nfor fd in range(256):\n    try:\n"
        "        os.fstat(fd)\n        open_fds.append(fd)\n    except OSError:\n"
        "        pass\nprint(open_fds)\n"
    ),
    "flush_fails": (
        "import sys\nclass Out:\n    closed = False\n    def write(self, s):\n"
        "        pass\n    def flush(self):\n        raise OSError('flush failed')\n"
        "sys.stdout = Out()\n"
    ),
    "output_cap": "for _ in range(100000):\n    print('spam' * 20)\n",
    "output_cap_at_exit": "print('x' * 10000)\n",
    "memory_cap": "data = bytearray(512 * 1024 * 1024)\nprint(len(data))\n",
    "timeout_with_child": (
        "import subprocess, sys, time\n"
        "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)'])\n"
        "print('started', flush=True)\ntime.sleep(30)\n"
    ),
}


def test_edge_cases_agree():
    limits = RunLimits(wall_time=1.5, memory=128 * 1024 * 1024, output_cap=4096)
    test = TestCase(b"2\n3\n", b"5\n")
    cases = [(code, test) for code in EDGE_CASES.values()]
    assert_same_on_both_paths(cases, limits)
    forked = dict(zip(EDGE_CASES, sandbox._in_zygotes(
        lambda case: run_solution(case[0], case[1], limits), cases, jobs=2
    )))
    assert forked["only_stdio_fds"].stdout == b"[0, 1, 2]\n"
    assert forked["input"].verdict == "pass"
    assert forked["timeout_with_child"].verdict == "timeout"
    assert forked["memory_cap"].verdict == "resource_exceeded"
    assert forked["output_cap_at_exit"].verdict == "resource_exceeded"
    assert forked["flush_fails"].detail == "OSError: flush failed"
    assert forked["exit_message"].detail == "bad input"
    assert forked["thread"].stdout == b"early\nlate\n"
    assert forked["atexit_after_error"].stdout == b"bye\n"


# -- process hygiene ----------------------------------------------------------


def write_corpus(path, solutions):
    row = {"id": "p1", "solutions": list(solutions),
           "tests": [{"input": "3\n", "output": "6\n"}]}
    path.write_text(json.dumps(row) + "\n")
    return path


def test_no_child_left_after_batches(fast_limits, tmp_path, capsys):
    tests = [TestCase(b"3\n", b"6\n")]
    assert count_correct([DOUBLE, "print(0)\n", DOUBLE], tests, fast_limits, jobs=2) == 2
    assert_no_children()
    problems = load_corpus(FIXTURES / "filter_corpus.jsonl")
    kept, _ = filter_corpus(problems, fast_limits, jobs=2)
    assert len(kept) == 8
    assert_no_children()
    corpus = write_corpus(tmp_path / "c.jsonl", [])
    gens = tmp_path / "g.jsonl"
    gens.write_text(json.dumps({"id": "p1", "generations": [DOUBLE, "print(0)\n"]}) + "\n")
    assert main(["passk", str(corpus), "--gens", str(gens), "--jobs", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["problems"][0]["c"] == 1
    assert_no_children()


def test_no_child_left_when_a_zygote_dies(fast_limits, tmp_path, capsys):
    tests = [TestCase(b"3\n", b"6\n")]
    with pytest.raises(SandboxUnavailable):
        count_correct([DOUBLE, KILL_PARENT, DOUBLE], tests, fast_limits, jobs=2)
    assert_no_children()
    corpus = write_corpus(tmp_path / "c.jsonl", [DOUBLE, KILL_PARENT])
    with pytest.raises(SandboxUnavailable):
        filter_corpus(load_corpus(corpus), fast_limits, jobs=2)
    assert_no_children()
    gens = tmp_path / "g.jsonl"
    gens.write_text(json.dumps({"id": "p1", "generations": [DOUBLE, KILL_PARENT]}) + "\n")
    assert main(["passk", str(corpus), "--gens", str(gens), "--jobs", "2"]) == 4
    assert "sandbox unavailable" in capsys.readouterr().err
    assert_no_children()


def test_no_child_left_when_a_job_raises(fast_limits):
    def job(code):
        run_solution(code, TestCase(b"3\n", b"6\n"), fast_limits)
        raise RuntimeError("job failed")

    with pytest.raises(RuntimeError):
        sandbox._in_zygotes(job, [DOUBLE] * 4, jobs=2)
    assert_no_children()


def test_zygote_that_cannot_start_is_unavailable(fast_limits, monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(sandbox, "_ZYGOTE_MAIN", str(tmp_path / "missing.py"))
    with pytest.raises(SandboxUnavailable):
        count_correct([DOUBLE], [TestCase(b"3\n", b"6\n")], fast_limits)
    corpus = write_corpus(tmp_path / "c.jsonl", [DOUBLE])
    code = main(["filter", str(corpus), "--out", str(tmp_path / "out.jsonl")])
    assert code == 4
    assert "sandbox unavailable" in capsys.readouterr().err
    assert_no_children()


def test_zygote_that_cannot_be_executed_is_unavailable(fast_limits, monkeypatch, tmp_path):
    monkeypatch.setattr(sandbox.sys, "executable", str(tmp_path / "no-python"))
    with pytest.raises(SandboxUnavailable):
        count_correct([DOUBLE], [TestCase(b"3\n", b"6\n")], fast_limits)


def test_zygote_that_dies_mid_run_is_unavailable(fast_limits):
    with pytest.raises(SandboxUnavailable):
        sandbox._in_zygotes(
            lambda code: run_solution(code, TestCase(b"", b""), fast_limits),
            [KILL_PARENT], jobs=1,
        )


def test_large_jobs_start_one_zygote_per_program_at_most(monkeypatch, tmp_path, capsys):
    started = []

    class Counted(sandbox._Zygote):
        def __init__(self):
            started.append(self)
            super().__init__()

    monkeypatch.setattr(sandbox, "_Zygote", Counted)
    corpus = write_corpus(tmp_path / "c.jsonl", [DOUBLE, "print(0)\n"])
    code = main(["filter", str(corpus), "--out", str(tmp_path / "out.jsonl"),
                 "--jobs", "64"])
    assert code == 0
    assert 1 <= len(started) <= 2
    assert_no_children()


def test_verify_equivalence_forks_every_run_from_one_zygote(fast_limits, monkeypatch):
    started = []

    class Counted(sandbox._Zygote):
        def __init__(self):
            started.append(self)
            super().__init__()

    def no_spawn(*args, **kwargs):
        raise AssertionError("verify_equivalence spawned an interpreter")

    monkeypatch.setattr(sandbox, "_Zygote", Counted)
    monkeypatch.setattr(sandbox, "_spawn", no_spawn)
    unit = parse(DOUBLE)
    tests = [TestCase(b"3\n", b"6\n"), TestCase(b"4\n", b"8\n")]
    assert verify_equivalence(unit, unit, tests, fast_limits)
    assert not verify_equivalence(unit, parse("print(0)\n"), tests, fast_limits)
    assert len(started) == 2  # one per call
    assert_no_children()
