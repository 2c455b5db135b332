"""Forked runs against a fresh interpreter, and the scheduler's process hygiene.

The reference runs each program in a fresh interpreter started as a
zygote is (``_spawn``, with ``_zygote.limit`` as its ``preexec_fn``),
through the same ``run_solution`` with a spawner standing in for the
zygote of its one-run batch. Forked from a zygote, the same run must
give the same verdict, stdout and detail.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from modscore import sandbox
from modscore._zygote import limit
from modscore.cli import main
from modscore.corpus import TestCase, filter_corpus, load_corpus
from modscore.errors import SandboxUnavailable
from modscore.parsing import parse
from modscore.sandbox import RunLimits, count_correct, run_solution, verify_equivalence

from conftest import FIXTURES, SRC, assert_no_children, count_runs
from gen_programs import runnable_program

# kills the zygote it was forked from
KILL_PARENT = "import os, signal\nos.kill(os.getppid(), signal.SIGKILL)\n"
DOUBLE = "print(int(input()) * 2)\n"


def _spawn(tmp: str, limits: RunLimits) -> tuple[int, bool]:
    """Run tmp/prog.py in a fresh interpreter: (return code, timed out).

    ``preexec_fn`` can deadlock when other threads run Python code, so
    the reference runs only as lone runs, whose one worker thread is the
    only thread running Python code.
    """
    tmp_path = Path(tmp)
    try:
        with open(tmp_path / "stdin", "rb") as fin, \
                open(tmp_path / "stdout", "wb") as fout, \
                open(tmp_path / "stderr", "wb") as ferr:
            proc = subprocess.Popen(
                **sandbox._python("prog.py"),
                stdin=fin,
                stdout=fout,
                stderr=ferr,
                cwd=tmp,
                preexec_fn=lambda: limit(limits.memory, limits.output_cap, limits.wall_time),
            )
    except OSError as exc:
        raise SandboxUnavailable(f"cannot spawn interpreter: {exc}") from exc
    try:
        return proc.wait(timeout=limits.wall_time), False
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return proc.wait(), True


class Spawner:
    """Takes the place of a lone run's zygote: every run spawns an interpreter."""

    def run(self, tmp, limits):
        return _spawn(tmp, limits)

    def close(self):
        pass


def assert_same_on_both_paths(cases, limits):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sandbox, "_Zygote", Spawner)
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
    "interpreter": (
        "import os, sys\nprint(sys.orig_argv[1:], sys.path[0], sys.flags)\n"
        "print(sorted(name for name in os.environ if name.startswith('PYTHON')))\n"
    ),
    "set_order": "print(' '.join({'ab', 'cd', 'ef'}))\n",
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
    "stderr_cap": "import sys\nsys.stderr.write('warn: x\\n' * 1024)\nprint('done')\n",
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
    assert (forked["stderr_cap"].verdict, forked["stderr_cap"].detail) == (
        "resource_exceeded", "output cap")
    assert forked["flush_fails"].detail == "OSError: flush failed"
    assert forked["exit_message"].detail == "bad input"
    assert forked["thread"].stdout == b"early\nlate\n"
    assert forked["atexit_after_error"].stdout == b"bye\n"
    flags = forked["interpreter"].stdout
    assert b"isolated=0" in flags and b"hash_randomization=0" in flags
    assert flags.endswith(b"['PYTHONHASHSEED']\n")


def test_long_stderr_is_judged_by_its_end():
    # more stderr than the 4 KiB the judge reads, less than the output cap
    limits = RunLimits(wall_time=5.0, memory=128 * 1024 * 1024, output_cap=64 * 1024)
    warnings = "import sys\nsys.stderr.write('warn: x\\n' * 1024)\n"
    cases = [(warnings + end, TestCase(b"", b""))
             for end in ("bytearray(1 << 30)\n", "raise ValueError('bad')\n")]
    assert_same_on_both_paths(cases, limits)
    memory, error = sandbox._in_zygotes(
        lambda case: run_solution(case[0], case[1], limits), cases, jobs=2
    )
    assert (memory.verdict, memory.detail) == ("resource_exceeded", "memory")
    assert (error.verdict, error.detail) == ("runtime_error", "ValueError: bad")


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
    started = count_zygotes(monkeypatch)
    corpus = write_corpus(tmp_path / "c.jsonl", [DOUBLE, "print(0)\n"])
    code = main(["filter", str(corpus), "--out", str(tmp_path / "out.jsonl"),
                 "--jobs", "64"])
    assert code == 0
    assert 1 <= len(started) <= 2
    assert_no_children()


WRONG_ON_1 = "n = int(input())\nprint(-1 if n == 1 else 2 * n)\n"


@pytest.mark.parametrize("jobs", [1, 2, 3])
@pytest.mark.parametrize("programs", [
    [("print(-1)\n", 3)],
    [(DOUBLE, 2)],
    [(DOUBLE, 3), ("print(-1)\n", 1)],
    [(WRONG_ON_1, 3)],  # a helper may run test 2, whose verdict is unused, or skip it
])
def test_no_more_zygotes_than_workers_or_runs(fast_limits, monkeypatch, programs, jobs):
    started = count_zygotes(monkeypatch)
    runs = count_runs(monkeypatch)
    tests = [TestCase(f"{i}\n".encode(), f"{2 * i}\n".encode()) for i in range(3)]
    verdicts = sandbox.passes_each([(code, tests[:count]) for code, count in programs],
                                   fast_limits, jobs=jobs)
    assert verdicts == [code == DOUBLE for code, _ in programs]
    assert 1 <= len(started) <= min(jobs, len(runs))
    assert_no_children()


def test_a_zygote_starts_on_its_first_run(monkeypatch):
    started = count_zygotes(monkeypatch)
    assert sandbox._queue_in_zygotes(lambda item, queue: item, [1, 2, 3], jobs=3) == [1, 2, 3]
    assert started == []


def test_a_run_in_a_missing_directory_is_unavailable_and_the_next_one_runs(fast_limits,
                                                                          tmp_path):
    zygote = sandbox._Zygote()
    try:
        with pytest.raises(SandboxUnavailable,
                           match="^cannot isolate run: FileNotFoundError: "):
            zygote.run(str(tmp_path / "missing"), fast_limits)
        (tmp_path / "prog.py").write_text("print(7)\n")
        (tmp_path / "stdin").write_bytes(b"")
        assert zygote.run(str(tmp_path), fast_limits) == (0, False)
        assert (tmp_path / "stdout").read_bytes() == b"7\n"
    finally:
        zygote.close()
    assert_no_children()


def test_a_run_is_reaped_before_its_reply(fast_limits, tmp_path):
    """Once a run's reply is read, its pid is free."""
    zygote = sandbox._Zygote()
    zygote._start()
    request = b"\0".join([os.fsencode(tmp_path), b"5.0", str(fast_limits.memory).encode(),
                          str(fast_limits.output_cap).encode()]) + b"\n"
    (tmp_path / "prog.py").write_text("print(1)\n")
    (tmp_path / "stdin").write_bytes(b"")
    try:
        zygote._requests.write(request)
        pid = int(zygote._replies.readline()[2:])
        assert zygote._replies.readline() == b"0 0\n"
        assert process_state(pid) is None
    finally:
        zygote.close()


def process_state(pid: int):
    """The state letter of a process, or None once its pid is free."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return None
    return stat.rsplit(")", 1)[1].split()[0]


def count_zygotes(monkeypatch) -> list:
    """Every _Zygote started from now on, in the order they start."""
    started = []

    class Counted(sandbox._Zygote):
        def _start(self):
            started.append(self)
            super()._start()

    monkeypatch.setattr(sandbox, "_Zygote", Counted)
    return started


def test_verify_equivalence_forks_every_run_from_one_zygote(fast_limits, monkeypatch):
    started = count_zygotes(monkeypatch)
    unit = parse(DOUBLE)
    tests = [TestCase(b"3\n", b"6\n"), TestCase(b"4\n", b"8\n")]
    assert verify_equivalence(unit, unit, tests, fast_limits)
    assert not verify_equivalence(unit, parse("print(0)\n"), tests, fast_limits)
    assert verify_equivalence(unit, unit, [], fast_limits)
    assert len(started) == 2  # one per call that runs something
    assert_no_children()


def test_one_shot_run_forks_from_a_zygote_of_its_own(fast_limits, monkeypatch):
    started = count_zygotes(monkeypatch)
    result = run_solution(DOUBLE, TestCase(b"3\n", b"6\n"), fast_limits)
    assert result.verdict == "pass"
    assert sandbox.run_program(DOUBLE, b"4\n", fast_limits).stdout == b"8\n"
    assert len(started) == 2  # one per run
    assert_no_children()


def test_one_shot_run_that_kills_its_parent_spares_the_caller():
    # In a child interpreter, so that a run which kills its caller fails
    # this test instead of ending pytest.
    script = (
        "from modscore.errors import SandboxUnavailable\n"
        "from modscore.sandbox import RunLimits, run_solution\n"
        "from modscore.corpus import TestCase\n"
        "try:\n"
        f"    run_solution({KILL_PARENT!r}, TestCase(b'', b''), RunLimits(wall_time=5.0))\n"
        "except SandboxUnavailable as exc:\n"
        "    print('unavailable:', exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(b"unavailable: zygote exited during a run"), proc.stdout


# -- a run ends with everything it started --------------------------------------


def forks_a_late_writer(marker) -> str:
    """A program whose one forked child writes ``marker`` after 1.5 s."""
    return (
        "import os, time\n"
        "if os.fork() == 0:\n"
        f"    time.sleep(1.5)\n    open({str(marker)!r}, 'w').close()\n    os._exit(0)\n"
        "print(1)\n"
    )


def test_a_run_ends_with_the_processes_it_started(tmp_path):
    limits = RunLimits(wall_time=1.0)
    test = TestCase(b"", b"1\n")
    one_shot = run_solution(forks_a_late_writer(tmp_path / "one-shot"), test, limits)
    batch = count_correct([forks_a_late_writer(tmp_path / "batch")], [test], limits, jobs=1)
    assert (one_shot.verdict, batch) == ("pass", 1)
    time.sleep(2.0)
    assert not (tmp_path / "one-shot").exists() and not (tmp_path / "batch").exists()
    assert_no_children()


def running(pid: int) -> bool:
    """The process exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rpartition(b")")[2].split()[0]
    except (FileNotFoundError, ProcessLookupError):
        return False
    return state not in (b"Z", b"X")


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="reads /proc")
@pytest.mark.parametrize("batch", [False, True])
def test_a_run_that_kills_its_zygote_is_killed_too(tmp_path, batch):
    pid_file = tmp_path / "pid"
    program = (
        f"import os, signal, time\nopen({str(pid_file)!r}, 'w').write(str(os.getpid()))\n"
        "os.kill(os.getppid(), signal.SIGKILL)\ntime.sleep(8)\n"
    )
    limits = RunLimits(wall_time=5.0)
    with pytest.raises(SandboxUnavailable):
        if batch:
            count_correct([program], [TestCase(b"", b"")], limits, jobs=1)
        else:
            run_solution(program, TestCase(b"", b""), limits)
    raised = time.monotonic()
    pid = int(pid_file.read_text())
    while running(pid) and time.monotonic() - raised < 1.0:
        time.sleep(0.01)
    assert not running(pid)
    assert_no_children()
