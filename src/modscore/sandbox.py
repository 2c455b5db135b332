"""Isolated execution of candidate programs against stdin/stdout tests.

The only module that runs programs. Each run is a separate OS process:
an interpreter started by ``_python``, its own process group (killed
wholesale when the run ends or times out), CPU and address-space rlimits,
and stdout in a size-capped file (RLIMIT_FSIZE turns runaway output into
a resource verdict instead of filling the disk). Network isolation is
left to the surrounding environment.

Every run forks from a zygote, a pre-started interpreter running the
script ``_zygote.py``, so a run costs a fork instead of an interpreter
start-up. Every run goes through one job queue served by worker threads
(``_queue_in_zygotes``, the one place that makes and ends zygotes), each
owning a zygote that starts on the worker's first run; a job may add
follow-up jobs behind every item. A run outside a batch is a batch of one.

``passes_each`` (and ``count_correct`` through it) makes one job per
program, queued in program order, that walks the program's tests in
order and stops at the first failure, as ``passes_all`` does. Once the
first test has passed, and after each test that passes, the job queues
a helper (one at a time per program) that walks on from the next test
not yet taken. A helper starts only on a worker that no program's job
is left for, so on a full queue the runs are exactly those of
``passes_all``, and near the end of a batch the idle workers spread a
slow program's tests. Once a test fails, the program's tests with a
later index are never started; one already running runs to its end,
and its verdict is not used. Its tests with an earlier index still
run. So every run ``passes_all`` makes is made, with the same verdict;
a program that fails its first test costs one run; and each program's
verdict is the one ``passes_all`` gives.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path

from .errors import SandboxUnavailable
from .parsing import SourceUnit

try:
    import resource
except ImportError:  # non-POSIX
    resource = None

_ZYGOTE_MAIN = str(Path(__file__).with_name("_zygote.py"))
_STDERR_TAIL = 4096  # bytes of a run's stderr that are judged


def _python(*args: str) -> dict:
    """Popen's ``args`` and ``env`` for an interpreter started as every zygote is.

    What ``-I`` gives but ``-E``: no user site directory, no script
    directory on ``sys.path`` and no ``PYTHON*`` variable, except one
    fixed string-hash seed, so a set's order is the same in every run.
    """
    env = {name: value for name, value in os.environ.items() if not name.startswith("PYTHON")}
    return {"args": [sys.executable, "-s", "-P", *args], "env": {**env, "PYTHONHASHSEED": "0"}}


# The zygote of the current worker thread, if any. run_program keeps its
# signature, so a worker hands it the zygote through the thread it runs on.
_worker = threading.local()


@dataclass(frozen=True)
class RunLimits:
    wall_time: float = 10.0  # seconds
    memory: int = 512 * 1024 * 1024  # bytes
    output_cap: int = 1024 * 1024  # bytes

    def __post_init__(self):
        if self.wall_time <= 0 or self.memory <= 0 or self.output_cap <= 0:
            raise ValueError("all limits must be positive")
        # the most the zygote's interval timer and setrlimit can hold
        if not self.wall_time < 2**31:  # also false for nan
            raise ValueError("wall_time must be finite and below 2**31 seconds")
        if self.memory >= 2**63 or self.output_cap >= 2**63:
            raise ValueError("memory and output_cap must be below 2**63 bytes")


@dataclass(frozen=True)
class RunResult:
    verdict: str  # pass | wrong_output | timeout | runtime_error | resource_exceeded
    stdout: bytes
    duration: float
    detail: str = ""


def normalize_output(data: bytes) -> bytes:
    """Trailing whitespace per line and trailing blank lines are ignored."""
    lines = [line.rstrip() for line in data.split(b"\n")]
    while lines and lines[-1] == b"":
        lines.pop()
    return b"\n".join(lines)


def outputs_match(actual: bytes, expected: bytes, exact: bool = False) -> bool:
    if exact:
        return actual == expected
    return normalize_output(actual) == normalize_output(expected)


class _Zygote:
    """An interpreter started by ``_python`` that forks one child per run.

    It starts on its first run, so start-up is paid once per worker that
    runs something instead of once per run. The child isolates itself
    (``_zygote.limit``); the zygote enforces the wall time and kills the
    run's process group when the run ends. A zygote that cannot start or
    dies raises SandboxUnavailable, after the run's group is killed.
    One worker thread uses it; a run it makes always runs to its end.
    """

    def __init__(self):
        self._proc = None  # until the first run

    def _start(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            self._proc = subprocess.Popen(
                **_python(_ZYGOTE_MAIN, str(request_r), str(reply_w)),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                pass_fds=(request_r, reply_w),
            )
        except OSError as exc:
            os.close(request_w)
            os.close(reply_r)
            raise SandboxUnavailable(f"cannot start zygote: {exc}") from exc
        finally:
            os.close(request_r)
            os.close(reply_w)
        self._requests = open(request_w, "wb", buffering=0)
        self._replies = open(reply_r, "rb")

    def run(self, tmp: str, limits: RunLimits) -> tuple[int, bool]:
        """Run tmp/prog.py in a forked child: (return code, timed out)."""
        if self._proc is None:
            self._start()
        fields = (tmp, repr(limits.wall_time), str(limits.memory), str(limits.output_cap))
        pid = None
        try:
            self._requests.write(b"\0".join(map(os.fsencode, fields)) + b"\n")
            reply = self._replies.readline()
            if reply.startswith(b"P "):
                pid = int(reply[2:])
                reply = self._replies.readline()
        except OSError as exc:
            raise SandboxUnavailable(f"zygote unreachable: {exc}") from exc
        if not reply.endswith(b"\n"):
            if pid is not None:  # the dead zygote can no longer end the run
                _kill_run(pid)
            raise SandboxUnavailable("zygote exited during a run")
        kind, _, rest = reply[:-1].partition(b" ")
        if kind == b"E":
            raise SandboxUnavailable(f"cannot isolate run: {rest.decode('utf-8', 'replace')}")
        return int(kind), rest == b"1"

    def close(self):
        """End the zygote (EOF on its requests) and reap it."""
        if self._proc is None:
            return
        self._requests.close()
        self._replies.close()
        self._proc.wait()


def _kill_run(pid: int):
    # The run's group once its child has called setsid; the pid alone
    # before that, when the child has no children yet.
    for kill in (os.killpg, os.kill):
        try:
            kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def _classify(returncode: int, timed_out: bool, stdout: bytes, stderr: bytes,
              stderr_size: int, duration: float, limits: RunLimits) -> RunResult:
    """The verdict of one run; ``stderr`` is the end of a file of
    ``stderr_size`` bytes."""
    if timed_out:
        return RunResult("timeout", stdout, duration)
    if returncode != 0:
        if returncode == -signal.SIGXFSZ or max(len(stdout), stderr_size) >= limits.output_cap:
            return RunResult("resource_exceeded", stdout, duration, "output cap")
        if returncode == -signal.SIGKILL or b"MemoryError" in stderr:
            return RunResult("resource_exceeded", stdout, duration, "memory")
        if returncode == -signal.SIGXCPU:
            return RunResult("timeout", stdout, duration, "cpu")
        lines = stderr.decode("utf-8", "replace").strip().splitlines()
        return RunResult("runtime_error", stdout, duration, lines[-1] if lines else "")
    return RunResult("completed", stdout, duration)


def run_program(code: str, stdin_data: bytes, limits: RunLimits) -> RunResult:
    """Execute one program once and classify the outcome.

    The run forks from the zygote of the worker it runs on; a call outside
    a batch is a batch of one run.
    """
    if resource is None:
        raise SandboxUnavailable("resource limits unsupported on this platform")
    if getattr(_worker, "zygote", None) is None:
        return _in_zygotes(lambda _: _run(code, stdin_data, limits), [None], jobs=1)[0]
    return _run(code, stdin_data, limits)


def _run(code: str, stdin_data: bytes, limits: RunLimits) -> RunResult:
    with tempfile.TemporaryDirectory(prefix="modscore-run-") as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "prog.py").write_text(code, encoding="utf-8")
        (tmp_path / "stdin").write_bytes(stdin_data)
        start = time.monotonic()
        returncode, timed_out = _worker.zygote.run(tmp, limits)
        duration = time.monotonic() - start
        stdout = (tmp_path / "stdout").read_bytes()[: limits.output_cap]
        with open(tmp_path / "stderr", "rb") as handle:
            # the end holds what _classify reads: the traceback's last line
            stderr_size = handle.seek(0, os.SEEK_END)
            handle.seek(max(0, stderr_size - _STDERR_TAIL))
            stderr = handle.read()
    return _classify(returncode, timed_out, stdout, stderr, stderr_size, duration, limits)


def run_solution(code: str, test, limits: RunLimits, exact: bool = False) -> RunResult:
    """Run one program on one test and judge its output."""
    result = run_program(code, test.input, limits)
    if result.verdict != "completed":
        return result
    if outputs_match(result.stdout, test.expected_output, exact=exact):
        return RunResult("pass", result.stdout, result.duration)
    return RunResult("wrong_output", result.stdout, result.duration)


def passes_all(code: str, tests, limits: RunLimits, exact: bool = False) -> bool:
    """The tests run in order, up to the first failure: the walk passes_each keeps."""
    for test in tests:
        if run_solution(code, test, limits, exact=exact).verdict != "pass":
            return False
    return True


def _in_zygotes(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items] over up to ``jobs`` worker threads."""
    return _queue_in_zygotes(lambda item, queue: fn(item), items, jobs)


def _queue_in_zygotes(fn, items: list, jobs: int) -> list:
    """[fn(item, queue) for item in items] over up to ``jobs`` worker threads.

    ``queue(item)`` puts a follow-up job ``fn(item, queue)`` at the back of
    the same queue, behind every item, so it starts only on a worker that
    no item is left for; its result is dropped, and what it raises is
    raised here. Each worker has a zygote that starts on its first run,
    so ``run_program`` calls made by ``fn`` fork from it, and no call
    starts more zygotes than ``min(jobs, runs)``. Every zygote started is
    closed and reaped before this returns, also when a job raises.
    """
    if not items:
        return []
    from concurrent.futures import ThreadPoolExecutor

    zygotes: list[_Zygote] = []
    follow_ups = deque()
    lock = threading.Lock()
    closing = False

    def job(item):
        if getattr(_worker, "zygote", None) is None:
            _worker.zygote = _Zygote()
            zygotes.append(_worker.zygote)
        return fn(item, queue)

    def queue(item):
        with lock:
            if not closing:
                follow_ups.append(pool.submit(job, item))

    try:
        with ThreadPoolExecutor(max_workers=max(1, jobs)) as pool:
            with lock:  # no follow-up goes ahead of an item
                futures = [pool.submit(job, item) for item in items]
            try:
                results = [future.result() for future in futures]
                # a job queues its follow-ups before it ends
                while follow_ups:
                    follow_ups.popleft().result()
                return results
            except BaseException:
                with lock:
                    closing = True
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        for zygote in zygotes:
            zygote.close()


def passes_each(programs, limits: RunLimits, exact: bool = False, jobs: int = 0) -> list[bool]:
    """passes_all for each (code, tests) pair, one job per program.

    A job walks its program's tests in order. Once the first test has
    passed, a helper job behind every program's job walks on from the
    next test not taken yet. A failure stops the program's later tests:
    untaken ones never start; one already running runs to its end, and
    its verdict is not used.
    """
    programs = list(programs)
    taken = [0] * len(programs)  # per program, its tests taken so far, in order
    # per program, the lowest index of a failed test, len(tests) while none has
    failed_at = [len(tests) for _, tests in programs]
    helped = set()  # programs with a helper job queued that has not started
    lock = threading.Lock()

    def walk(program, queue):
        code, tests = programs[program]
        with lock:
            helped.discard(program)
        while True:
            with lock:
                index = taken[program]
                if index >= failed_at[program]:  # none left, or after a failure
                    return
                taken[program] += 1
            if run_solution(code, tests[index], limits, exact=exact).verdict != "pass":
                with lock:
                    failed_at[program] = min(failed_at[program], index)
                return
            with lock:  # this job takes the next test, a helper the one after
                wanted = program not in helped and len(tests) - taken[program] >= 2
                if wanted:
                    helped.add(program)
            if wanted:
                queue(program)

    _queue_in_zygotes(walk, [i for i, (_, tests) in enumerate(programs) if tests], jobs)
    return [first == len(tests) for first, (_, tests) in zip(failed_at, programs)]


def count_correct(candidates, tests, limits: RunLimits, exact: bool = False, jobs: int = 0) -> int:
    """Number of candidates that pass every test."""
    if not tests:
        raise ValueError("tests must be non-empty")
    return sum(passes_each([(code, tests) for code in candidates], limits, exact, jobs))


def compare_runs(pairs, limits: RunLimits, exact: bool = False, jobs: int = 1) -> list:
    """Per (original, transformed, tests) triple of program texts and
    tests: None when both give the same verdict and output on every test,
    else the first test that tells them apart, as (index, the original's
    RunResult, the transformed's).

    Outputs are compared as the judge compares them: normalized, or
    byte-exact when ``exact``. Every run of every pair goes on one queue
    over up to ``jobs`` workers. Sandbox failures propagate as
    SandboxUnavailable, never as a difference.
    """
    pairs = [(original, transformed, list(tests)) for original, transformed, tests in pairs]
    runs = [(code, test) for original, transformed, tests in pairs
            for test in tests for code in (original, transformed)]
    results = iter(_in_zygotes(lambda run: run_solution(*run, limits, exact=exact), runs, jobs))
    found = []
    for _, _, tests in pairs:
        ran = [(index, next(results), next(results)) for index in range(len(tests))]
        found.append(next((
            (index, before, after) for index, before, after in ran
            if before.verdict != after.verdict
            or not outputs_match(before.stdout, after.stdout, exact=exact)), None))
    return found


def verify_equivalence(original: SourceUnit, transformed: SourceUnit, tests, limits: RunLimits,
                       exact: bool = False) -> bool:
    """True iff both units produce the same verdict and output on every
    test, by ``compare_runs``; every run forks from one zygote."""
    return compare_runs([(original.text, transformed.text, tests)], limits, exact)[0] is None
