"""Isolated execution of candidate programs against stdin/stdout tests.

Each run is a separate OS process: an isolated interpreter (-I), its own
process group (killed wholesale when the run ends or times out), CPU and
address-space rlimits, and stdout redirected to a size-capped file
(RLIMIT_FSIZE turns runaway output into a resource verdict instead of
filling the disk).
Network isolation is left to the surrounding environment.

Every run forks from a zygote: a pre-started ``python -I`` that forks
one child per run (``_zygote.py``), so a run costs a fork instead of an
interpreter start-up. Batches (``passes_each``, ``count_correct``) go
through one job queue of programs served by worker threads, each owning
a zygote; a run outside a batch starts a zygote of its own and closes it
after the run.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .errors import SandboxUnavailable

try:
    import resource
except ImportError:  # non-POSIX
    resource = None

_ZYGOTE_MAIN = str(Path(__file__).with_name("_zygote.py"))

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
    """A pre-started ``python -I`` that forks one child per run (``_zygote.py``).

    Start-up is paid once per worker instead of once per run. The child
    isolates itself (``_zygote.limit``); the zygote enforces the wall
    time and kills the run's process group when the run ends. A zygote
    that cannot start or dies raises SandboxUnavailable, after the run's
    group is killed.
    """

    def __init__(self):
        request_r, request_w = os.pipe()
        reply_r, reply_w = os.pipe()
        try:
            self._proc = subprocess.Popen(
                [sys.executable, "-I", _ZYGOTE_MAIN, str(request_r), str(reply_w)],
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
                try:
                    os.killpg(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            raise SandboxUnavailable("zygote exited during a run")
        kind, _, rest = reply[:-1].partition(b" ")
        if kind == b"E":
            raise SandboxUnavailable(f"cannot isolate run: {rest.decode('utf-8', 'replace')}")
        return int(kind), rest == b"1"

    def close(self):
        """End the zygote (EOF on its requests) and reap it."""
        self._requests.close()
        self._replies.close()
        self._proc.wait()


def _classify(returncode: int, timed_out: bool, stdout: bytes, stderr: bytes,
              duration: float, limits: RunLimits) -> RunResult:
    if timed_out:
        return RunResult("timeout", stdout, duration)
    if returncode != 0:
        if returncode == -signal.SIGXFSZ or len(stdout) >= limits.output_cap:
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

    The run forks from a zygote: inside ``_in_zygotes`` the worker's,
    anywhere else one started for this run alone and closed after it.
    """
    if resource is None:
        raise SandboxUnavailable("resource limits unsupported on this platform")
    zygote = getattr(_worker, "zygote", None)
    with tempfile.TemporaryDirectory(prefix="modscore-run-") as tmp:
        tmp_path = Path(tmp)
        (tmp_path / "prog.py").write_text(code, encoding="utf-8")
        (tmp_path / "stdin").write_bytes(stdin_data)
        start = time.monotonic()
        if zygote is not None:
            returncode, timed_out = zygote.run(tmp, limits)
        else:
            zygote = _Zygote()
            try:
                returncode, timed_out = zygote.run(tmp, limits)
            finally:
                zygote.close()
        duration = time.monotonic() - start
        stdout = (tmp_path / "stdout").read_bytes()[: limits.output_cap]
        stderr = (tmp_path / "stderr").read_bytes()[:4096]
    return _classify(returncode, timed_out, stdout, stderr, duration, limits)


def run_solution(code: str, test, limits: RunLimits, exact: bool = False) -> RunResult:
    """Run one program on one test and judge its output."""
    result = run_program(code, test.input, limits)
    if result.verdict != "completed":
        return result
    if outputs_match(result.stdout, test.expected_output, exact=exact):
        return RunResult("pass", result.stdout, result.duration)
    return RunResult("wrong_output", result.stdout, result.duration)


def passes_all(code: str, tests, limits: RunLimits, exact: bool = False) -> bool:
    for test in tests:
        if run_solution(code, test, limits, exact=exact).verdict != "pass":
            return False
    return True


def _in_zygotes(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items] over min(jobs, len(items)) worker threads.

    Each worker starts its own zygote on its first item, so ``run_program``
    calls made by ``fn`` fork from it. Every zygote started is closed and
    reaped before this returns, also when ``fn`` raises.
    """
    if not items:
        return []
    from concurrent.futures import ThreadPoolExecutor

    zygotes: list[_Zygote] = []

    def job(item):
        if getattr(_worker, "zygote", None) is None:
            _worker.zygote = _Zygote()
            zygotes.append(_worker.zygote)
        return fn(item)

    try:
        with ThreadPoolExecutor(max_workers=max(1, min(jobs, len(items)))) as pool:
            futures = [pool.submit(job, item) for item in items]
            try:
                return [future.result() for future in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    finally:
        for zygote in zygotes:
            zygote.close()


def passes_each(programs, limits: RunLimits, exact: bool = False, jobs: int = 0) -> list[bool]:
    """passes_all for each (code, tests) pair, fanned out over one job queue."""
    return _in_zygotes(
        lambda program: passes_all(program[0], program[1], limits, exact=exact),
        list(programs), jobs,
    )


def count_correct(candidates, tests, limits: RunLimits, exact: bool = False, jobs: int = 0) -> int:
    """Number of candidates that pass every test."""
    if not tests:
        raise ValueError("tests must be non-empty")
    return sum(passes_each([(code, tests) for code in candidates], limits, exact, jobs))
