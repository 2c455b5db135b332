import ast
import signal
import sys
import time

import pytest
from hypothesis import given, seed, settings, strategies as st

from conftest import SRC, assert_no_children, count_runs
from modscore import sandbox
from modscore.corpus import TestCase
from modscore.sandbox import (
    RunLimits,
    count_correct,
    normalize_output,
    outputs_match,
    passes_all,
    passes_each,
    run_solution,
)

DOUBLE = "print(int(input()) * 2)\n"
# 8 KiB of stderr before what the judge must read at its end
WARNINGS = "import sys\nsys.stderr.write('warn: x\\n' * 1024)\n"


def test_only_the_sandbox_runs_programs():
    """The inliner imports nothing from the sandbox, and only the batch
    path (``_queue_in_zygotes``) makes a zygote."""
    package = SRC / "modscore"
    imported = []
    for node in ast.walk(ast.parse((package / "inliner.py").read_text())):
        if type(node) is ast.ImportFrom:
            imported += [node.module or ""] + [alias.name for alias in node.names]
        elif type(node) is ast.Import:
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if name.split(".")[-1] == "sandbox"]
    tree = ast.parse((package / "sandbox.py").read_text())
    queue = next(node for node in tree.body if getattr(node, "name", "") == "_queue_in_zygotes")
    made = [(path.name, number) for path in sorted(package.glob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if "_Zygote(" in line]
    assert made and all(name == "sandbox.py" and queue.lineno <= number <= queue.end_lineno
                        for name, number in made)


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        RunLimits(wall_time=0)


def test_largest_limits_the_os_holds_still_run():
    limits = RunLimits(wall_time=2**31 - 1, memory=2**63 - 1, output_cap=2**63 - 1)
    assert run_solution(DOUBLE, TestCase(b"3\n", b"6\n"), limits).verdict == "pass"


def test_echo_double_passes(fast_limits):
    result = run_solution(DOUBLE, TestCase(b"3\n", b"6\n"), fast_limits)
    assert result.verdict == "pass"


def test_wrong_output(fast_limits):
    result = run_solution(DOUBLE, TestCase(b"3\n", b"7\n"), fast_limits)
    assert result.verdict == "wrong_output"


def test_infinite_loop_times_out():
    limits = RunLimits(wall_time=1.5, memory=512 * 1024 * 1024, output_cap=64 * 1024)
    result = run_solution("while True:\n    pass\n", TestCase(b"", b""), limits)
    assert result.verdict == "timeout"
    assert result.duration >= 1.0


def test_runtime_error(fast_limits):
    result = run_solution("raise ValueError('boom')\n", TestCase(b"", b""), fast_limits)
    assert result.verdict == "runtime_error"
    assert "ValueError" in result.detail


def test_whitespace_only_stderr_is_runtime_error(fast_limits):
    code = "import sys\nsys.stderr.write('\\n')\nsys.exit(3)\n"
    result = run_solution(code, TestCase(b"", b""), fast_limits)
    assert result.verdict == "runtime_error"
    assert result.detail == ""


def test_memory_limit_exceeded():
    limits = RunLimits(wall_time=5.0, memory=128 * 1024 * 1024, output_cap=64 * 1024)
    hog = "data = bytearray(512 * 1024 * 1024)\nprint(len(data))\n"
    result = run_solution(hog, TestCase(b"", b"x\n"), limits)
    assert result.verdict == "resource_exceeded"


def test_memory_error_after_long_stderr_is_resource_exceeded():
    limits = RunLimits(wall_time=5.0, memory=128 * 1024 * 1024, output_cap=64 * 1024)
    result = run_solution(WARNINGS + "bytearray(1 << 30)\n", TestCase(b"", b""), limits)
    assert (result.verdict, result.detail) == ("resource_exceeded", "memory")


def test_runtime_error_detail_is_the_last_line_of_long_stderr(fast_limits):
    result = run_solution(WARNINGS + "raise ValueError('bad')\n", TestCase(b"", b""),
                          fast_limits)
    assert (result.verdict, result.detail) == ("runtime_error", "ValueError: bad")


def test_a_run_killed_for_cpu_time_is_a_timeout():
    # the kernel sends SIGXCPU at the CPU limit; judged without running a
    # CPU-bound program
    result = sandbox._classify(-signal.SIGXCPU, False, b"partial", b"", 0, 1.5,
                               RunLimits(wall_time=1.0))
    assert (result.verdict, result.detail, result.stdout) == ("timeout", "cpu", b"partial")


def test_output_cap_exceeded():
    limits = RunLimits(wall_time=5.0, memory=512 * 1024 * 1024, output_cap=4096)
    noisy = "for _ in range(100000):\n    print('spam' * 20)\n"
    result = run_solution(noisy, TestCase(b"", b""), limits)
    assert result.verdict == "resource_exceeded"


def test_stderr_over_the_output_cap_is_resource_exceeded():
    # the write past the cap fails, so the traceback cannot be written and
    # the end of stderr is a warning, not the error
    limits = RunLimits(wall_time=5.0, memory=512 * 1024 * 1024, output_cap=4096)
    result = run_solution(WARNINGS + "print('done')\n", TestCase(b"", b"done\n"), limits)
    assert (result.verdict, result.detail) == ("resource_exceeded", "output cap")


def test_trailing_whitespace_normalization(fast_limits):
    prog = "print('6 ')\n"
    assert run_solution(prog, TestCase(b"", b"6\n"), fast_limits).verdict == "pass"
    exact = run_solution(prog, TestCase(b"", b"6\n"), fast_limits, exact=True)
    assert exact.verdict == "wrong_output"


def test_normalize_output_drops_trailing_blank_lines():
    assert normalize_output(b"a \nb\n\n\n") == b"a\nb"
    assert outputs_match(b"6 \n", b"6\n")
    assert not outputs_match(b"6 \n", b"6\n", exact=True)


def test_deterministic_verdicts(fast_limits):
    test = TestCase(b"5\n", b"10\n")
    verdicts = {run_solution(DOUBLE, test, fast_limits).verdict for _ in range(3)}
    assert verdicts == {"pass"}


SET_ORDER = "print(' '.join({'ab', 'cd', 'ef'}))\n"


@pytest.mark.parametrize("jobs", [1, 2])
def test_one_hash_seed_for_every_run(fast_limits, jobs):
    # the order of a set of strings follows the string-hash seed
    expected = run_solution(SET_ORDER, TestCase(b"", b""), fast_limits).stdout
    programs = [(SET_ORDER, [TestCase(b"", expected)])] * 12
    verdicts = [passes_each(programs, fast_limits, jobs=jobs) for _ in range(3)]
    assert verdicts == [[True] * 12] * 3


def test_count_correct_all_pass(fast_limits):
    tests = [TestCase(b"1\n", b"2\n"), TestCase(b"4\n", b"8\n")]
    assert count_correct([DOUBLE] * 5, tests, fast_limits) == 5


def test_count_correct_requires_all_tests(fast_limits):
    # passes the first test, fails the second
    half = "n = int(input())\nprint(2 if n == 1 else 0)\n"
    tests = [TestCase(b"1\n", b"2\n"), TestCase(b"4\n", b"8\n")]
    assert count_correct([half] * 3, tests, fast_limits) == 0


def test_count_correct_mixed_fixture(fast_limits):
    tests = [TestCase(b"2\n", b"4\n")]
    candidates = [
        DOUBLE,                          # pass
        "print(int(input()) + 2)\n",     # pass on this input
        "print(0)\n",                    # wrong
        "raise RuntimeError()\n",        # error
        DOUBLE,                          # pass
    ]
    assert count_correct(candidates, tests, fast_limits) == 3


def test_count_correct_parallel_matches_serial(fast_limits):
    tests = [TestCase(b"3\n", b"6\n")]
    candidates = [DOUBLE, "print(9)\n", DOUBLE]
    serial = count_correct(candidates, tests, fast_limits)
    parallel = count_correct(candidates, tests, fast_limits, jobs=3)
    assert serial == parallel == 2


def test_sandbox_unavailable_never_degrades(fast_limits, monkeypatch):
    import modscore.sandbox as sandbox_module
    from modscore.errors import SandboxUnavailable

    monkeypatch.setattr(sandbox_module, "resource", None)
    with pytest.raises(SandboxUnavailable):
        sandbox_module.run_program("print(1)\n", b"", fast_limits)


# -- the queue of test runs ---------------------------------------------------


def numbered_tests(count: int) -> list[TestCase]:
    return [TestCase(f"{i}\n".encode(), f"{2 * i}\n".encode()) for i in range(count)]


def test_a_program_that_fails_its_first_test_runs_once(fast_limits, monkeypatch):
    runs = count_runs(monkeypatch)
    assert passes_each([("print(-1)\n", numbered_tests(3))], fast_limits, jobs=2) == [False]
    assert len(runs) == 1


def test_a_passing_program_runs_every_test_once(fast_limits, monkeypatch):
    runs = count_runs(monkeypatch)
    assert passes_each([(DOUBLE, numbered_tests(3))], fast_limits, jobs=2) == [True]
    assert sorted(run[1] for run in runs) == [b"0\n", b"1\n", b"2\n"]


def test_passes_all_stops_at_the_first_failure(fast_limits, monkeypatch):
    runs = count_runs(monkeypatch)
    wrong_on_1 = "n = int(input())\nprint(-1 if n == 1 else 2 * n)\n"
    assert not passes_all(wrong_on_1, numbered_tests(3), fast_limits)
    assert [run[1:3] for run in runs] == [(b"0\n", "pass"), (b"1\n", "wrong_output")]


def test_the_tests_after_the_first_spread_over_the_workers(fast_limits, monkeypatch):
    runs = count_runs(monkeypatch)
    slow_double = "import time\ntime.sleep(0.4)\nprint(int(input()) * 2)\n"
    assert passes_each([(slow_double, numbered_tests(3))], fast_limits, jobs=2) == [True]
    first, second, third = sorted(runs, key=lambda run: run[3])
    assert first[1] == b"0\n" and second[3] >= first[4]  # the first test runs alone
    assert third[3] < second[4]  # the other two overlap


def test_a_full_queue_walks_a_programs_tests_in_order(fast_limits, monkeypatch):
    runs = count_runs(monkeypatch)
    # passes test 0, fails test 1 after 0.3 s; test 2 would pass
    wrong_on_1 = (
        "import time\nn = int(input())\nif n == 1:\n    time.sleep(0.3)\n"
        "print(-1 if n == 1 else 2 * n)\n"
    )
    # keeps the other worker busy until wrong_on_1 has failed
    slow = "import time\ntime.sleep(1.0)\nprint(int(input()) * 2)\n"
    batch = [(wrong_on_1, numbered_tests(3)), (slow, numbered_tests(1)),
             (DOUBLE, numbered_tests(1))]
    assert passes_each(batch, fast_limits, jobs=2) == [False, True, True]
    assert [run[1:3] for run in runs if run[0] == wrong_on_1] == [
        (b"0\n", "pass"), (b"1\n", "wrong_output")]


def test_follow_ups_start_after_every_item():
    order = []

    def job(item, queue):
        order.append(item)
        if item == "a":
            queue("x")

    assert sandbox._queue_in_zygotes(job, ["a", "b", "c"], jobs=1) == [None] * 3
    assert order == ["a", "b", "c", "x"]


def test_a_later_test_in_flight_runs_to_its_end_and_is_not_used(monkeypatch):
    runs = count_runs(monkeypatch)
    # passes test 0, fails test 1 after 0.3 s; test 2, which a helper
    # starts while test 1 runs, passes after 0.6 s
    program = (
        "import time\nn = int(input())\n"
        "if n == 1:\n    time.sleep(0.3)\n    print(-1)\n"
        "else:\n    time.sleep(0.6 if n == 2 else 0)\n    print(2 * n)\n"
    )
    assert passes_each([(program, numbered_tests(3))], RunLimits(wall_time=10.0),
                       jobs=2) == [False]
    outcomes = {run[1]: run[2] for run in runs}
    assert outcomes == {b"0\n": "pass", b"1\n": "wrong_output", b"2\n": "pass"}
    assert_no_children()


def test_a_failure_lets_the_earlier_tests_finish(fast_limits, monkeypatch):
    runs = count_runs(monkeypatch)
    # test 1 takes 0.3 s and passes; test 2 fails at once
    program = (
        "import time\nn = int(input())\nif n == 1:\n    time.sleep(0.3)\n"
        "print(-1 if n == 2 else 2 * n)\n"
    )
    assert passes_each([(program, numbered_tests(3))], fast_limits, jobs=2) == [False]
    assert sorted(run[1:3] for run in runs) == [
        (b"0\n", "pass"), (b"1\n", "pass"), (b"2\n", "wrong_output")]


KINDS = st.one_of(
    st.just(("pass", 0)),
    st.tuples(st.sampled_from(["wrong", "raise"]), st.integers(0, 3)),
)


def planted(kind: str, at: int) -> str:
    """Doubles its input, except on input ``at``: wrong output or an exception."""
    if kind == "pass":
        return DOUBLE
    bad = "print(-1)" if kind == "wrong" else "raise ValueError(n)"
    return f"n = int(input())\nif n == {at}:\n    {bad}\nelse:\n    print(2 * n)\n"


@seed(14)
@settings(max_examples=25, deadline=None, database=None)
@given(st.lists(st.tuples(KINDS, st.integers(1, 3)), min_size=1, max_size=6),
       st.integers(1, 3))
def test_queue_gives_the_serial_early_exit_verdicts(programs, jobs):
    limits = RunLimits(wall_time=5.0)
    batch = [(planted(kind, at) + f"# {i}\n", numbered_tests(count))
             for i, ((kind, at), count) in enumerate(programs)]
    serial = []  # the tests passes_all runs, with their verdicts, per program
    for (kind, at), count in programs:
        fails = kind != "pass" and at < count
        bad = "wrong_output" if kind == "wrong" else "runtime_error"
        serial.append([(f"{i}\n".encode(), "pass") for i in range(at if fails else count)]
                      + ([(f"{at}\n".encode(), bad)] if fails else []))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # let the workers' threads interleave often
    try:
        with pytest.MonkeyPatch.context() as patch:
            runs = count_runs(patch)
            verdicts = passes_each(batch, limits, jobs=jobs)
    finally:
        sys.setswitchinterval(interval)
    assert verdicts == [len(expected) == count and expected[-1][1] == "pass"
                        for expected, (_, count) in zip(serial, programs)]
    for (code, _), expected in zip(batch, serial):
        made = sorted((run[1], run[2]) for run in runs if run[0] == code)
        # every test serial early exit runs, then at most later tests
        assert made[: len(expected)] == expected
        if expected[-1][1] != "pass" and (jobs == 1 or len(expected) == 1):
            assert len(made) == len(expected)
