import pytest

from modscore.corpus import TestCase
from modscore.sandbox import (
    RunLimits,
    count_correct,
    normalize_output,
    outputs_match,
    run_solution,
)

DOUBLE = "print(int(input()) * 2)\n"


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


def test_output_cap_exceeded():
    limits = RunLimits(wall_time=5.0, memory=512 * 1024 * 1024, output_cap=4096)
    noisy = "for _ in range(100000):\n    print('spam' * 20)\n"
    result = run_solution(noisy, TestCase(b"", b""), limits)
    assert result.verdict == "resource_exceeded"


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
