import os
import sys
import threading
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def count_runs(monkeypatch) -> list:
    """(code, stdin, verdict or exception name, start, end) of every run from now on."""
    from modscore import sandbox

    runs = []
    lock = threading.Lock()
    original = sandbox.run_solution

    def counted(code, test, limits, exact=False):
        start = time.monotonic()
        try:
            result = original(code, test, limits, exact=exact)
        except Exception as exc:
            outcome = type(exc).__name__
            raise
        else:
            outcome = result.verdict
            return result
        finally:
            with lock:
                runs.append((code, test.input, outcome, start, time.monotonic()))

    monkeypatch.setattr(sandbox, "run_solution", counted)
    return runs


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture
def fast_limits():
    from modscore.sandbox import RunLimits

    return RunLimits(wall_time=5.0, memory=512 * 1024 * 1024, output_cap=1024 * 1024)
