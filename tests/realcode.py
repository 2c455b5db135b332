"""The interpreter's own library through the analysis core.

    python tests/realcode.py [--jobs N]

Every ``.py`` file under the running interpreter's ``lib/python3.X``
(its standard library, site-packages included) goes through ``parse``,
graph-route ``unit_complexity`` with and without short-circuit operators
counted, ``cc_decision_points`` and ``singularize``, on ``N`` worker
processes (default 2). The script fails (exit 1) on any exception that is
not a ``ModscoreError`` or a ``SyntaxError``, and on a function whose
control-flow graph is one component but whose two CC routes disagree (a
graph of more than one component holds dead code, where the routes may
differ). It prints the files, the functions checked, the route
disagreements on dead code, the files that did not parse by error class,
the modules ``singularize`` transformed, and its refusals by error class.

The file set depends on the installed interpreter and packages, so this
is a check, not a committed digest. ``tests/test_realcode.py`` runs a
fixed sample of it in Tier-1.
"""

from __future__ import annotations

import argparse
import multiprocessing
import sys
import sysconfig
import time
import traceback
import warnings
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from modscore.cfg import build_cfg, graph_counts  # noqa: E402
from modscore.complexity import cc_decision_points, unit_complexity  # noqa: E402
from modscore.errors import ModscoreError  # noqa: E402
from modscore.inliner import singularize  # noqa: E402
from modscore.parsing import parse  # noqa: E402

LIBRARY = Path(sysconfig.get_paths()["stdlib"])

# ``parse`` compiles each file, and the library's test data holds code
# that compiles with warnings; only errors matter here
warnings.simplefilter("ignore", SyntaxWarning)


def check(path: str) -> tuple[tuple[str, str], int, int, list[str]]:
    """One file: the stage it ended in (``parse`` or ``singularize``) with
    its outcome there (``transformed``, or the class of the error raised),
    the (function, profile) pairs whose CC routes were compared, the route
    disagreements on dead code, and the faults found."""
    try:
        unit = parse(Path(path).read_bytes(), unit_id=path)
    except (ModscoreError, SyntaxError) as exc:
        return ("parse", type(exc).__name__), 0, 0, []
    except Exception:
        return ("parse", "fault"), 0, 0, [f"{path}: parse raised\n{traceback.format_exc()}"]
    checked = dead = 0
    faults: list[str] = []
    try:
        for count_short_circuit in (True, False):
            report = unit_complexity(unit, count_short_circuit)
            ccs = {**report.per_function, unit.toplevel: report.toplevel_cc}
            for fn, cc in ccs.items():
                checked += 1
                points = cc_decision_points(fn, count_short_circuit)
                if cc == points:
                    continue
                if graph_counts(build_cfg(fn, count_short_circuit))[2] == 1:
                    faults.append(f"{path}: {fn.qualname}: graph CC {cc} but "
                                  f"decision-point CC {points}")
                else:
                    dead += 1
    except ModscoreError:
        pass
    except Exception:
        faults.append(f"{path}: CC raised\n{traceback.format_exc()}")
    try:
        singularize(unit)
        outcome = "transformed"
    except (ModscoreError, SyntaxError) as exc:
        outcome = type(exc).__name__
    except Exception:
        outcome = "fault"
        faults.append(f"{path}: singularize raised\n{traceback.format_exc()}")
    return ("singularize", outcome), checked, dead, faults


def _histogram(counts: Counter) -> str:
    return ", ".join(f"{name} {n}" for name, n in sorted(counts.items())) or "none"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=2, help="worker processes (default 2)")
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error("--jobs must be at least 1")
    paths = sorted(str(p) for p in LIBRARY.rglob("*.py") if p.is_file())
    outcomes: dict[str, Counter] = {"parse": Counter(), "singularize": Counter()}
    checked = dead = 0
    faults: list[str] = []
    start = time.monotonic()
    with ProcessPoolExecutor(args.jobs, multiprocessing.get_context("spawn")) as pool:
        for (stage, outcome), n, d, found in pool.map(check, paths, chunksize=16):
            outcomes[stage][outcome] += 1
            checked, dead = checked + n, dead + d
            faults += found
    print(f"{LIBRARY}: {len(paths)} files in {time.monotonic() - start:.0f} s "
          f"on {args.jobs} workers")
    print("not parsed: " + _histogram(outcomes["parse"]))
    print(f"functions: {checked} (function, profile) pairs compared, "
          f"{dead} route disagreements on dead code")
    transformed = outcomes["singularize"].pop("transformed", 0)
    print(f"singularize: {transformed} transformed; "
          f"refused {_histogram(outcomes['singularize'])}")
    for fault in faults:
        print(fault, file=sys.stderr)
    print(f"faults: {len(faults)}")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
