"""A fixed sample of the interpreter's own library through the analysis
core: ``parse``, graph-route ``unit_complexity`` under both profiles,
``cc_decision_points`` and ``singularize``. The modules are real code
whose helpers hold ``try``/``else``/``finally`` blocks and early
returns; on Python 3.11 the first three singularize and the rest are
refused, most before the rewrite begins. Nothing may raise but a
``ModscoreError``, and on a function whose graph is one component the
two CC routes must agree (they may differ only on dead code, which the
graph keeps as a component of its own)."""

import sysconfig
from pathlib import Path

import pytest

from modscore.cfg import build_cfg, graph_counts
from modscore.complexity import cc_decision_points, unit_complexity
from modscore.errors import ModscoreError
from modscore.inliner import singularize
from modscore.parsing import parse

STDLIB = Path(sysconfig.get_paths()["stdlib"])

MODULES = [
    "linecache", "importlib", "uu",
    "contextlib", "fileinput", "getpass", "glob", "pty", "shutil", "subprocess",
    "tarfile", "tempfile", "threading", "zipfile", "zipimport",
]


def _source(name: str) -> Path | None:
    for path in (STDLIB / f"{name}.py", STDLIB / name / "__init__.py"):
        if path.is_file():
            return path
    return None


@pytest.mark.parametrize("name", MODULES)
def test_stdlib_module_through_the_analysis_core(name):
    path = _source(name)
    if path is None:
        pytest.skip(f"{name} is not in this interpreter's library")
    unit = parse(path.read_bytes(), unit_id=name)
    for count_short_circuit in (True, False):
        report = unit_complexity(unit, count_short_circuit)
        ccs = {**report.per_function, unit.toplevel: report.toplevel_cc}
        for fn, cc in ccs.items():
            if graph_counts(build_cfg(fn, count_short_circuit))[2] == 1:
                assert cc == cc_decision_points(fn, count_short_circuit), fn
    try:
        singularize(unit)
    except ModscoreError:
        pass
