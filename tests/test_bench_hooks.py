"""The benchmark's calls into modscore, checked without running it.

``perfbench/tracing.py`` lists the functions its tracer wraps in
``TARGETS`` as (module, attribute) pairs, and ``perfbench/passrun.py`` and
``perfbench/oracles.py`` call some of them directly. A rename or a changed
signature under ``src/`` fails here, instead of crashing only the
benchmark passes. This reads ``perfbench/`` and does not edit it.
"""

import ast
import importlib
import inspect
import sys
from types import SimpleNamespace

import pytest

from conftest import ROOT

PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("module, attribute", [target[:2] for target in tracing.TARGETS])
def test_every_traced_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"modscore.{module}"), attribute))


def test_the_benchmark_calls_into_modscore_as_it_does():
    from modscore import complexity, inliner, modularity, parsing, sandbox
    from modscore.corpus import TestCase

    # passrun._singularize
    source = "def f(a):\n    if a:\n        return 1\n    return 2\nprint(f(1))\n"
    flat = inliner.singularize(parsing.parse(source, unit_id="u0"))
    report = modularity.score_unit(flat)
    assert (flat.function_count, report.n, report.mos) == (0, 0, 0.0)
    # oracles: the decision-point count of a body, with no FunctionDef
    tree = ast.parse(source)
    assert complexity.cc_decision_points(SimpleNamespace(body=tree.body)) == 1
    assert complexity.cc_decision_points(SimpleNamespace(body=tree.body[0].body)) == 2
    # passrun._collect_sandbox: bound, not run, so that no process starts
    spec_limits = {"wall_time": workloads.WALL_TIME, "memory": workloads.MEMORY,
                   "output_cap": workloads.OUTPUT_CAP}
    limits = sandbox.RunLimits(**spec_limits)
    inspect.signature(sandbox.run_solution).bind("print(1)", TestCase(b"", b"1\n"), limits)
