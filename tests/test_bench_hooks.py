"""The benchmark's tracer wraps modscore functions by name.

``perfbench/tracing.py`` lists them in ``TARGETS`` as (module, attribute)
pairs. A rename under ``src/`` fails here, instead of crashing only the
traced benchmark passes. This reads ``perfbench/`` and does not edit it.
"""

import importlib
import sys

import pytest

from conftest import ROOT

PERFBENCH = ROOT / "perfbench"
if str(PERFBENCH) not in sys.path:
    sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402


@pytest.mark.parametrize("module, attribute", [target[:2] for target in tracing.TARGETS])
def test_every_traced_target_resolves(module, attribute):
    assert callable(getattr(importlib.import_module(f"modscore.{module}"), attribute))
