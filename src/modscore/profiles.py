"""Subject-language profiles.

A profile names one dialect of the counting rules. The decision and
module kinds themselves are fixed by the counters (``cfg`` and
``complexity``); a profile only switches the classical short-circuit
extension on or off.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class SubjectProfile:
    """How one dialect counts decision points."""

    name: str
    # Classical short-circuit extension; off for sensitivity analysis.
    count_short_circuit: bool = True


PY3 = SubjectProfile(name="py3")
PY3_NO_SHORT_CIRCUIT = SubjectProfile(name="py3-nosc", count_short_circuit=False)

_REGISTRY = {p.name: p for p in (PY3, PY3_NO_SHORT_CIRCUIT)}


def get_profile(name: str) -> SubjectProfile:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown profile {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_profiles() -> list[str]:
    return sorted(_REGISTRY)
