"""Differential check of the analysis core between two checkouts.

    python tests/differential.py dump OUT
    python tests/differential.py compare A B
    python tests/differential.py behave
    python tests/differential.py digest
    python tests/differential.py check

``dump`` imports ``src/`` of the checkout this file sits in, runs a fixed
unit set through it and writes one JSON file. ``compare`` reads two such
files (say, one dumped by the parent commit's own ``tests/differential.py``
and one by the change's) and prints the counts, with each dump's
singularize refusals per error class and fresh names per kind; it exits
1 when they differ in anything but the allowed qualname change below.
Singularize differences are summed up by kind (text renumbered only,
text changed, refusal class or message changed, transformed to refused,
refused to transformed), each with at most 20 unit keys. A text is
renumbered only when the two are equal once each is ``renumbered``: its
``__inl<N>`` numbers count fresh names in order of first appearance. It
is still a difference, so a change meant to keep every text as it was
sees it. ``behave`` singularizes every unit of the set in this checkout
and runs each transformed one, original and flat, on its stdins through
one ``sandbox.compare_runs`` call; it exits 1 when any unit's verdict
or stdout differs, so a change meant to alter flat outputs can show that
they still print the same. Tier-1 runs the same check on every 16th
unit. ``digest`` writes one short sha256 per unit of every 16th unit
of the set (its CC pairs with their graph digests, and its singularize
text or refusal) to ``tests/fixtures/differential_digests.json``;
``check`` recomputes them, names each unit whose digest differs and exits
1 if any does, with no other checkout. A change that alters an output on
purpose runs ``digest`` again, and the fixture's diff shows which units
moved. This file calls ``parse(source, unit_id=...)`` and
``unit_complexity(unit, flag)``, the
signatures from the commit that removed ``modscore.profiles``; a checkout
from before it is dumped with its own copy of this file.

The unit set, 8,148 units:
  - ``structured_function(0..999)`` and ``runnable_program(0..199)``;
  - ``perfbench/workloads.make_units`` seeds 1-50 at full size;
  - every solution of the three fixture corpora;
  - ``runnable_program(0..199)`` again, each with two of ``TRIGGERS``
    appended (unit ``i`` takes triggers ``i % 10`` and ``i // 10 % 10``),
    so the set holds refusals of every class and units with two reasons
    to refuse;
  - ``runnable_program(0..79)`` again, each with one of ``NESTED_DEFAULTS``
    appended (unit ``i`` takes shape ``i % 8``): a helper call, a
    self-call or a yield in a nested def's default, which run where the
    def stands, transformed or refused;
  - ``statement_kinds_unit(0..999)``, 3,000 functions built of the
    statement kinds the generators of ``gen_programs`` never emit (match,
    with, class, loop ``else``, jumps through ``finally``, dead code).

Every unit but those of ``make_units`` seeds 11-50 and the triggered
and nested-default ones (3,388) gets graph-route ``unit_complexity`` under
``py3`` and ``py3-nosc`` (with and without short-circuit operators
counted), 6,776 (unit, profile) pairs: per-function CC in document order,
``toplevel_cc``, ``cc_total`` and ``cc_avg``, each function's qualname, and under
``graphs`` one sha256 digest per control-flow graph (each function, then
the toplevel; 24,704 graphs) of its node count, edge list in order, entry
and sorted exits, so ``compare`` sees any change to a graph, not only to
its CC. Every unit but the ``structured_function`` and
``statement_kinds_unit`` ones (6,148) is also singularized: the output
text, or the refusal's class and message (a ``SyntaxError`` counts as a
refusal: a yield in a nested def's default once escaped into the flat
program and raised one). Those units carry their stdins (7,518 in all):
a generated program's own stdin, a ``make_units`` unit's ``stdins`` and
a fixture solution's test inputs.

Qualnames may differ only for a definition enclosed by a function that is
itself inside a class: before the enclosing classes were kept in the
qualname, such a definition lost them. ``dump`` marks those definitions
with its own walk, so ``compare`` can tell an allowed difference from a
wrong one.
"""

from __future__ import annotations

import ast
import functools
import hashlib
import json
import os
import random
import re
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT / "tests", ROOT / "perfbench"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

# each profile name and whether it counts short-circuit operators
PROFILES = {"py3": True, "py3-nosc": False}
CORPORA = ("filter_corpus.jsonl", "mini_corpus.jsonl", "singularize_corpus.jsonl")
# ``digest`` and ``check`` take every STRIDE-th unit of ``units()``
STRIDE = 16
DIGESTS = ROOT / "tests" / "fixtures" / "differential_digests.json"


# Each appends a reason to refuse to a ``runnable_program``, whose helpers
# are ``fn1``, ``fn2``, ...; ``k`` tells two copies of one trigger apart.
TRIGGERS = (
    lambda k: f"print(eval('{k}'))\n",
    lambda k: f"def fn1(a):\n    return a + {k}\n",
    lambda k: f"class K{k}:\n    def m(self):\n        return 1\n",
    lambda k: f"def gen{k}():\n    yield 1\nprint(list(gen{k}()))\n",
    lambda k: (f"def outer{k}():\n    v = 1\n    def bump{k}():\n        nonlocal v\n"
               f"        v += 1\n    return v\nprint(outer{k}())\n"),
    lambda k: (f"def cyc{k}a(n):\n    return cyc{k}b(n - 1) if n else 0\n"
               f"def cyc{k}b(n):\n    return cyc{k}a(n)\nprint(cyc{k}a(3))\n"),
    lambda k: f"print(late{k}())\ndef late{k}():\n    return {k}\n",
    lambda k: (f"def par{k}():\n    def kid{k}():\n        return 1\n    return kid{k}()\n"
               f"print(par{k}(), kid{k}())\n"),
    lambda k: (f"cap{k} = 1\ndef rd{k}():\n    return cap{k}\n"
               f"def wr{k}():\n    cap{k} = 2\n    return rd{k}()\nprint(wr{k}())\n"),
    lambda k: f"fn1 = {k}\n",
)

# Each appends a def whose nested def's default calls a helper, calls the
# def itself or yields; ``k`` keeps the names apart. The first three and
# the last are transformed, the others refused.
NESTED_DEFAULTS = (
    lambda k: (f"def hd{k}(a):\n    return a * {k}\ndef od{k}(n):\n"
               f"    def id{k}(x=hd{k}(n)):\n        return x + 1\n    return id{k}()\n"
               f"print(od{k}(2))\n"),
    lambda k: (f"def ht{k}(a):\n    return a - {k}\ndef td{k}(x=ht{k}(7)):\n"
               f"    return x * 2\nprint(td{k}(), td{k}(1))\n"),
    lambda k: (f"def os{k}(n):\n    def a{k}(v):\n        return v + {k}\n"
               f"    def b{k}(x=a{k}(n)):\n        return x * 2\n    return b{k}()\n"
               f"print(os{k}(3))\n"),
    lambda k: (f"def ol{k}():\n    def il{k}(x=late{k}()):\n        return x\n"
               f"    return {k}\nr{k} = ol{k}()\ndef late{k}():\n    return 5\nprint(r{k})\n"),
    lambda k: (f"def rc{k}(n):\n    if n == 0:\n        return 0\n"
               f"    def ri{k}(x=rc{k}(n - 1)):\n        return x\n    return {k}\n"
               f"print(rc{k}(2))\n"),
    lambda k: (f"def yg{k}():\n    def yi{k}(x=(yield {k})):\n        return x\n"
               f"    return 1\nprint(yg{k}())\n"),
    lambda k: (f"cv{k} = 1\ndef ch{k}():\n    return cv{k}\ndef co{k}():\n    cv{k} = 3\n"
               f"    def ci{k}(x=ch{k}()):\n        return x\n    return ci{k}() + cv{k}\n"
               f"print(co{k}())\n"),
    lambda k: (f"def hw{k}():\n    print('default', {k})\n    return {k}\ndef ow{k}():\n"
               f"    def iw{k}(x=hw{k}()):\n        return x\n    return 0\nprint(ow{k}())\n"),
)


def _indent(lines: list[str]) -> list[str]:
    return ["    " + line for line in lines]


class _StatementKinds:
    """Functions built of what ``gen_programs`` never emits: match, with
    and async with, classes, loops with ``else``, async for, jumps through
    ``finally``, raises and dead code after a jump. Every function parses;
    none is meant to run."""

    def __init__(self, rng):
        self.rng = rng

    def expr(self) -> str:
        """An expression that may hold decisions."""
        rng = self.rng
        return rng.choice([
            "a", "b + 1", "xs[0]", "f(a)",
            "a if b else c", "a and b", "a or b and c",
            "[v for v in xs if v]", "(lambda v: v or a)(b)", "{k: v for k, v in d if k if v}",
        ])

    def block(self, depth: int, loop: bool, returns: bool, is_async: bool) -> list[str]:
        lines: list[str] = []
        for _ in range(self.rng.randint(1, 3)):
            stmt, jumped = self.stmt(depth, loop, returns, is_async)
            lines += stmt
            if jumped and self.rng.random() < 0.6:
                break  # the rest of the block would be dead; a caller may add more
        return lines

    def stmt(self, depth: int, loop: bool, returns: bool, is_async: bool):
        """(lines, whether they end in an unconditional jump)."""
        rng = self.rng
        kinds = ["assign", "assign", "call"]
        if depth < 3:
            kinds += ["if", "while", "for", "match", "with", "class", "try", "try"]
        if returns:
            kinds += ["return", "raise"]
        if loop:
            kinds += ["break", "continue"]
        kind = rng.choice(kinds)
        e = self.expr

        def body(in_loop=loop):
            return self.block(depth + 1, in_loop, returns, is_async)

        if kind == "assign":
            return [f"{rng.choice(['x =', 'a[0] =', 'x: int =', 'y +='])} {e()}"], False
        if kind == "call":
            return [rng.choice([f"print({e()})", f"assert {e()}, {e()}", f"del d[{e()}]"])], False
        if kind in ("return", "raise", "break", "continue"):
            jump = {"return": f"return {e()}", "raise": f"raise ValueError({e()})"}.get(kind, kind)
            dead = [f"x = {e()}"] if rng.random() < 0.3 else []
            return [jump] + dead, True
        if kind == "if":
            lines = [f"if {e()}:"] + _indent(body())
            if rng.random() < 0.5:
                lines += ["else:"] + _indent(body())
            return lines, False
        if kind in ("while", "for"):
            head = f"while {e()}:" if kind == "while" else f"for v in {e()}:"
            if kind == "for" and is_async and rng.random() < 0.5:
                head = "async " + head
            lines = [head] + _indent(body(True))
            if rng.random() < 0.6:
                lines += ["else:"] + _indent(body())
            return lines, False
        if kind == "match":
            lines = [f"match {e()}:"]
            patterns = ["0", "1 | 2", "[p, *rest]", "{'k': p}", "Point(x=0)", "str()"]
            # an arm that matches anything, if any, comes last
            last = [rng.choice(["_", "q"])] if rng.random() < 0.5 else []
            for pattern in [rng.choice(patterns) for _ in range(rng.randint(1, 4))] + last:
                guard = f" if {e()}" if rng.random() < 0.4 else ""
                lines += [f"    case {pattern}{guard}:"] + _indent(_indent(body()))
            return lines, False
        if kind == "with":
            items = ", ".join(f"open({e()}) as h{i}" for i in range(rng.randint(1, 2)))
            prefix = "async " if is_async and rng.random() < 0.5 else ""
            return [f"{prefix}with {items}:"] + _indent(body()), False
        if kind == "class":
            lines = [f"@deco({e()})"] if rng.random() < 0.5 else []
            lines.append(f"class C({e()}, metaclass={e()}):")
            return lines + _indent(self.block(depth + 1, False, False, False)), False
        lines = ["try:"] + _indent(body())  # kind == "try"
        handlers = rng.randint(0, 2)
        for _ in range(handlers):
            lines += [f"except {rng.choice(['ValueError', '(KeyError, E if a else F)'])}:"]
            lines += _indent(body())
        if handlers and rng.random() < 0.3:
            lines += ["else:"] + _indent(body())
        if not handlers or rng.random() < 0.5:
            lines += ["finally:"] + _indent(body())
        return lines, False


def statement_kinds_unit(seed: int) -> str:
    """Three seeded functions of ``_StatementKinds``, one of them async,
    and a toplevel block without jumps."""
    rng = random.Random(seed)
    gen = _StatementKinds(rng)
    lines: list[str] = []
    for i in range(3):
        is_async = i == 2
        lines.append(f"{'async ' if is_async else ''}def g{i}(a, b, c, d, xs):")
        lines += _indent(gen.block(1, False, True, is_async))
    lines += gen.block(2, False, False, False)
    return "\n".join(lines) + "\n"


@functools.cache
def units() -> list[tuple[str, str, list[str], bool, bool]]:
    """(key, source, stdins, measured, singularized) for every unit, in a
    fixed order; ``measured`` units get ``unit_complexity``. A singularized
    unit's ``stdins`` are the inputs it is meant to run on: its generator's
    stdin, or its problem's test inputs. Built once per process; callers
    only read it."""
    import gen_programs as gp
    import workloads

    def runnable(i: int) -> tuple[str, list[str]]:
        source, stdin = gp.runnable_program(i)
        return source, [stdin.decode()]

    out = [(f"structured:{i}", gp.structured_function(i), [], True, False) for i in range(1000)]
    out += [(f"runnable:{i}", *runnable(i), True, True) for i in range(200)]
    for seed in range(1, 11):
        made, _ = workloads.make_units(seed, workloads.SIZES["full"])
        out += [(f"units{seed}:{u['id']}", u["source"], u["stdins"], True, True) for u in made]
    for name in CORPORA:
        lines = (ROOT / "tests" / "fixtures" / name).read_text(encoding="utf-8").splitlines()
        for row in map(json.loads, lines):
            stdins = [test["input"] for test in row.get("tests", [])]
            for i, source in enumerate(row["solutions"]):
                out.append((f"{name}:{row['id']}[{i}]", source, stdins, True, True))
    for seed in range(11, 51):
        made, _ = workloads.make_units(seed, workloads.SIZES["full"])
        out += [(f"units{seed}:{u['id']}", u["source"], u["stdins"], False, True) for u in made]
    for i in range(200):
        source, stdins = runnable(i)
        source += TRIGGERS[i % 10](0) + TRIGGERS[i // 10 % 10](1)
        out.append((f"triggered:{i}", source, stdins, False, True))
    for i in range(80):
        source, stdins = runnable(i)
        out.append((f"nested-default:{i}", source + NESTED_DEFAULTS[i % 8](i // 8), stdins,
                    False, True))
    out += [(f"kinds:{i}", statement_kinds_unit(i), [], True, False) for i in range(1000)]
    return out


def _under_class_and_function(tree: ast.Module) -> list[bool]:
    """Per definition in document order: is it enclosed by a function that
    is itself enclosed by a class?"""
    marks: list[bool] = []

    def visit(node, in_class: bool, flagged: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                marks.append(flagged)
                visit(child, in_class, flagged or in_class)
            elif isinstance(child, ast.ClassDef):
                visit(child, True, flagged)
            elif not isinstance(child, ast.Lambda):
                visit(child, in_class, flagged)

    visit(tree, False, False)
    return marks


def _graph_digest(cfg) -> str:
    shape = [len(cfg.nodes), cfg.edges, cfg.entry, sorted(cfg.exits)]
    return hashlib.sha256(json.dumps(shape).encode()).hexdigest()


def _refusal(exc: Exception) -> dict:
    return {"refused": type(exc).__name__, "message": str(exc)}


def outcomes(key: str, source: str, measured: bool, singularized: bool,
             cpu: Counter) -> tuple[dict, dict | None]:
    """A unit's CC entry per profile ({} when not ``measured``) and its
    singularize outcome (None when not ``singularized``); adds the CPU
    seconds of parse + unit_complexity to ``cpu["cc"]`` and of singularize
    to ``cpu["singularize"]``."""
    from modscore.cfg import build_cfg
    from modscore.complexity import unit_complexity
    from modscore.errors import ModscoreError
    from modscore.parsing import parse

    cc: dict[str, dict] = {}
    for name, flag in PROFILES.items() if measured else ():
        start = time.process_time()
        try:
            unit = parse(source, unit_id=key)
            report = unit_complexity(unit, flag)
        except (SyntaxError, ModscoreError) as exc:  # compared like any output
            cpu["cc"] += time.process_time() - start
            cc[name] = _refusal(exc)
            continue
        cpu["cc"] += time.process_time() - start
        cc[name] = {
            "qualnames": [fn.qualname for fn in report.per_function],
            "per_function": list(report.per_function.values()),
            "toplevel_cc": report.toplevel_cc,
            "cc_total": report.cc_total,
            "cc_avg": report.cc_avg,
            "renamed_ok": _under_class_and_function(unit.tree),
            "graphs": [_graph_digest(build_cfg(fn, flag))
                       for fn in (*unit.functions, unit.toplevel)],
        }
    return cc, singularize_outcome(key, source, cpu) if singularized else None


def singularize_outcome(key: str, source: str, cpu: Counter) -> dict:
    """A unit's singularize text, or its refusal; adds the CPU seconds of
    singularize to ``cpu["singularize"]``."""
    from modscore.errors import ModscoreError
    from modscore.inliner import singularize
    from modscore.parsing import parse

    unit = parse(source, unit_id=key)
    start = time.process_time()
    try:
        singular = {"text": singularize(unit).text}
    except (SyntaxError, ModscoreError) as exc:
        singular = _refusal(exc)
    cpu["singularize"] += time.process_time() - start
    return singular


def dump(out_path: str) -> int:
    cc: dict[str, dict] = {}
    singular: dict[str, dict] = {}
    cpu = Counter()
    for key, source, _, measured, singularized in units():
        by_profile, outcome = outcomes(key, source, measured, singularized, cpu)
        cc.update((f"{key}|{name}", entry) for name, entry in by_profile.items())
        if outcome is not None:
            singular[key] = outcome
    Path(out_path).write_text(json.dumps({"cc": cc, "singularize": singular}), encoding="utf-8")
    refused = sum("refused" in v for v in singular.values())
    print(f"cc: {len(cc)} (unit, profile) pairs, parse + unit_complexity {cpu['cc']:.2f} s CPU")
    print(f"singularize: {len(singular)} units, {refused} refused, "
          f"{cpu['singularize']:.2f} s CPU")
    return 0


def unit_digest(cc: dict, singular: dict | None) -> str:
    """A short sha256 of one unit's ``outcomes``."""
    blob = json.dumps({"cc": cc, "singularize": singular}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


@functools.cache
def sample_outcomes() -> dict[str, tuple[dict, dict | None]]:
    """``outcomes`` of every ``STRIDE``-th unit, by key, in unit order.
    Built once per process; callers only read it."""
    cpu = Counter()
    return {key: outcomes(key, source, measured, singularized, cpu)
            for key, source, _, measured, singularized in units()[::STRIDE]}


def digests() -> dict[str, str]:
    """``unit_digest`` of every ``STRIDE``-th unit, by key, in unit order."""
    return {key: unit_digest(*found) for key, found in sample_outcomes().items()}


def digest() -> int:
    found = digests()
    DIGESTS.write_text(json.dumps(found, indent=0) + "\n", encoding="utf-8")
    print(f"digest: {len(found)} units (every {STRIDE}th) written to {DIGESTS}")
    return 0


def differing() -> list[str]:
    """The keys whose digest differs from ``DIGESTS``', or that only one
    side holds, in unit order."""
    pinned = json.loads(DIGESTS.read_text(encoding="utf-8"))
    found = digests()
    return ([key for key, value in found.items() if pinned.get(key) != value]
            + [key for key in pinned if key not in found])


def check() -> int:
    differ = differing()
    print(f"check: {len(differ)} units differ from {DIGESTS.name}"
          + (f": {', '.join(differ)}" if differ else ""))
    return 1 if differ else 0


# how a unit's singularize result changed, by whether (before, after) is a
# refusal; two texts equal once renumbered are their own kind
CHANGE_KINDS = {
    (False, False): "text changed",
    (True, True): "refusal class or message changed",
    (False, True): "transformed -> refused",
    (True, False): "refused -> transformed",
}
RENUMBERED_ONLY = "text renumbered only"
SHOWN = 20  # keys listed per kind of change
# a fresh name, counted once per unit, by the end of its base
FRESH_NAME = re.compile(r"\b\w+?__inl\d+(?:__inl\d+)*\b")
FRESH_KINDS = ("tmp", "_ret", "_done", "_default")


def renumbered(text: str) -> str:
    """Each distinct fresh identifier becomes <base>__inl<k>, k counting
    distinct identifiers in order of first appearance."""
    seen: dict[str, str] = {}

    def rename(match):
        name = match.group(0)
        return seen.setdefault(name, f"{name.split('__inl')[0]}__inl{len(seen)}")

    return FRESH_NAME.sub(rename, text)


def _some(keys: list[str]) -> str:
    more = f", and {len(keys) - SHOWN} more" if len(keys) > SHOWN else ""
    return ", ".join(keys[:SHOWN]) + more


CC_FIELDS = ("per_function", "toplevel_cc", "cc_total", "cc_avg", "graphs", "refused", "message")


def compare(a_path: str, b_path: str) -> int:
    a = json.loads(Path(a_path).read_text(encoding="utf-8"))
    b = json.loads(Path(b_path).read_text(encoding="utf-8"))
    bad = 0
    for section in ("cc", "singularize"):
        if a[section].keys() != b[section].keys():
            print(f"{section}: the two dumps hold different units")
            return 1

    cc_equal = graphs = qual_equal = qual_allowed = 0
    for key, old in a["cc"].items():
        new = b["cc"][key]
        differ = [f for f in CC_FIELDS if old.get(f) != new.get(f)]
        if not differ:
            cc_equal += 1
            graphs += len(old.get("graphs", ()))
        else:
            bad += 1
            print(f"cc differs: {key} ({', '.join(differ)})")
        if old.get("qualnames") == new.get("qualnames"):
            qual_equal += 1
            continue
        pairs = zip(old.get("qualnames", []), new.get("qualnames", []), old.get("renamed_ok", []))
        if len(old.get("qualnames", [])) == len(new.get("qualnames", [])) and all(
                o == n or ok for o, n, ok in pairs):
            qual_allowed += 1
        else:
            bad += 1
            print(f"qualnames differ: {key}")
    print(f"cc: {cc_equal}/{len(a['cc'])} (unit, profile) pairs equal, {graphs} graph digests "
          f"among them; qualnames equal on {qual_equal}, changed only under a class-enclosed "
          f"function on {qual_allowed}")

    same = refused = 0
    kinds = (RENUMBERED_ONLY, *CHANGE_KINDS.values())
    changed: dict[str, list[str]] = {kind: [] for kind in kinds}
    for key, old in a["singularize"].items():
        new = b["singularize"][key]
        if old == new:
            same += 1
            refused += "refused" in old
            continue
        bad += 1
        kind = CHANGE_KINDS[("refused" in old, "refused" in new)]
        if kind == "text changed" and renumbered(old["text"]) == renumbered(new["text"]):
            kind = RENUMBERED_ONLY
        changed[kind].append(key)
    print(f"singularize: {same}/{len(a['singularize'])} units identical "
          f"({refused} of them refused with the same class and message)")
    for kind, keys in changed.items():
        if keys:
            print(f"singularize {kind}: {len(keys)} ({_some(keys)})")
    for path, dumped in ((a_path, a), (b_path, b)):
        by_class = Counter(v["refused"] for v in dumped["singularize"].values() if "refused" in v)
        counts = ", ".join(f"{name} {n}" for name, n in sorted(by_class.items()))
        print(f"singularize refusals in {path}: {counts or 'none'}")
        fresh = Counter()
        for value in dumped["singularize"].values():
            for name in set(FRESH_NAME.findall(value.get("text", ""))):
                base = name.split("__inl")[0]
                fresh[next((k for k in FRESH_KINDS if base.endswith(k)), "other")] += 1
        kinds = ", ".join(f"{kind} {fresh[kind]}" for kind in (*FRESH_KINDS, "other"))
        print(f"fresh names in {path}'s flat outputs: {sum(fresh.values())} ({kinds})")
    return 1 if bad else 0


def flat_differs(unit_list, jobs: int, known=None) -> tuple[int, int, list[str]]:
    """Singularizes each unit of ``unit_list`` meant to be, unless ``known``
    maps its key to its ``singularize_outcome`` already, and runs each
    transformed one, original and flat, on its stdins through one
    ``compare_runs`` call over ``jobs`` workers: (units transformed, their
    stdins, the keys of those whose verdict or stdout differs)."""
    from modscore.corpus import TestCase
    from modscore.sandbox import RunLimits, compare_runs

    known = known or {}
    cpu = Counter()
    keys, pairs = [], []
    for key, source, stdins, _, singularized in unit_list:
        if not singularized:
            continue
        outcome = known.get(key) or singularize_outcome(key, source, cpu)
        if "text" not in outcome:
            continue
        keys.append(key)
        pairs.append((source, outcome["text"],
                      [TestCase(stdin.encode(), b"") for stdin in stdins]))
    found = compare_runs(pairs, RunLimits(wall_time=10.0), exact=True, jobs=jobs)
    return (len(pairs), sum(len(tests) for _, _, tests in pairs),
            [key for key, first in zip(keys, found) if first is not None])


def behave() -> int:
    jobs = min(4, len(os.sched_getaffinity(0)))
    start = time.monotonic()
    transformed, stdins, differ = flat_differs(units(), jobs)
    print(f"behave: {transformed} transformed units, {stdins} stdins, each run original "
          f"and flat; {time.monotonic() - start:.0f} s over {jobs} workers, singularize included; "
          f"{len(differ)} units differ in verdict or stdout"
          + (f" ({_some(differ)})" if differ else ""))
    return 1 if differ else 0


def main(argv: list[str]) -> int:
    if len(argv) == 2 and argv[0] == "dump":
        return dump(argv[1])
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if argv == ["behave"]:
        return behave()
    if argv == ["digest"]:
        return digest()
    if argv == ["check"]:
        return check()
    print(__doc__.split("\n\n")[1], file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
