"""Spans around the calls into each modscore layer, recorded from outside.

``Tracer.install`` wraps the public functions listed in ``TARGETS`` and
rebinds every attribute of every loaded ``modscore`` module that refers
to one of them, so calls through module globals (``cli`` imports most of
them by name) reach the wrapper. Nothing under ``src/`` is edited. Work
handed to a ``ThreadPoolExecutor`` runs with the submitting thread's
current span as its parent, so the sandbox runs a CLI call fans out stay
children of that call.

Spans are kept in memory and written out by the pass when it ends. Each
span is ``[id, parent, layer, name, start, end, attrs]`` with times from
``time.perf_counter`` in seconds.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import itertools
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor


def code_key(code: str) -> str:
    return hashlib.sha1(code.encode("utf-8")).hexdigest()[:16]


def _graph_size(args, kwargs, graph):
    return {"nodes": len(graph.nodes), "edges": len(graph.edges)}


def _inlined(args, kwargs, unit):
    source = args[0]
    return {"helpers": source.function_count,
            "in_bytes": len(source.text.encode("utf-8")),
            "out_bytes": len(unit.text.encode("utf-8"))}


def _verdict(args, kwargs, result):
    return {"verdict": result.verdict, "code": code_key(args[0])}


def _samples(args, kwargs, result):
    return {"samples": len(args[0])}


def _command(args, kwargs, result):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


# (module, attribute, layer, describe, trace memory)
TARGETS = (
    ("parsing", "parse", "parsing", None, False),
    ("cfg", "build_cfg", "cfg", _graph_size, False),
    ("complexity", "unit_complexity", "complexity", None, False),
    ("complexity", "cc_decision_points", "complexity", None, False),
    ("modularity", "score_unit", "modularity", None, False),
    ("modularity", "categorize_solutions", "modularity", None, False),
    ("inliner", "singularize", "inliner", _inlined, False),
    ("sandbox", "run_program", "sandbox", None, False),
    ("sandbox", "run_solution", "sandbox", _verdict, False),
    ("sandbox", "passes_all", "sandbox", None, False),
    ("sandbox", "count_correct", "sandbox", None, False),
    ("corpus", "load_corpus", "corpus", None, False),
    ("corpus", "load_generations", "corpus", None, False),
    ("corpus", "save_corpus", "corpus", None, False),
    ("corpus", "filter_corpus", "corpus", None, False),
    ("passk", "pass_at_k", "passk", None, False),
    ("passk", "aggregate", "passk", None, False),
    ("stats", "pearson", "stats", _samples, True),
    ("stats", "spearman", "stats", _samples, True),
    ("cli", "main", "cli", _command, False),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, layer: str, fn, describe=None, memory: bool = False):
        name = fn.__name__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            attrs = {}
            if memory:
                tracemalloc.start()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                end = time.perf_counter()
                attrs["error"] = type(exc).__name__
                raise
            else:
                end = time.perf_counter()
                if describe:
                    attrs.update(describe(args, kwargs, result))
                return result
            finally:
                if memory:
                    attrs["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
                self.spans.append([span_id, parent, layer, name, start, end, attrs])

        return traced

    def install(self):
        """Wrap every target and make threads inherit the current span."""
        for target in TARGETS:
            importlib.import_module(f"modscore.{target[0]}")
        modules = [m for n, m in sys.modules.items()
                   if n == "modscore" or n.startswith("modscore.")]
        for module_name, attr, layer, describe, memory in TARGETS:
            original = getattr(sys.modules[f"modscore.{module_name}"], attr)
            traced = self.wrap(layer, original, describe, memory)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

        tracer = self
        submit = ThreadPoolExecutor.submit

        def traced_submit(pool, fn, /, *args, **kwargs):
            parent = tracer.current()

            def run(*a, **k):
                stack = tracer._stack()
                stack.append(parent)
                try:
                    return fn(*a, **k)
                finally:
                    stack.pop()

            return submit(pool, run, *args, **kwargs)

        ThreadPoolExecutor.submit = traced_submit


# ---------------------------------------------------------------------------
# per-layer metrics from one pass's spans

LAYER_UNITS = {
    "parsing.calls": "count", "parsing.self_ms": "ms", "parsing.p50_ms": "ms",
    "cfg.graphs": "count", "cfg.nodes": "count", "cfg.edges": "count", "cfg.self_ms": "ms",
    "complexity.calls": "count", "complexity.self_ms": "ms",
    "complexity.dp_calls": "count", "complexity.dp_self_ms": "ms",
    "modularity.calls": "count", "modularity.self_ms": "ms",
    "inliner.units": "count", "inliner.helpers_inlined": "count", "inliner.refused": "count",
    "inliner.self_ms": "ms", "inliner.p50_ms": "ms", "inliner.tail_ms": "ms",
    "inliner.tail_pct": "%", "inliner.out_in_bytes_ratio": "ratio",
    "sandbox.runs": "count", "sandbox.runs_per_program": "ratio",
    "sandbox.run_ms_p50": "ms", "sandbox.run_ms_tail": "ms", "sandbox.run_ms_tail_pct": "%",
    "sandbox.busy_ms": "ms", "sandbox.busy_ratio.filter": "ratio",
    "sandbox.busy_ratio.passk": "ratio",
    "sandbox.verdict.pass": "count", "sandbox.verdict.wrong_output": "count",
    "sandbox.verdict.runtime_error": "count", "sandbox.verdict.timeout": "count",
    "sandbox.verdict.resource_exceeded": "count", "sandbox.verdict.crashed": "count",
    "corpus.load_ms": "ms", "corpus.save_ms": "ms", "corpus.filter_self_ms": "ms",
    "passk.self_ms": "ms",
    "stats.samples": "count", "stats.pearson_ms": "ms", "stats.spearman_ms": "ms",
    "stats.peak_mib": "MiB",
    "cli.self_ms": "ms",
    "trace.overhead_ratio": "ratio",
}

# percentiles tried for a tail, highest first; the tail is the highest
# one with at least ten samples beyond it
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _rank(p: float, n: int) -> int:
    """1-based nearest rank of percentile p among n samples."""
    return max(1, -(-round(p * 10) * n // 1000))


def percentile(values: list[float], p: float) -> float:
    return sorted(values)[_rank(p, len(values)) - 1] if values else 0.0


def tail(values: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond."""
    for p in TAIL_PERCENTILES:
        if len(values) - _rank(p, len(values)) >= 10:
            return percentile(values, p), p
    return percentile(values, 50.0), (50.0 if values else 0.0)


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    covered: dict[int, list[tuple[float, float]]] = {}
    bounds = {s[0]: (s[4], s[5]) for s in spans}
    for s in spans:
        if s[1] in bounds:
            covered.setdefault(s[1], []).append((s[4], s[5]))
    result = {}
    for span_id, (start, end) in bounds.items():
        busy, reach = 0.0, start
        for lo, hi in sorted(covered.get(span_id, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                busy += hi - lo
                reach = hi
        result[span_id] = end - start - busy
    return result


def layer_metrics(spans: list[list], jobs: int, oracle_spans: list[list] = ()) -> dict:
    """Per-layer metrics of one traced pass; times in ms."""
    own = self_times(spans)
    by_name: dict[str, list[list]] = {}
    layer_self: dict[str, float] = {}
    for s in spans:
        by_name.setdefault(s[3], []).append(s)
        layer_self[s[2]] = layer_self.get(s[2], 0.0) + own[s[0]]

    def named(name):
        return by_name.get(name, [])

    def durations(name):
        return [(s[5] - s[4]) * 1000 for s in named(name)]

    def self_ms(layer):
        return layer_self.get(layer, 0.0) * 1000

    m = {}
    m["parsing.calls"] = len(named("parse"))
    m["parsing.self_ms"] = self_ms("parsing")
    m["parsing.p50_ms"] = percentile(durations("parse"), 50)

    graphs = named("build_cfg")
    m["cfg.graphs"] = len(graphs)
    m["cfg.nodes"] = sum(s[6].get("nodes", 0) for s in graphs)
    m["cfg.edges"] = sum(s[6].get("edges", 0) for s in graphs)
    m["cfg.self_ms"] = self_ms("cfg")

    m["complexity.calls"] = len(named("unit_complexity"))
    m["complexity.self_ms"] = sum(own[s[0]] for s in named("unit_complexity")) * 1000
    oracle_own = self_times(list(oracle_spans))
    dp = [s for s in oracle_spans if s[3] == "cc_decision_points"]
    m["complexity.dp_calls"] = len(dp)
    m["complexity.dp_self_ms"] = sum(oracle_own[s[0]] for s in dp) * 1000

    m["modularity.calls"] = len(named("score_unit"))
    m["modularity.self_ms"] = self_ms("modularity")

    units = named("singularize")
    done = [s for s in units if "error" not in s[6]]
    m["inliner.units"] = len(units)
    m["inliner.helpers_inlined"] = sum(s[6]["helpers"] for s in done)
    m["inliner.refused"] = len(units) - len(done)
    m["inliner.self_ms"] = self_ms("inliner")
    m["inliner.p50_ms"] = percentile(durations("singularize"), 50)
    m["inliner.tail_ms"], m["inliner.tail_pct"] = tail(durations("singularize"))
    in_bytes = sum(s[6]["in_bytes"] for s in done)
    m["inliner.out_in_bytes_ratio"] = sum(s[6]["out_bytes"] for s in done) / in_bytes if in_bytes else 0.0

    runs = durations("run_program")
    judged = {s[0] for s in named("passes_all")}
    programs = len(judged) + sum(s[1] not in judged for s in named("run_solution"))
    m["sandbox.runs"] = len(runs)
    m["sandbox.runs_per_program"] = len(runs) / programs if programs else 0.0
    m["sandbox.run_ms_p50"] = percentile(runs, 50)
    m["sandbox.run_ms_tail"], m["sandbox.run_ms_tail_pct"] = tail(runs)
    m["sandbox.busy_ms"] = sum(runs)
    for command in ("filter", "passk"):
        phases = [s for s in named("main") if s[6].get("command") == command]
        busy = sum(r[5] - r[4] for r in named("run_program")
                   for p in phases if p[4] <= r[4] and r[5] <= p[5])
        wall = sum(p[5] - p[4] for p in phases)
        m[f"sandbox.busy_ratio.{command}"] = busy / (jobs * wall) if wall else 0.0
    verdicts = [s[6].get("verdict", "crashed") for s in named("run_solution")]
    for verdict in ("pass", "wrong_output", "runtime_error", "timeout",
                    "resource_exceeded", "crashed"):
        m[f"sandbox.verdict.{verdict}"] = verdicts.count(verdict)

    m["corpus.load_ms"] = sum(durations("load_corpus")) + sum(durations("load_generations"))
    m["corpus.save_ms"] = sum(durations("save_corpus"))
    m["corpus.filter_self_ms"] = sum(own[s[0]] for s in named("filter_corpus")) * 1000

    m["passk.self_ms"] = self_ms("passk")

    correlations = named("pearson") + named("spearman")
    m["stats.samples"] = max((s[6].get("samples", 0) for s in correlations), default=0)
    m["stats.pearson_ms"] = sum(durations("pearson"))
    m["stats.spearman_ms"] = sum(durations("spearman"))
    m["stats.peak_mib"] = max((s[6].get("peak_bytes", 0) for s in correlations),
                              default=0) / 2**20

    m["cli.self_ms"] = self_ms("cli")
    return m
