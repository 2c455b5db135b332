"""Oracles for the two workloads, run in one checker process per run.

    python3 perfbench/oracles.py WORK TRACE

Reads WORK/spec.json and the pass results WORK/pass-*.json, and writes
WORK/check.json: the failed item count of each pass, the first problems
found, the known-defect probe verdicts, and (TRACE 1) the spans of the
oracle's own calls into modscore. No oracle reuses the code path a pass
times:

- study, scores: from the decision-point route and the documented
  formula min(1, n/m*), picks from the documented tie-break, r and rho
  from scipy.stats; p-values must repeat bit for bit across passes.
- study, singularized units: every output must define no function and
  print what its original prints, executed here; recursive units must
  be refused.
- sandbox: kept solutions, drop reasons and each problem's c must match
  the planted kinds; pass@k must equal 1 - C(n-c,k)/C(n,k). In traced
  passes every run's verdict must match its candidate's planted kind.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import math
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

DEFAULT_TAU = 5
# the documented drop reasons, written out rather than imported so that a
# changed report shows
NO_TESTS_REASON = "insufficient or absent test cases"
NO_SOLUTIONS_REASON = "no solutions passing test cases"
PASSING = ("correct", "heavy")
FIRST_FAILURE = {"wrong_first": "wrong_output", "exception": "runtime_error",
                 "output_cap": "resource_exceeded", "memory": "resource_exceeded",
                 "timeout": "timeout"}
DEF_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)
MAX_PROBLEMS = 20


class Findings:
    """Failed items per pass plus a bounded list of what went wrong."""

    def __init__(self, passes: int):
        self.failed = [0] * passes
        self.problems: list[str] = []

    def flag(self, index: int, items: int, message: str):
        self.failed[index] += items
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(f"pass {index}: {message}")


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


# ---------------------------------------------------------------------------
# study


def oracle_score(source: str, tau: int = DEFAULT_TAU) -> float:
    from modscore import complexity

    tree = ast.parse(source)
    defs = [node for node in ast.walk(tree) if isinstance(node, DEF_NODES)]
    cc_total = complexity.cc_decision_points(SimpleNamespace(body=tree.body))
    cc_total += sum(complexity.cc_decision_points(SimpleNamespace(body=d.body)) for d in defs)
    m_star = cc_total // tau
    if m_star > 0:
        return min(1.0, len(defs) / m_star)
    return 0.0 if not defs else 1.0


def oracle_picks(sources: list[str], scores: list[float]) -> tuple:
    lines = [len(s.splitlines()) for s in sources]
    order = range(len(sources))
    best = min(order, key=lambda i: (-scores[i], lines[i], i))
    zeros = [i for i in order if scores[i] == 0]
    return (best if scores[best] > 0 else None,
            min(zeros, key=lambda i: (lines[i], i)) if zeros else None)


def check_study(spec: dict, outputs: list, findings: Findings):
    from scipy import stats as scipy_stats

    rows = sorted(_read_jsonl(spec["corpus"]), key=lambda r: r["id"])
    expected = []
    for row in rows:
        scores = [oracle_score(s) for s in row["solutions"]]
        expected.append((row["id"], scores, oracle_picks(row["solutions"], scores)))
    xs = [score for _, scores, _ in expected for score in scores]
    ys = [spec["pass1"][f"{pid}[{i}]"] for pid, scores, _ in expected
          for i in range(len(scores))]
    r_expected = scipy_stats.pearsonr(xs, ys)[0]
    rho_expected = scipy_stats.spearmanr(xs, ys)[0]
    first_p = None
    for index, out in enumerate(outputs):
        if out is None:
            continue
        got = {p["problem_id"]: p for p in out["problems"]}
        for pid, scores, (mc, sc) in expected:
            row = got.get(pid)
            if row is None:
                findings.flag(index, len(scores), f"{pid}: missing from classify")
                continue
            wrong = sum(a != b for a, b in zip(row["mos_values"], scores))
            wrong += abs(len(row["mos_values"]) - len(scores))
            if (row["mc_solution_index"], row["sc_solution_index"]) != (mc, sc):
                findings.flag(index, len(scores), f"{pid}: picks {row['mc_solution_index']},"
                              f"{row['sc_solution_index']} expected {mc},{sc}")
            elif wrong:
                findings.flag(index, wrong, f"{pid}: {wrong} score(s) differ from the oracle")
        r, rho = out["pearson"]["r"], out["spearman"]["rho"]
        p_values = (out["pearson"]["p"], out["spearman"]["p"])
        if (out["samples"] != len(xs) or not math.isclose(r, r_expected, abs_tol=1e-9)
                or not math.isclose(rho, rho_expected, abs_tol=1e-9)):
            findings.flag(index, len(xs), f"correlate r={r} rho={rho}, scipy gives "
                          f"{r_expected} {rho_expected}")
        elif not all(0 < p <= 1 for p in p_values) or p_values != (first_p or p_values):
            findings.flag(index, len(xs), f"p-values {p_values} differ from {first_p}")
        first_p = first_p or p_values


# ---------------------------------------------------------------------------
# study: the singularized units


def is_recursive(source: str) -> bool:
    """True when the unit's own functions call each other in a cycle."""
    defs = {node.name: node for node in ast.walk(ast.parse(source))
            if isinstance(node, DEF_NODES)}
    calls = {name: {c.func.id for c in ast.walk(node)
                    if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)
                    and c.func.id in defs}
             for name, node in defs.items()}
    done: set[str] = set()

    def cyclic(name: str, path: set[str]) -> bool:
        if name in path:
            return True
        if name in done:
            return False
        found = any(cyclic(callee, path | {name}) for callee in calls[name])
        done.add(name)
        return found

    return any(cyclic(name, set()) for name in defs)


def observed_output(source: str, stdin: str) -> str:
    """What the program prints on stdin, plus the exception it ends with."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            exec(compile(source, "<unit>", "exec"), {"__name__": "__main__"})
    except Exception as exc:
        return out.getvalue() + f"<raised {type(exc).__name__}>"
    finally:
        sys.stdin = saved
    return out.getvalue()


def check_singularize(spec: dict, outputs: list, findings: Findings):
    behaves: dict[tuple[str, str], bool] = {}
    for unit in spec["units"]:
        unit["_recursive"] = is_recursive(unit["source"])
    for index, out in enumerate(outputs):
        if out is None:
            continue
        for unit, result in zip(spec["units"], out["units"]):
            if unit["_recursive"]:
                if result.get("refused") != "RecursionUnsupported":
                    findings.flag(index, 1, f"{unit['id']}: recursive unit not refused: "
                                  f"{result.get('refused', 'transformed')}")
                continue
            text = result.get("text")
            if text is None:
                findings.flag(index, 1, f"{unit['id']}: refused ({result.get('refused')})")
                continue
            key = (unit["id"], text)
            if key not in behaves:
                flat = result["n"] == 0 and not any(
                    isinstance(n, DEF_NODES) for n in ast.walk(ast.parse(text)))
                behaves[key] = flat and all(
                    observed_output(text, stdin) == observed_output(unit["source"], stdin)
                    for stdin in unit["stdins"])
            if not behaves[key]:
                findings.flag(index, 1, f"{unit['id']}: output defines functions or "
                              "prints differently")
        missing = len(spec["units"]) - len(out["units"])
        if missing:
            findings.flag(index, missing, f"{missing} unit(s) without a result")


# ---------------------------------------------------------------------------
# sandbox


def expected_verdicts(kind: str, tests: int) -> Counter:
    """Verdicts of one candidate's runs: tests run in order until one fails."""
    if tests == 0:
        return Counter()
    if kind in PASSING:
        return Counter({"pass": tests})
    if kind == "wrong_last":
        return Counter({"pass": tests - 1, "wrong_output": 1})
    return Counter({FIRST_FAILURE[kind]: 1})


def pass_at_k(n: int, c: int, k: int) -> float:
    return 1 - math.comb(n - c, k) / math.comb(n, k)


def check_sandbox(spec: dict, outputs: list, findings: Findings, spans=None):
    corpus = {row["id"]: row for row in _read_jsonl(spec["filter_corpus"])}
    for index, out in enumerate(outputs):
        if out is None:
            continue
        dropped = {row["id"]: row["reason"] for row in out["dropped"]}
        for pid, plant in spec["filter_planted"].items():
            solutions = corpus[pid]["solutions"]
            keep = [s for s, kind in zip(solutions, plant["kinds"]) if kind in PASSING]
            reason = (NO_TESTS_REASON if plant["tests"] == 0
                      else None if keep else NO_SOLUTIONS_REASON)
            if reason:
                keep = []
            kept = out["kept"].get(pid, [])
            wrong = sum((s in keep) != (s in kept) for s in solutions)
            if dropped.get(pid) != reason:
                findings.flag(index, max(wrong, 1), f"{pid}: dropped as {dropped.get(pid)!r}, "
                              f"expected {reason!r}")
            elif wrong or kept != keep:
                findings.flag(index, max(wrong, 1), f"{pid}: kept solutions differ")
        rows = {row["problem_id"]: row for row in out["passk"]["problems"]}
        n = spec["n"]
        expected_means = {}
        for pid, plant in spec["passk_planted"].items():
            c = sum(kind in PASSING for kind in plant["kinds"])
            curve = {str(k): pass_at_k(n, c, k) for k in spec["ks"]}
            for k, value in curve.items():
                expected_means.setdefault(k, []).append(value)
            row = rows.get(pid)
            if row is None:
                findings.flag(index, n, f"{pid}: missing from passk")
            elif row["n"] != n or row["c"] != c:
                findings.flag(index, max(abs(row["c"] - c), 1), f"{pid}: c={row['c']} "
                              f"n={row['n']}, expected c={c} n={n}")
            elif any(not math.isclose(row["pass_at"][k], v, abs_tol=1e-12)
                     for k, v in curve.items()):
                findings.flag(index, n, f"{pid}: pass@k {row['pass_at']} expected {curve}")
        for k, values in expected_means.items():
            got = out["passk"]["aggregate"].get(k)
            if got is None or not math.isclose(got, sum(values) / len(values), abs_tol=1e-12):
                findings.flag(index, len(values) * n, f"aggregate pass@{k} = {got}")
    if spans is not None:
        _check_verdicts(spec, corpus, outputs, spans, findings)


def _check_verdicts(spec, corpus, outputs, spans, findings):
    """Traced passes: each candidate's run verdicts match its planted kind."""
    from tracing import code_key

    expected: dict[str, Counter] = {}
    for pid, plant in spec["filter_planted"].items():
        for code, kind in zip(corpus[pid]["solutions"], plant["kinds"]):
            expected.setdefault(code_key(code), Counter()).update(
                expected_verdicts(kind, plant["tests"]))
    generations = {row["id"]: row["generations"] for row in _read_jsonl(spec["generations"])}
    for pid, plant in spec["passk_planted"].items():
        for code, kind in zip(generations[pid], plant["kinds"]):
            expected.setdefault(code_key(code), Counter()).update(
                expected_verdicts(kind, plant["tests"]))
    for index, pass_spans in spans.items():
        if outputs[index] is None:
            continue
        seen: dict[str, Counter] = {}
        for _, _, _, name, _, _, attrs in pass_spans:
            if name == "run_solution" and attrs.get("code") in expected:
                seen.setdefault(attrs["code"], Counter())[attrs["verdict"]] += 1
        wrong = [key for key, verdicts in expected.items() if seen.get(key, Counter()) != verdicts]
        if wrong:
            findings.flag(index, len(wrong), f"{len(wrong)} candidate(s) with verdicts "
                          "other than planted")


# ---------------------------------------------------------------------------


def check(spec: dict, passes: list[dict], trace_spans: dict | None = None) -> Findings:
    """Failed items per pass; a pass that raised fails all its items."""
    findings = Findings(len(passes))
    outputs = []
    for index, result in enumerate(passes):
        if result.get("outputs") is None:
            findings.flag(index, spec["items"], (result.get("error") or "no output")
                          .strip().splitlines()[-1])
            outputs.append(None)
        else:
            outputs.append(result["outputs"])
    if spec["workload"] == "study":
        check_study(spec, outputs, findings)
        check_singularize(spec, outputs, findings)
    else:
        check_sandbox(spec, outputs, findings, trace_spans)
    findings.failed = [min(f, spec["items"]) for f in findings.failed]
    return findings


def main(argv: list[str]) -> int:
    work = Path(argv[0])
    trace = argv[1] == "1"
    spec = json.loads((work / "spec.json").read_text(encoding="utf-8"))
    passes = [json.loads(p.read_text(encoding="utf-8"))
              for p in sorted(work.glob("pass-*.json"))]
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    spans = {i: p["spans"] for i, p in enumerate(passes) if p.get("spans") is not None}
    findings = check(spec, passes, spans if trace else None)
    probes = [p["outputs"].get("probes") for p in passes
              if p.get("outputs") and "probes" in p["outputs"]]
    (work / "check.json").write_text(json.dumps({
        "failed": findings.failed,
        "problems": findings.problems,
        "probes": probes,
        "spans": tracer.spans if tracer else [],
    }), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
