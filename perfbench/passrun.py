"""One timed pass of a workload, in a fresh process.

    python3 perfbench/passrun.py SPEC OUT SPAWNED_AT TRACE

SPAWNED_AT is the parent's ``time.monotonic()`` just before it started
this process (the clock is system-wide on Linux); setup time runs from
there until ``modscore.cli`` is imported. The timed window then covers
the workload's calls into modscore and nothing else: the spec is read
before it, and outputs are collected and the known-defect probes run
after it. CPU time counts this process and the sandboxed programs it
reaped. The result, with the spans when TRACE is 1, goes to OUT as JSON.
"""

import sys
import time

import modscore.cli

READY = time.monotonic()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

from modscore import inliner, modularity, parsing, sandbox  # noqa: E402
from modscore.corpus import TestCase  # noqa: E402
from modscore.errors import ModscoreError  # noqa: E402


def _cli(argv: list[str]) -> dict:
    """Run one subcommand through modscore.cli.main; parse its JSON stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = modscore.cli.main(argv)
    if code != 0:
        raise RuntimeError(f"modscore {argv[0]} exited {code}")
    return json.loads(out.getvalue())


def _study(spec: dict, jobs: list[str]) -> dict:
    report = _cli(["classify", spec["corpus"], *jobs])
    units = _singularize(spec, jobs)["units"]
    with open(spec["scored"], "w", encoding="utf-8") as handle:
        for problem in report["problems"]:
            for i, mos in enumerate(problem["mos_values"]):
                unit_id = f"{problem['problem_id']}[{i}]"
                handle.write(json.dumps({"unit_id": unit_id, "mos": mos,
                                         "pass1": spec["pass1"][unit_id]}) + "\n")
    correlation = _cli(["correlate", spec["scored"], "--seed", str(spec["seed"]), *jobs])
    return {"problems": report["problems"], "units": units,
            "samples": correlation["samples"],
            "pearson": correlation["pearson"], "spearman": correlation["spearman"]}


def _singularize(spec: dict, jobs: list[str]) -> dict:
    results = []
    for unit in spec["units"]:
        try:
            flat = inliner.singularize(parsing.parse(unit["source"], unit_id=unit["id"]))
            report = modularity.score_unit(flat)
            results.append({"text": flat.text, "n": report.n, "mos": report.mos})
        except ModscoreError as exc:
            results.append({"refused": type(exc).__name__})
    return {"units": results}


def _sandbox(spec: dict, jobs: list[str]) -> dict:
    limits = spec["limits"]
    flags = [*jobs, "--wall-time", str(limits["wall_time"]), "--memory", str(limits["memory"]),
             "--output-cap", str(limits["output_cap"])]
    _cli(["filter", spec["filter_corpus"], "--out", spec["kept"], "--report", spec["report"],
          *flags])
    passk = _cli(["passk", spec["passk_corpus"], "--gens", spec["generations"],
                  "--k", ",".join(map(str, spec["ks"])), "--n", str(spec["n"]), *flags])
    return {"passk": {"problems": passk["problems"], "aggregate": passk["aggregate"]}}


def _collect_sandbox(spec: dict, outputs: dict):
    with open(spec["kept"], encoding="utf-8") as handle:
        outputs["kept"] = {row["id"]: row["solutions"]
                           for row in map(json.loads, filter(str.strip, handle))}
    with open(spec["report"], encoding="utf-8") as handle:
        outputs["dropped"] = json.load(handle)["filter"]["dropped"]
    # Whitespace-only stderr from a failing program: judged one at a time
    # through run_solution, so a crash of the judge cannot abort the pass.
    limits = sandbox.RunLimits(**spec["limits"])
    outputs["probes"] = []
    for probe in spec["probes"]:
        test = TestCase(probe["test"]["input"].encode(), probe["test"]["output"].encode())
        try:
            verdict = sandbox.run_solution(probe["code"], test, limits).verdict
        except Exception as exc:  # the defect under watch; recorded, not raised
            verdict = f"crashed: {type(exc).__name__}"
        outputs["probes"].append(verdict)


PASSES = {"study": _study, "sandbox": _sandbox}


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def main(argv: list[str]) -> int:
    spec_path, out_path, spawned_at, trace = argv
    setup_s = READY - float(spawned_at)
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    jobs = ["--jobs", str(spec["jobs"])]
    tracer = None
    if trace == "1":
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    result = {"setup_s": setup_s, "items": spec["items"], "traced": tracer is not None}
    cpu_before = _cpu_seconds()
    start = time.perf_counter()
    try:
        outputs = PASSES[spec["workload"]](spec, jobs)
    except Exception:
        result["error"] = traceback.format_exc()
        outputs = None
    result["wall_s"] = time.perf_counter() - start
    result["cpu_s"] = _cpu_seconds() - cpu_before
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if outputs is not None and spec["workload"] == "sandbox":
        _collect_sandbox(spec, outputs)
    result["outputs"] = outputs
    if tracer is not None:
        result["spans"] = tracer.spans
    tmp = out_path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, out_path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
