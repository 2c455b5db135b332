"""Self-test of the benchmark harness at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload emits every metric BENCHMARK.json names, with
its unit, in both modes; that each oracle flags a deliberately wrong
result; that the watchdog ends a hung child; and that the benchmark
refuses to run, without printing a result, where there is no modscore
source. Takes about a minute on two cores. Exit code 0 when all hold.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402

failures: list[str] = []


def expect(condition: bool, message: str):
    if not condition:
        failures.append(message)
        print(f"FAIL {message}", file=sys.stderr)


def benchmark_units() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def check_declared_metrics(e2e: dict, layers: dict):
    expect(e2e == run.END_TO_END_UNITS, f"end_to_end in BENCHMARK.json {e2e} differs from "
           f"what run.py reports {run.END_TO_END_UNITS}")
    expect(layers == LAYER_UNITS, "per_layer in BENCHMARK.json differs from tracing.LAYER_UNITS")


def check_emitted(workload: str, trace: int, units: dict):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    label = f"{workload} trace {trace}"
    expect(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
    if proc.returncode != 0:
        return
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{label}: keys {set(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{label}: correct={result['correct']} failed={result['failed']}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == units, f"{label}: metrics differ: missing {set(units) - set(got)}, "
           f"extra {set(got) - set(units)}")


def one_pass(workload: str, work: Path) -> tuple[dict, dict]:
    spec = workloads.build(workload, 5, "tiny", work)
    spec["jobs"] = len(os.sched_getaffinity(0))
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    (work / "tmp").mkdir()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(HERE)]),
               TMPDIR=str(work / "tmp"))
    result = run.run_pass(0, False, spec, work, env)
    expect(result.get("outputs") is not None, f"{workload}: pass failed: {result.get('error')}")
    return spec, result


def flags(spec: dict, passes: list[dict], label: str):
    findings = oracles.check(spec, passes)
    expect(sum(findings.failed) > 0, f"oracle did not flag: {label}")


def check_oracles(work_root: Path):
    for workload in run.WORKLOADS:
        work = work_root / workload
        work.mkdir()
        spec, good = one_pass(workload, work)
        if good.get("outputs") is None:
            continue
        expect(sum(oracles.check(spec, [good]).failed) == 0, f"{workload}: oracle flags a good pass")
        bad = copy.deepcopy(good)
        out = bad["outputs"]
        if workload == "study":
            row = out["problems"][0]
            row["mos_values"][0] = 0.5 if row["mos_values"][0] != 0.5 else 0.25
            flags(spec, [bad], "study score changed")
            bad = copy.deepcopy(good)
            bad["outputs"]["pearson"]["p"] = good["outputs"]["pearson"]["p"] / 2
            flags(spec, [good, bad], "study p-value not repeated")
            bad = copy.deepcopy(good)
            out = bad["outputs"]
            index = next(i for i, u in enumerate(out["units"]) if "text" in u)
            out["units"][index]["text"] += "print('extra')\n"
            flags(spec, [bad], "study: singularized unit prints differently")
            bad = copy.deepcopy(good)
            index = next(i for i, u in enumerate(spec["units"]) if u["kind"] == "recursive")
            bad["outputs"]["units"][index] = {"text": "print(0)\n", "n": 0, "mos": 0.0}
            flags(spec, [bad], "study: recursive unit transformed")
        else:
            pid = next(iter(out["kept"]))
            out["kept"][pid] = out["kept"][pid][1:]
            flags(spec, [bad], "sandbox kept solution lost")
            bad = copy.deepcopy(good)
            bad["outputs"]["passk"]["problems"][0]["c"] += 1
            flags(spec, [bad], "sandbox c changed")
            bad = copy.deepcopy(good)
            bad["outputs"]["dropped"] = []
            flags(spec, [bad], "sandbox drop reason lost")
        crashed = {"items": spec["items"], "traced": False, "outputs": None, "error": "boom"}
        flags(spec, [crashed], f"{workload} pass without outputs")


def check_watchdog(work_root: Path):
    start = time.monotonic()
    code = run.run_child([sys.executable, "-c", "import time; time.sleep(60)"], dict(os.environ),
                         1.0, work_root / "hang.log")
    expect(code is None and time.monotonic() - start < 10, "watchdog did not end a hung child")


def check_refuses_bare_directory(work_root: Path):
    bare = work_root / "bare"
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    command = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["command"]
    proc = subprocess.run([*command, "--workload", "study", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")


def main() -> int:
    e2e, layers = benchmark_units()
    check_declared_metrics(e2e, layers)
    work_root = ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    work_root.mkdir(parents=True)
    try:
        check_watchdog(work_root)
        check_refuses_bare_directory(work_root)
        check_oracles(work_root)
        for workload in run.WORKLOADS:
            check_emitted(workload, 0, e2e)
            check_emitted(workload, 1, layers)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
