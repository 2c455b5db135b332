"""Corpus benchmark for modscore.

    python3 perfbench/run.py --workload study|sandbox \
        --seed N --seconds S --trace 0|1

Run from the root of a modscore checkout. The run generates the
workload's inputs from the seed, then starts timed passes back to back
(a closed loop, one pass at a time) for S seconds, each in a fresh
process that runs the whole workload once with ``--jobs`` equal to the
usable cores. One checker process then holds every pass's outputs
against the workload's oracle. The last line of stdout is one JSON
object: ``correct``, ``attempted`` and ``failed`` count items over all
passes, and ``metrics`` holds the medians over passes of the end-to-end
metrics (trace 0) or of the per-layer metrics of the traced passes
(trace 1, where untraced and traced passes alternate). Progress, the
input-property mix and the known-defect probe go to stderr; spans of a
traced run go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REQUIRED = ("src/modscore/cli.py", "tests/gen_programs.py",
            "tests/fixtures/singularize_corpus.jsonl")
WORKLOADS = ("study", "sandbox")
END_TO_END_UNITS = {"items_per_s": "items/s", "cpu_ms_per_item": "ms",
                    "peak_rss_mib": "MiB", "setup_s": "s"}
MIN_PASSES = 3
PASS_WATCHDOG_S = 60  # a pass that runs longer is killed and fails all its items
CHECK_WATCHDOG_S = 60
LAST_PASS_START_S = 110  # no pass starts later than this into the run


def run_child(argv: list[str], env: dict, timeout: float, log: Path) -> int | None:
    """Run argv in its own session; None when the watchdog had to kill it."""
    with open(log, "wb") as out:
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=out, start_new_session=True)
        try:
            return proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def _log_tail(log: Path) -> str:
    lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else "no output"


def run_pass(index: int, traced: bool, spec: dict, work: Path, env: dict) -> dict:
    out = work / f"pass-{index:03d}.json"
    log = work / f"pass-{index:03d}.log"
    spawned_at = time.monotonic()
    code = run_child([sys.executable, str(HERE / "passrun.py"), str(work / "spec.json"),
                      str(out), repr(spawned_at), "1" if traced else "0"],
                     env, PASS_WATCHDOG_S, log)
    if code == 0 and out.exists():
        return json.loads(out.read_text(encoding="utf-8"))
    error = (f"watchdog: pass ran over {PASS_WATCHDOG_S}s and was killed" if code is None
             else f"pass exited {code}: {_log_tail(log)}")
    result = {"items": spec["items"], "traced": traced, "outputs": None, "error": error,
              "hung": code is None}
    out.write_text(json.dumps(result), encoding="utf-8")
    return result


def closed_loop(spec: dict, work: Path, env: dict, seconds: int, trace: bool) -> list[dict]:
    """Passes back to back until `seconds` have passed and enough ran."""
    passes: list[dict] = []
    start = time.monotonic()
    while True:
        traced = trace and len(passes) % 2 == 1
        result = run_pass(len(passes), traced, spec, work, env)
        passes.append(result)
        print(f"perfbench: pass {len(passes) - 1}{' traced' if traced else ''}: "
              f"wall {result.get('wall_s', float('nan')):.3f}s "
              f"cpu {result.get('cpu_s', float('nan')):.3f}s "
              f"setup {result.get('setup_s', float('nan')):.3f}s"
              f"{' ERROR ' + result['error'] if result.get('error') else ''}", file=sys.stderr)
        if result.get("hung"):
            break
        elapsed = time.monotonic() - start
        pair_done = not trace or len(passes) % 2 == 0
        if pair_done and elapsed >= LAST_PASS_START_S:
            break
        if pair_done and len(passes) >= (2 if trace else MIN_PASSES) and elapsed >= seconds:
            break
    return passes


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(passes: list[dict]) -> dict:
    timed = [p for p in passes if not p["traced"] and "wall_s" in p]
    values = {
        "items_per_s": [p["items"] / p["wall_s"] for p in timed],
        "cpu_ms_per_item": [1000 * p["cpu_s"] / p["items"] for p in timed],
        "peak_rss_mib": [p["peak_rss_mib"] for p in timed],
        "setup_s": [p["setup_s"] for p in timed],
    }
    return {name: {"value": _median(values[name]), "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS}


def per_layer(passes: list[dict], oracle_spans: list, jobs: int) -> dict:
    from tracing import LAYER_UNITS as units, layer_metrics

    traced = [layer_metrics(p["spans"], jobs, oracle_spans)
              for p in passes if p["traced"] and p.get("spans") is not None]
    walls = {flag: [p["wall_s"] for p in passes if p["traced"] == flag and "wall_s" in p]
             for flag in (False, True)}
    metrics = {name: {"value": _median([m[name] for m in traced]), "unit": units[name]}
               for name in units if name != "trace.overhead_ratio"}
    untraced = _median(walls[False])
    metrics["trace.overhead_ratio"] = {
        "value": _median(walls[True]) / untraced if untraced else 0.0,
        "unit": units["trace.overhead_ratio"]}
    return metrics


def write_spans(path: Path, passes: list[dict], oracle_spans: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for index, p in enumerate(passes):
            for span in p.get("spans") or ():
                handle.write(json.dumps({"pass": index, "span": span}) + "\n")
        for span in oracle_spans:
            handle.write(json.dumps({"pass": "oracle", "span": span}) + "\n")


def report_probes(probes: list):
    verdicts = [v for per_pass in probes for v in per_pass]
    crashed = [v for v in verdicts if v.startswith("crashed")]
    if crashed:
        print(f"perfbench: known defect: {len(crashed)} of {len(verdicts)} runs of a program "
              f"that writes only whitespace to stderr crashed the judge ({crashed[0]}) "
              "instead of getting runtime_error", file=sys.stderr)
    elif verdicts:
        print(f"perfbench: whitespace-stderr probes: {sorted(set(verdicts))}", file=sys.stderr)


def measure(args, work: Path) -> dict:
    import workloads

    jobs = len(os.sched_getaffinity(0))
    spec = workloads.build(args.workload, args.seed, args.size, work)
    spec["jobs"] = jobs
    (work / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "jobs": jobs,
                      "inputs": spec["properties"]}), file=sys.stderr)
    pythonpath = [str(ROOT / "src"), str(HERE)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    (work / "tmp").mkdir()
    # the sandbox's per-run directories go under the work directory too
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(pythonpath), TMPDIR=str(work / "tmp"))
    # compile and cache the package once, as an installed copy would be
    if run_child([sys.executable, "-c", "import modscore.cli"], env, CHECK_WATCHDOG_S,
                 work / "warmup.log") != 0:
        raise RuntimeError(f"cannot import modscore: {_log_tail(work / 'warmup.log')}")

    passes = closed_loop(spec, work, env, args.seconds, bool(args.trace))
    check_log = work / "check.log"
    code = run_child([sys.executable, str(HERE / "oracles.py"), str(work), str(args.trace)],
                     env, CHECK_WATCHDOG_S, check_log)
    if code == 0:
        check = json.loads((work / "check.json").read_text(encoding="utf-8"))
    else:
        check = {"failed": [spec["items"]] * len(passes), "probes": [], "spans": [],
                 "problems": [f"checker failed: {_log_tail(check_log)}"]}
    for problem in check["problems"]:
        print(f"perfbench: oracle: {problem}", file=sys.stderr)
    report_probes(check["probes"])

    if args.trace:
        metrics = per_layer(passes, check["spans"], jobs)
        spans_path = ROOT / ".perfbench_out" / f"spans-{args.workload}-s{args.seed}.jsonl"
        write_spans(spans_path, passes, check["spans"])
        print(f"perfbench: spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)
    else:
        metrics = end_to_end(passes)
    failed = sum(check["failed"])
    return {"correct": code == 0 and failed == 0, "attempted": spec["items"] * len(passes),
            "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the self-test")
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: {ROOT} is not a modscore checkout; missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "tests"), str(HERE)]
    work = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
