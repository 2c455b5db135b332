"""Command-line entry point.

Subcommands compose the pipeline: analyze -> classify -> singularize ->
filter -> passk -> correlate -> ppl. Each takes a flag for every setting it
reads and no other (``_READS``). A subcommand's handler takes the parsed
arguments and the built config and returns its report body (``None`` for
``singularize``, which prints source); ``main`` wraps the body with the
tool version and the settings the command read, under their config-file
keys, and prints it.
Exit codes: 0 success, 1 usage, 2 malformed corpus, 3 transform
unsupported, 4 sandbox unavailable.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import signal
import sys
from dataclasses import asdict, dataclass, fields

from . import __version__
from .corpus import (
    Problem,
    case_from_row,
    load_corpus,
    load_generations,
    filter_corpus,
    read_rows,
    require,
    save_corpus,
)
from .errors import (
    ConfigError,
    CorpusFormatError,
    DomainError,
    DynamicCallUnsupported,
    EmptyInput,
    EncodingError,
    ExternalNameCollision,
    InvalidLogProb,
    ModscoreError,
    RecursionUnsupported,
    SandboxUnavailable,
    TransformUnsupported,
)
from .inliner import singularize
from .modularity import DEFAULT_TAU, Categorization, categorize_solutions, score_unit
from .parsing import parse
from .passk import EvalResult, aggregate
from .sandbox import RunLimits, passes_each, verify_equivalence
from .stats import (
    DEFAULT_BINS,
    DEFAULT_PERMUTATIONS,
    LogProbRecord,
    ScoredSample,
    binned_sample,
    correlations,
    perplexity,
    ppl_compare,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CORPUS = 2
EXIT_TRANSFORM = 3
EXIT_SANDBOX = 4

_TRANSFORM_ERRORS = (
    TransformUnsupported,
    RecursionUnsupported,
    DynamicCallUnsupported,
    ExternalNameCollision,
)

# each profile's name, and whether it counts short-circuit operators as decisions
_PROFILES = {"py3": True, "py3-nosc": False}


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1 with one line; argparse's default of 2 is taken
    # by corpus errors, and -h still prints the usage
    def error(self, message):
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@dataclass
class RunConfig:
    profile: str = "py3"
    tau: int = DEFAULT_TAU
    seed: int = 0
    jobs: int = 0
    wall_time: float = RunLimits.wall_time
    memory: int = RunLimits.memory
    output_cap: int = RunLimits.output_cap
    exact_output: bool = False
    output_format: str = "json"

    def limits(self) -> RunLimits:
        return RunLimits(self.wall_time, self.memory, self.output_cap)


_CONFIG_TYPES = {f.name: type(f.default) for f in fields(RunConfig)}

# The RunConfig keys each subcommand reads: it takes a flag for each, and its
# report echoes exactly these. output_format (--json/--table) shapes only the
# printing, so no report echoes it.
_LIMITS = ("wall_time", "memory", "output_cap", "exact_output")
_READS = {
    "analyze": ("profile", "tau"),
    "classify": ("profile", "tau", "jobs"),
    "singularize": _LIMITS,
    "filter": ("jobs", *_LIMITS),
    "passk": ("jobs", *_LIMITS),
    "correlate": ("seed",),  # also takes --jobs, unread: perfbench/passrun.py sends it
    "ppl": (),
}


def _effective_jobs(jobs: int) -> int:
    """An explicit --jobs, else the cores this process may run on."""
    if jobs > 0:
        return jobs
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_share(fn, items: list) -> tuple[list, Exception | None]:
    """``fn`` over ``items`` up to the first call that raises, and what it raised."""
    results = []
    try:
        for item in items:
            results.append(fn(item))
    except Exception as exc:
        return results, exc
    return results, None


def _how_it_ended(status: int) -> str:
    if os.WIFSIGNALED(status):
        return f"was killed by signal {os.WTERMSIG(status)}"
    return f"exited with status {os.waitstatus_to_exitcode(status)}"


def _map_jobs(fn, items: list, jobs: int) -> list:
    """``fn`` over ``items`` in order, in ``min(jobs, len(items))`` processes.

    Item i belongs to share ``i % workers``. This process forks one child
    per share but share 0, before any work starts, then maps share 0
    itself. Forked, not spawned: a spawned worker re-imports modscore,
    which on a few cores costs most of what it would save. Forking is safe
    because the process that forks has no other thread: nothing the CLI
    imports starts one, and no subcommand that maps computes statistics,
    the only code that loads numpy. Each child maps its share up to its
    first error, writes ``(results, error)`` into its own pipe as a pickle
    and leaves by ``os._exit``. Results come back in input order, and the
    first item in that order whose call raised raises here, as a serial
    map does. A child that ends without a full result makes the call
    raise ``RuntimeError``, saying how the child ended. If this process
    raises, it kills and reaps the children it has not reaped yet.
    """
    workers = min(jobs, len(items))
    if workers <= 1:
        return list(map(fn, items))
    import pickle

    children = {}  # share -> (pid, read end of its pipe), until reaped
    try:
        for share in range(1, workers):
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    os.close(read_fd)
                    for _, pipe in children.values():
                        pipe.close()
                    with open(write_fd, "wb") as pipe:
                        pickle.dump(_map_share(fn, items[share::workers]), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write_fd)
            children[share] = (pid, open(read_fd, "rb"))
        shares = [_map_share(fn, items[::workers])]
        for share in range(1, workers):
            pid, pipe = children[share]
            data = pipe.read()
            pipe.close()
            _, status = os.waitpid(pid, 0)
            del children[share]
            if status != 0:
                raise RuntimeError(
                    f"worker process {pid} {_how_it_ended(status)} before handing back its results"
                )
            shares.append(pickle.loads(data))
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    failed = [(share + len(results) * workers, exc)
              for share, (results, exc) in enumerate(shares) if exc is not None]
    if failed:
        raise min(failed, key=lambda pair: pair[0])[1]
    return [shares[i % workers][0][i // workers] for i in range(len(items))]


def _read_config(path: str) -> dict:
    """The settings of a config file, checked against RunConfig's fields."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"config {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise ConfigError(f"config {path}: not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: must hold a JSON object")
    for key, value in data.items():
        want = _CONFIG_TYPES.get(key)
        if want is None:
            raise ConfigError(
                f"config {path}: unknown key {key!r}; known: {sorted(_CONFIG_TYPES)}"
            )
        accepted = (int, float) if want is float else want
        if isinstance(value, bool) is not (want is bool) or not isinstance(value, accepted):
            raise ConfigError(
                f"config {path}: {key!r} must be {want.__name__}, got {value!r}"
            )
    return data


def _build_config(args) -> RunConfig:
    config = RunConfig()
    if getattr(args, "config", None):
        for key, value in _read_config(args.config).items():
            setattr(config, key, value)
    for key in _CONFIG_TYPES:
        value = getattr(args, key, None)
        if value is not None:
            setattr(config, key, value)
    env_profile = os.environ.get("MODSCORE_PROFILE")
    if env_profile:
        config.profile = env_profile
    if config.output_format not in ("json", "table"):
        raise ConfigError(
            f"output_format must be 'json' or 'table', got {config.output_format!r}"
        )
    if config.profile not in _PROFILES:
        raise ConfigError(
            f"unknown profile {config.profile!r}; available: {sorted(_PROFILES)}"
        )
    if config.tau < 1:
        raise ConfigError(f"tau must be 1 or more, got {config.tau}")
    if config.jobs < 0:
        raise ConfigError(f"jobs must be 0 (the usable cores) or more, got {config.jobs}")
    if config.seed < 0:
        raise ConfigError(f"seed must be 0 or more, got {config.seed}")
    try:
        config.limits()  # RunLimits rejects a limit the OS cannot hold
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


def _emit(payload: dict, config: RunConfig):
    if config.output_format == "table":
        _print_table(payload)
    else:
        print(json.dumps(payload, indent=2))


def _print_table(payload: dict, indent: int = 0):
    pad = "  " * indent
    for key, value in payload.items():
        if key in ("version", "config"):
            continue
        if isinstance(value, dict):
            print(f"{pad}{key}:")
            _print_table(value, indent + 1)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{pad}{key}:")
            for item in value:
                line = "  ".join(f"{k}={v}" for k, v in item.items())
                print(f"{pad}  {line}")
        else:
            print(f"{pad}{key}: {value}")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args, config: RunConfig) -> dict:
    count_short_circuit = _PROFILES[config.profile]
    rows = []
    for path in args.files:
        with open(path, "rb") as handle:
            text = handle.read()
        unit = parse(text, unit_id=path)
        report = score_unit(unit, config.tau, count_short_circuit)
        comp = report.complexity
        rows.append({
            "id": path,
            "cc_total": comp.cc_total,
            "cc_avg": comp.cc_avg,
            "function_count": comp.function_count,
            "per_function": [
                {"name": fn.qualname, "cc": cc}
                for fn, cc in comp.per_function.items()
            ],
            "n": report.n,
            "m_star": report.m_star,
            "mos": report.mos,
        })
    return {"units": rows}


def _classify_problem(problem: Problem, count_short_circuit: bool, tau: int) -> dict:
    reports = []
    for i, solution in enumerate(problem.solutions):
        unit = parse(solution, unit_id=f"{problem.id}[{i}]")
        reports.append(score_unit(unit, tau, count_short_circuit))
    # a problem with no solutions has neither pick
    picks = categorize_solutions(reports) if reports else Categorization(None, None)
    return {
        "problem_id": problem.id,
        "mc_solution_index": picks.mc_index,
        "sc_solution_index": picks.sc_index,
        "mos_values": [r.mos for r in reports],
    }


def _cmd_classify(args, config: RunConfig) -> dict:
    problems = load_corpus(args.corpus)
    rows = _map_jobs(
        functools.partial(_classify_problem, count_short_circuit=_PROFILES[config.profile],
                          tau=config.tau),
        problems, _effective_jobs(config.jobs),
    )
    return {"problems": rows}


def _cmd_singularize(args, config: RunConfig) -> None:
    with open(args.file, "rb") as handle:
        text = handle.read()
    unit = parse(text, unit_id=args.file)
    transformed = singularize(unit)
    if args.verify:
        tests = read_rows(args.verify, None, case_from_row)
        if not tests:
            raise EmptyInput(f"{args.verify}: no tests to verify against")
        if not verify_equivalence(unit, transformed, tests, config.limits(),
                                  exact=config.exact_output):
            raise TransformUnsupported("verification failed: verdicts or outputs differ")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(transformed.text)
    else:
        sys.stdout.write(transformed.text)


def _cmd_filter(args, config: RunConfig) -> dict:
    problems = load_corpus(args.corpus)
    kept, report = filter_corpus(
        problems,
        config.limits(),
        exact=config.exact_output,
        jobs=_effective_jobs(config.jobs),
    )
    save_corpus(kept, args.out)
    return {"filter": asdict(report)}


def _parse_ks(text: str) -> list[int]:
    try:
        ks = sorted({int(k) for k in text.split(",")})
    except ValueError:
        raise DomainError(f"--k takes comma-separated integers, got {text!r}") from None
    if ks[0] < 1:
        raise DomainError(f"--k values must be >= 1, got {ks[0]}")
    return ks


def _cmd_passk(args, config: RunConfig) -> dict:
    ks = _parse_ks(args.k)
    generations = load_generations(args.gens)
    judged = []
    skipped = []
    for problem in load_corpus(args.corpus):
        pid = problem.id
        gens = generations.get(pid)
        if gens is None:
            skipped.append({"id": pid, "reason": "no generations"})
            continue
        if not problem.tests:
            skipped.append({"id": pid, "reason": "no tests"})
            continue
        if args.n is not None and len(gens) != args.n:
            raise DomainError(
                f"problem {pid}: expected n={args.n} generations, got {len(gens)}"
            )
        if ks[-1] > len(gens):
            raise DomainError(f"problem {pid}: k={ks[-1]} exceeds n={len(gens)}")
        judged.append((pid, gens, problem.tests))
    verdicts = iter(passes_each(
        [(code, tests) for _, gens, tests in judged for code in gens],
        config.limits(), exact=config.exact_output, jobs=_effective_jobs(config.jobs),
    ))
    results = [
        EvalResult.from_counts(pid, len(gens), sum(next(verdicts) for _ in gens), ks)
        for pid, gens, _ in judged
    ]
    rows = [
        {
            "problem_id": r.problem_id,
            "n": r.n_samples,
            "c": r.c_correct,
            "pass_at": {str(k): v for k, v in sorted(r.pass_at.items())},
        }
        for r in results
    ]
    summary = {str(k): aggregate(results, k) for k in ks} if results else {}
    return {"problems": rows, "aggregate": summary, "skipped": skipped}


def _scored_sample(row, line_no: int) -> ScoredSample:
    return ScoredSample(
        unit_id=require(row, "unit_id", line_no, "a string or an integer"),
        mos=require(row, "mos", line_no, "a number"),
        pass1=require(row, "pass1", line_no, "a number"),
    )


def _cmd_correlate(args, config: RunConfig) -> dict:
    # checked before any input is read, as tau is
    if args.bins < 1 or args.per_bin is not None and args.per_bin < 1:
        raise DomainError(
            f"bins and per_bin must be positive, got {args.bins} and {args.per_bin}"
        )
    samples = read_rows(args.scored, "unit_id", _scored_sample)
    if args.per_bin is not None:
        samples = binned_sample(samples, args.bins, args.per_bin, config.seed)
    xs = [s.mos for s in samples]
    ys = [s.pass1 for s in samples]
    (r, rp), (rho, rhop) = correlations(xs, ys, DEFAULT_PERMUTATIONS, config.seed)
    return {
        "samples": len(samples),
        "pearson": {"r": r, "p": rp},
        "spearman": {"rho": rho, "p": rhop},
        "p_value_method": f"two-sided permutation test, {DEFAULT_PERMUTATIONS} resamples",
    }


def _logprob_record(row, line_no: int) -> LogProbRecord:
    return LogProbRecord(
        require(row, "id", line_no, "a string or an integer"),
        require(row, "category", line_no, "a string"),
        tuple(require(row, "token_logprobs", line_no, "a list of numbers")),
    )


def _cmd_ppl(args, config: RunConfig) -> dict:
    records = read_rows(args.logprobs, "id", _logprob_record)
    summaries = ppl_compare(records)
    return {
        "records": [
            {"id": r.id, "category": r.category, "ppl": perplexity(r)}
            for r in records
        ],
        "by_category": {
            name: {"mean": s.mean, "std": s.std, "count": s.count}
            for name, s in summaries.items()
        },
        "std_kind": "population",
    }


# ---------------------------------------------------------------------------
# argument wiring


def _add_settings(sub, command: str, unread: tuple = ()):
    """A flag per key the command reads (or takes ``unread``), after its RunConfig field."""
    for key in _READS[command] + unread:
        kind = _CONFIG_TYPES[key]
        how = {"action": "store_const", "const": True} if kind is bool else {"type": kind}
        sub.add_argument("--" + key.replace("_", "-"), **how)
    sub.add_argument("--config", help="JSON config file; flags win")
    if command != "singularize":  # it prints source, not a report
        for const, text in (("json", "JSON output (default)"), ("table", "plain table output")):
            sub.add_argument("--" + const, dest="output_format", action="store_const",
                             const=const, help=text)


def build_parser() -> _Parser:
    parser = _Parser(prog="modscore", description=__doc__)
    parser.add_argument("--version", action="version", version=f"modscore {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("analyze", help="complexity and modularity per file")
    sub.add_argument("files", nargs="+")
    _add_settings(sub, "analyze")
    sub.set_defaults(handler=_cmd_analyze)

    sub = commands.add_parser("classify", help="pick modular/singular solutions")
    sub.add_argument("corpus")
    _add_settings(sub, "classify")
    sub.set_defaults(handler=_cmd_classify)

    sub = commands.add_parser("singularize", help="inline every helper away")
    sub.add_argument("file")
    sub.add_argument("--verify", default=None, help="tests.jsonl to check behavior")
    sub.add_argument("--out", default=None)
    _add_settings(sub, "singularize")
    sub.set_defaults(handler=_cmd_singularize)

    sub = commands.add_parser("filter", help="drop failing solutions from a corpus")
    sub.add_argument("corpus")
    sub.add_argument("--out", required=True)
    sub.add_argument("--report", default=None)
    _add_settings(sub, "filter")
    sub.set_defaults(handler=_cmd_filter)

    sub = commands.add_parser("passk", help="pass@k over external generations")
    sub.add_argument("corpus")
    sub.add_argument("--gens", required=True)
    sub.add_argument("--k", default="1")
    sub.add_argument("--n", type=int, default=None)
    _add_settings(sub, "passk")
    sub.set_defaults(handler=_cmd_passk)

    sub = commands.add_parser("correlate", help="score/performance correlations")
    sub.add_argument("scored")
    sub.add_argument("--bins", type=int, default=DEFAULT_BINS)
    sub.add_argument("--per-bin", dest="per_bin", type=int, default=None)
    _add_settings(sub, "correlate", unread=("jobs",))
    sub.set_defaults(handler=_cmd_correlate)

    sub = commands.add_parser("ppl", help="perplexity from token log-probs")
    sub.add_argument("logprobs")
    _add_settings(sub, "ppl")
    sub.set_defaults(handler=_cmd_ppl)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        config = _build_config(args)
        body = args.handler(args, config)
        if body is not None:
            echo = {key: getattr(config, key) for key in _READS[args.command]}
            report = {"version": __version__, "config": echo, **body}
            if getattr(args, "report", None):  # filter --report
                with open(args.report, "w", encoding="utf-8") as handle:
                    json.dump(report, handle, indent=2)
            _emit(report, config)
        sys.stdout.flush()  # a closed stdout surfaces here, not at exit
        return EXIT_OK
    except BrokenPipeError:
        # point stdout at devnull so the interpreter's flush at exit is quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print("modscore: stdout closed before the output was written", file=sys.stderr)
        return EXIT_USAGE
    except _TRANSFORM_ERRORS as exc:
        print(f"modscore: {exc}", file=sys.stderr)
        return EXIT_TRANSFORM
    except SandboxUnavailable as exc:
        print(f"modscore: sandbox unavailable: {exc}", file=sys.stderr)
        return EXIT_SANDBOX
    except (CorpusFormatError, EncodingError, InvalidLogProb, OSError, SyntaxError) as exc:
        print(f"modscore: {exc}", file=sys.stderr)
        return EXIT_CORPUS
    except ModscoreError as exc:
        print(f"modscore: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
