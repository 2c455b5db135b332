"""Deterministic inputs for the two workloads.

Every generator takes the seed and a size, writes its input files into a
work directory and returns the pass spec: the paths the pass process
reads, the planted expectations the oracles check against, and the
distribution of the input properties. The shape of each workload (how
many units of each kind, how many tests per problem, which verdict each
candidate is planted to get) is fixed; the seed only changes the
programs and the data inside that shape, so runs on different seeds do
the same amount of work of the same kinds.

Needs ``tests/`` on ``sys.path`` for ``gen_programs``.
"""

from __future__ import annotations

import ast
import json
import random
from collections import Counter
from pathlib import Path

import gen_programs as gp

# sizes per workload: "full" is what the benchmark measures, "tiny" is
# what the self-test runs
SIZES = {
    "full": {
        "study_problems": 100, "study_per_problem": 5,
        "singularize_per_helper_count": 10, "singularize_recursive": 8,
        "sandbox_filter_problems": 6, "sandbox_passk_problems": 3,
    },
    "tiny": {
        "study_problems": 4, "study_per_problem": 5,
        "singularize_per_helper_count": 1, "singularize_recursive": 2,
        "sandbox_filter_problems": 3, "sandbox_passk_problems": 2,
    },
}

FIXTURES = Path(gp.__file__).resolve().parent / "fixtures"


def _write_jsonl(path: Path, rows):
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def _histogram(values) -> dict:
    return {str(k): v for k, v in sorted(Counter(values).items())}


# ---------------------------------------------------------------------------
# study: classify, singularize, correlate

FUNCTION_COUNTS = (0, 1, 2, 3, 4, 5, 6)
# structured_function sizes (source lines) are drawn from these bands in
# turn, so the amount of code per pass hardly depends on the seed
LINE_BANDS = ((3, 7), (7, 12), (12, 20), (20, 32))


def _structured(rng: random.Random, name: str, band: tuple[int, int]) -> str:
    while True:
        text = gp.structured_function(rng.randrange(1 << 30))
        if band[0] <= text.count("\n") < band[1]:
            return text.replace("def fn(", f"def {name}(", 1)


def _toplevel(rng: random.Random, depth: int) -> str:
    # depth 0 leaves room for three levels of nesting; the generator adds
    # nested defs only at depth 1, so neither depth defines a function
    lines = gp._StructuredGen(rng).block([], depth=depth, in_loop=False, allow_return=False)
    return "\n".join(lines) + "\n"


def _study_solution(rng: random.Random, n_functions: int, band_cursor: list[int]) -> str:
    if n_functions == 0:  # singular variant, written directly as toplevel code
        return _toplevel(rng, 0)
    parts = []
    for j in range(n_functions):
        if j % 3 == 2:
            parts.append(gp._RunnableGen(rng).helper(f"f{j}"))
        else:
            band = LINE_BANDS[band_cursor[0] % len(LINE_BANDS)]
            band_cursor[0] += 1
            parts.append(_structured(rng, f"f{j}", band))
    parts.append(_toplevel(rng, 2))
    return "\n".join(parts)


def make_study(seed: int, size: dict, work: Path) -> dict:
    rng = random.Random(seed)
    rows, pass1, counts = [], {}, []
    band_cursor = [0]
    slot = 0
    for p in range(size["study_problems"]):
        pid = f"p{p:04d}"
        solutions = []
        for i in range(size["study_per_problem"]):
            n_functions = FUNCTION_COUNTS[slot % len(FUNCTION_COUNTS)]
            slot += 1
            solutions.append(_study_solution(rng, n_functions, band_cursor))
            counts.append(n_functions)
            # synthetic pass@1 over ten generations, tilted towards modular code
            pass1[f"{pid}[{i}]"] = min(10, rng.randint(0, 8) + n_functions // 2) / 10
        rows.append({"id": pid, "description": "", "difficulty": None,
                     "solutions": solutions, "tests": []})
    corpus = work / "study_corpus.jsonl"
    _write_jsonl(corpus, rows)
    sources = [s for row in rows for s in row["solutions"]]
    units, unit_properties = make_units(seed, size)
    return {
        "workload": "study",
        "seed": seed,
        "items": len(sources) + len(units),
        "corpus": str(corpus),
        "scored": str(work / "scored.jsonl"),
        "pass1": pass1,
        "units": units,
        "properties": {
            "solutions": len(sources),
            "functions_per_solution": _histogram(counts),
            "source_lines_per_solution": _quartiles([s.count("\n") for s in sources]),
            "singularize": unit_properties,
        },
    }


def _quartiles(values: list[int]) -> dict:
    ordered = sorted(values)
    pick = lambda q: ordered[min(len(ordered) - 1, int(q * len(ordered)))]  # noqa: E731
    return {"min": ordered[0], "q1": pick(0.25), "median": pick(0.5),
            "q3": pick(0.75), "max": ordered[-1]}


# ---------------------------------------------------------------------------
# the study's units: singularize(parse(src)) + score_unit per unit

HELPER_COUNTS = tuple(range(1, 9))

RECURSIVE_HELPER = (
    "def rec(n):\n"
    "    if n <= 0:\n"
    "        return 0\n"
    "    return n + rec(n - 1)\n\n"
)


def _runnable(rng: random.Random, helpers: int) -> tuple[str, str]:
    source, reads = gp._RunnableGen(rng).program(n_helpers=helpers)
    stdin = "".join(f"{rng.randint(-20, 40)}\n" for _ in range(reads))
    return source, stdin


def make_units(seed: int, size: dict) -> tuple[list[dict], dict]:
    """The units the study pass singularizes, and their property mix."""
    rng = random.Random(f"singularize-{seed}")
    units = []
    for h in HELPER_COUNTS:
        for _ in range(size["singularize_per_helper_count"]):
            source, stdin = _runnable(rng, h)
            units.append({"source": source, "stdins": [stdin], "kind": "generated"})
    for i in range(size["singularize_recursive"]):
        source, stdin = _runnable(rng, HELPER_COUNTS[i % len(HELPER_COUNTS)])
        source = RECURSIVE_HELPER + source + "print(rec(x0 % 5))\n"
        units.append({"source": source, "stdins": [stdin], "kind": "recursive"})
    with open(FIXTURES / "singularize_corpus.jsonl", encoding="utf-8") as handle:
        for line in handle:
            row = json.loads(line)
            for source in row["solutions"]:
                units.append({"source": source, "kind": "fixture",
                              "stdins": [t["input"] for t in row["tests"]]})
    rng.shuffle(units)
    for i, unit in enumerate(units):
        unit["id"] = f"u{i:04d}"
    helpers = [sum(isinstance(n, ast.FunctionDef) for n in ast.parse(u["source"]).body)
               for u in units]
    return units, {
        "units": len(units),
        "kinds": _histogram(u["kind"] for u in units),
        "helpers_per_unit": _histogram(helpers),
        "source_bytes_per_unit": _quartiles([len(u["source"].encode()) for u in units]),
    }


# ---------------------------------------------------------------------------
# sandbox: filter + passk

WALL_TIME = 1.5
MEMORY = 256 * 1024 * 1024
OUTPUT_CAP = 64 * 1024
PASSK_N = 10
PASSK_KS = (1, 5, 10)

# Each filter problem: (tests, planted candidate kinds). Two problems have
# no passing candidate and one has no tests, so both drop reasons occur.
# Costliest first, so the pool's last jobs are short ones whatever order
# the workers happen to finish in.
FILTER_SHAPES = (
    (3, ("correct", "wrong_last", "output_cap", "heavy", "wrong_first")),
    (4, ("wrong_first", "correct", "memory", "wrong_last")),
    (2, ("correct", "wrong_first", "wrong_last", "exception", "correct")),
    (3, ("wrong_first", "wrong_last", "exception")),
    (2, ("exception", "memory", "output_cap")),
    (0, ("correct", "correct")),
)
# Each passk problem: (tests, number correct out of PASSK_N); the failing
# rest cycle through FAILING_KINDS. The first problem's correct ones
# include a heavy one; the second ends with the timeout. The order is
# fixed, so where the slow candidates fall in the pool's queue does not
# depend on the seed.
PASSK_SHAPES = ((2, 6), (3, 0), (2, 9))
FAILING_KINDS = ("wrong_first", "wrong_last", "exception", "wrong_first", "output_cap",
                 "wrong_last", "memory", "exception")
# loop lengths that take roughly 0.2-0.3 s at about 6M iterations/s
HEAVY_LOOPS = (1_200_000, 1_500_000, 1_800_000)

READ = "import sys\nxs = [int(t) for t in sys.stdin.read().split()]\n"
WHITESPACE_STDERR = "import sys\nsys.stderr.write('\\n  \\n')\nsys.exit(3)\n"


class _Problem:
    def __init__(self, rng: random.Random, tests: int):
        self.a, self.b = rng.randint(2, 9), rng.randint(1, 9)
        self.m = rng.choice((97, 101, 997, 1009))
        self.inputs: list[list[int]] = []
        while len(self.inputs) < tests:
            xs = [rng.randint(-50, 200) for _ in range(rng.randint(2, 4))]
            if xs not in self.inputs:
                self.inputs.append(xs)

    def answer(self, xs: list[int]) -> int:
        return (self.a * sum(xs) + self.b * max(xs)) % self.m

    def tests(self) -> list[dict]:
        return [{"input": "".join(f"{v}\n" for v in xs), "output": f"{self.answer(xs)}\n"}
                for xs in self.inputs]

    def candidate(self, kind: str, rng: random.Random) -> str:
        ans = f"ans = ({self.a} * sum(xs) + {self.b} * max(xs)) % {self.m}\n"
        if kind == "correct":
            return rng.choice((
                READ + ans + "print(ans)\n",
                f"def solve(xs):\n    total = 0\n    for v in xs:\n        total += {self.a} * v\n"
                f"    return (total + {self.b} * max(xs)) % {self.m}\n\n" + READ + "print(solve(xs))\n",
                READ + f"best = xs[0]\nfor v in xs[1:]:\n    if v > best:\n        best = v\n"
                f"print(({self.a} * sum(xs) + {self.b} * best) % {self.m})\n",
            ))
        if kind == "heavy":
            loops = HEAVY_LOOPS[len(self.inputs) % len(HEAVY_LOOPS)]  # fixed by the shape
            return (READ + f"acc = 0\nfor i in range({loops}):\n    acc += i & 7\n"
                    + ans + "print(ans + acc * 0)\n")
        if kind in ("wrong_first", "wrong_last"):
            xs = self.inputs[0] if kind == "wrong_first" else self.inputs[-1]
            return READ + ans + f"if xs == {xs}:\n    ans += 1\nprint(ans)\n"
        if kind == "exception":
            return READ + "raise ValueError('unsupported input: %d' % len(xs))\n"
        if kind == "output_cap":
            return READ + f"sys.stdout.write('x' * {OUTPUT_CAP * 4})\n"
        if kind == "memory":
            return READ + "block = bytearray(1 << 30)\nprint(len(block))\n"
        if kind == "timeout":
            return READ + "while True:\n    pass\n"
        raise ValueError(kind)


def make_sandbox(seed: int, size: dict, work: Path) -> dict:
    rng = random.Random(seed)
    filter_rows, planted = [], {}
    # the first shapes, always ending with the one without tests
    shapes = FILTER_SHAPES[: size["sandbox_filter_problems"] - 1] + FILTER_SHAPES[-1:]
    for i, (tests, kinds) in enumerate(shapes):
        pid = f"f{i:02d}"
        problem = _Problem(rng, tests)
        filter_rows.append({"id": pid, "description": "", "difficulty": None,
                            "solutions": [problem.candidate(k, rng) for k in kinds],
                            "tests": problem.tests()})
        planted[pid] = {"kinds": list(kinds), "tests": tests}
    passk_rows, generations, passk_planted = [], [], {}
    failing = 0
    for i, (tests, correct) in enumerate(PASSK_SHAPES[: size["sandbox_passk_problems"]]):
        pid = f"k{i:02d}"
        problem = _Problem(rng, tests)
        kinds = ["correct"] * correct
        if correct and i == 0:
            kinds[-1] = "heavy"
        while len(kinds) < PASSK_N:
            kinds.append(FAILING_KINDS[failing % len(FAILING_KINDS)])
            failing += 1
        if i == 1:
            kinds[-1] = "timeout"
        passk_rows.append({"id": pid, "description": "", "difficulty": None,
                           "solutions": [], "tests": problem.tests()})
        generations.append({"id": pid, "generations": [problem.candidate(k, rng) for k in kinds]})
        passk_planted[pid] = {"kinds": kinds, "tests": tests}
    # candidates that write only whitespace to stderr and exit non-zero,
    # judged one by one outside the CLI batch
    probes = [{"code": WHITESPACE_STDERR, "test": row["tests"][0]} for row in filter_rows[:2]]

    paths = {name: str(work / f"{name}.jsonl")
             for name in ("filter_corpus", "passk_corpus", "generations", "kept")}
    _write_jsonl(Path(paths["filter_corpus"]), filter_rows)
    _write_jsonl(Path(paths["passk_corpus"]), passk_rows)
    _write_jsonl(Path(paths["generations"]), generations)
    all_kinds = [k for p in (*planted.values(), *passk_planted.values()) for k in p["kinds"]]
    return {
        "workload": "sandbox",
        "seed": seed,
        "items": len(all_kinds),
        **paths,
        "report": str(work / "filter_report.json"),
        "limits": {"wall_time": WALL_TIME, "memory": MEMORY, "output_cap": OUTPUT_CAP},
        "ks": list(PASSK_KS),
        "n": PASSK_N,
        "filter_planted": planted,
        "passk_planted": passk_planted,
        "probes": probes,
        "properties": {
            "candidates": len(all_kinds),
            "planted_kinds": _histogram(all_kinds),
            "tests_per_problem": _histogram(
                p["tests"] for p in (*planted.values(), *passk_planted.values())),
            "whitespace_stderr_probes": len(probes),
        },
    }


BUILDERS = {"study": make_study, "sandbox": make_sandbox}


def build(workload: str, seed: int, size: str, work: Path) -> dict:
    return BUILDERS[workload](seed, SIZES[size], work)
