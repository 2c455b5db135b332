"""Acceptance suite: one criterion per test, one PASS/FAIL line each.

Lines are written to the real stdout so they stay visible under pytest's
capture. Tolerances are pinned here, not configurable.
"""

import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import pytest

from modscore.cfg import build_cfg
from modscore.complexity import cc_decision_points, cc_from_cfg
from modscore.corpus import load_corpus, filter_corpus
from modscore.inliner import singularize
from modscore.modularity import modularity_score, score_unit
from modscore.parsing import parse
from modscore.passk import pass_at_k
from modscore.sandbox import RunLimits, compare_runs
from modscore.stats import LogProbRecord, pearson, perplexity, ppl_compare, spearman

from conftest import FIXTURES
from gen_programs import structured_function

LIMITS = RunLimits(wall_time=5.0, memory=512 * 1024 * 1024, output_cap=1024 * 1024)


@pytest.fixture
def criterion(capfd):
    """One visible PASS/FAIL line per criterion, even under capture."""

    @contextmanager
    def run(number: int, title: str):
        try:
            yield
        except BaseException:
            with capfd.disabled():
                print(f"ACCEPTANCE {number} ({title}): FAIL", flush=True)
            raise
        with capfd.disabled():
            print(f"ACCEPTANCE {number} ({title}): PASS", flush=True)

    return run


def test_1_mos_formula_conformance(criterion):
    with criterion(1, "score formula conformance, n and m* in [0,50]"):
        start = time.monotonic()
        mismatches = 0
        for n in range(51):
            for m_star in range(51):
                got = modularity_score(n, m_star)
                if m_star > 0:
                    want = min(1.0, n / m_star)
                elif n == 0:
                    want = 0.0
                else:
                    want = 1.0
                if got != want:
                    mismatches += 1
        elapsed = time.monotonic() - start
        assert mismatches == 0
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_2_cc_oracle_equivalence(criterion):
    with criterion(2, "graph CC equals decision-point CC on 1000 programs"):
        start = time.monotonic()
        mismatches = []
        for seed in range(1000):
            fn = parse(structured_function(seed)).functions[0]
            graph_cc = cc_from_cfg(build_cfg(fn))
            oracle_cc = cc_decision_points(fn)
            if graph_cc != oracle_cc:
                mismatches.append(seed)
        elapsed = time.monotonic() - start
        assert mismatches == [], f"seeds {mismatches[:5]}"
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_3_figure_style_semantics(criterion):
    with criterion(3, "bundled modular pair scores 1, singular pair scores 0"):
        expected = {"mc": 1.0, "sc": 0.0, "tmc": 1.0, "tsc": 0.0}
        for name, want in expected.items():
            text = (FIXTURES / "figure_style" / f"{name}.py").read_text()
            report = score_unit(parse(text), tau=5)
            assert report.mos == want, f"{name}: {report.mos} != {want}"


def test_4_singularizer_corpus(criterion):
    with criterion(4, "fixture corpus inlines to zero functions, equivalent"):
        problems = load_corpus(FIXTURES / "singularize_corpus.jsonl")
        assert len(problems) >= 20

        pairs = []
        for problem in problems:
            transformed = singularize(parse(problem.solutions[0], unit_id=problem.id))
            assert transformed.function_count == 0, problem.id
            pairs.append((problem.solutions[0], transformed.text, problem.tests))
        found = compare_runs(pairs, LIMITS, jobs=2)
        diverged = [problem.id for problem, first in zip(problems, found) if first is not None]
        assert diverged == [], f"verdicts diverged: {diverged}"


def test_5_pass_at_k_exactness(criterion):
    with criterion(5, "stable product form vs binomial, n <= 20, 1e-12"):
        start = time.monotonic()
        for n in range(1, 21):
            for c in range(n + 1):
                for k in range(1, n + 1):
                    stable = pass_at_k(n, c, k)
                    if n - c < k:
                        exact = 1.0
                    else:
                        exact = 1.0 - math.comb(n - c, k) / math.comb(n, k)
                    assert abs(stable - exact) <= 1e-12, (n, c, k)
        correct = set(range(3))
        subsets = list(itertools.combinations(range(10), 5))
        by_enumeration = sum(
            1 for s in subsets if correct.intersection(s)
        ) / len(subsets)
        assert abs(pass_at_k(10, 3, 5) - by_enumeration) <= 1e-12
        assert abs(by_enumeration - 0.916667) < 5e-7
        elapsed = time.monotonic() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_6_corpus_filtering(criterion):
    with criterion(6, "planted filter fixture: exact retention and reasons"):
        problems = load_corpus(FIXTURES / "filter_corpus.jsonl")
        expected = json.loads((FIXTURES / "filter_expected.json").read_text())
        kept, report = filter_corpus(problems, LIMITS, jobs=8)
        assert report.problems_before == expected["problems_before"]
        assert report.problems_after == expected["problems_after"]
        kept_by_id = {p.id: p.solutions for p in kept}
        originals = {p.id: p.solutions for p in problems}
        for pid, indices in expected["retained_solutions"].items():
            assert kept_by_id[pid] == [originals[pid][i] for i in indices], pid
        reasons = {d["id"]: d["reason"] for d in report.dropped}
        assert reasons["f09"] == "insufficient or absent test cases"


def test_7_correlation_suite(criterion):
    with criterion(7, "correlations: exact fixtures, ties, seeded p-values"):
        xs = [1.0, 2.0, 3.0, 4.0, 5.0]
        r_pos, _ = pearson(xs, [3 * x + 1 for x in xs])
        r_neg, _ = pearson(xs, [-2 * x + 9 for x in xs])
        assert abs(r_pos - 1.0) <= 1e-12
        assert abs(r_neg + 1.0) <= 1e-12
        rho_mono, _ = spearman(xs, [x ** 3 for x in xs])
        assert abs(rho_mono - 1.0) <= 1e-12
        # tied ranks against the exact-arithmetic oracle: signed r^2 = 9/10
        rho_tie, _ = spearman([1, 2, 2, 3], [1, 3, 2, 4])
        assert abs(rho_tie - math.sqrt(0.9)) <= 1e-12
        ys = [2.0, 1.0, 4.0, 3.0, 8.0]
        first = pearson(xs, ys, seed=11)
        second = pearson(xs, ys, seed=11)
        assert first == second  # bit-for-bit reproducible


def test_8_perplexity(criterion):
    with criterion(8, "perplexity closed forms and 20-record fixture"):
        uniform = LogProbRecord("u", "MC", tuple([-math.log(2)] * 9))
        assert abs(perplexity(uniform) - 2.0) <= 1e-12
        probs = [0.5, 0.25, 0.125]
        three = LogProbRecord("t", "SC", tuple(math.log(p) for p in probs))
        assert abs(perplexity(three) - 4.0) <= 1e-12
        records = []
        for line in (FIXTURES / "logprobs.jsonl").read_text().splitlines():
            row = json.loads(line)
            records.append(LogProbRecord(
                row["id"], row["category"], tuple(row["token_logprobs"])
            ))
        assert len(records) == 20
        summaries = ppl_compare(records)
        by_cat = {}
        for record in records:
            value = math.exp(-sum(record.token_logprobs) / len(record.token_logprobs))
            by_cat.setdefault(record.category, []).append(value)
        for category, values in by_cat.items():
            mean = sum(values) / len(values)
            std = math.sqrt(sum((v - mean) ** 2 for v in values) / len(values))
            assert abs(summaries[category].mean - mean) <= 1e-12
            assert abs(summaries[category].std - std) <= 1e-12


def test_9_end_to_end_pipeline(criterion, tmp_path):
    with criterion(9, "filter -> classify -> singularize -> passk on mini corpus"):
        start = time.monotonic()

        def cli(*argv):
            proc = subprocess.run(
                [sys.executable, "-m", "modscore.cli", *argv],
                capture_output=True, text=True, timeout=240,
            )
            assert proc.returncode == 0, proc.stderr
            return proc.stdout

        filtered = tmp_path / "filtered.jsonl"
        report = tmp_path / "filter_report.json"
        cli("filter", str(FIXTURES / "mini_corpus.jsonl"),
            "--out", str(filtered), "--report", str(report), "--jobs", "8")
        assert json.loads(report.read_text())["filter"]["problems_after"] == 10

        classify_out = json.loads(cli("classify", str(filtered), "--tau", "5"))
        expected = json.loads((FIXTURES / "mini_classification.json").read_text())
        got = {row["problem_id"]: row for row in classify_out["problems"]}
        for pid, want in expected["problems"].items():
            assert got[pid]["mc_solution_index"] == want["mc_solution_index"], pid
            assert got[pid]["sc_solution_index"] == want["sc_solution_index"], pid
            assert got[pid]["mos_values"] == want["mos_values"], pid

        # de-modularize every modular pick and verify against its tests
        problems = {p.id: p for p in load_corpus(filtered)}
        for pid, row in got.items():
            mc_index = row["mc_solution_index"]
            if mc_index is None:
                continue
            problem = problems[pid]
            source = tmp_path / f"{pid}_mc.py"
            source.write_text(problem.solutions[mc_index])
            tests_path = tmp_path / f"{pid}_tests.jsonl"
            tests_path.write_text("".join(
                json.dumps({
                    "input": t.input.decode(),
                    "output": t.expected_output.decode(),
                }) + "\n"
                for t in problem.tests
            ))
            singular = cli("singularize", str(source), "--verify", str(tests_path))
            assert "def " not in singular, pid

        passk_out = json.loads(cli(
            "passk", str(filtered),
            "--gens", str(FIXTURES / "mini_generations.jsonl"),
            "--k", "1,2", "--n", "4", "--jobs", "8",
        ))
        planted = json.loads((FIXTURES / "mini_passk_expected.json").read_text())
        by_id = {row["problem_id"]: row for row in passk_out["problems"]}
        for pid, c in planted["planted_c"].items():
            assert by_id[pid]["c"] == c, pid
        for k, want in planted["aggregate"].items():
            assert passk_out["aggregate"][k] == pytest.approx(want, abs=1e-12)

        elapsed = time.monotonic() - start
        assert elapsed < 300.0, f"pipeline took {elapsed:.0f}s"
