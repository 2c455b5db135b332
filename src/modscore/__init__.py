"""Modularity scoring, de-modularization, and evaluation harness."""

__version__ = "0.1.0"

from .cfg import ControlFlowGraph, build_cfg, graph_counts
from .complexity import (
    ComplexityReport,
    cc_decision_points,
    cc_from_cfg,
    unit_complexity,
)
from .corpus import FilterReport, Problem, TestCase, filter_corpus, load_corpus
from .inliner import singularize
from .modularity import (
    Categorization,
    ModularityReport,
    categorize_solutions,
    ideal_modules,
    modularity_score,
    score_unit,
)
from .parsing import FunctionDef, SourceUnit, parse
from .passk import EvalResult, aggregate, pass_at_k
from .prompts import assemble_prompt
from .sandbox import RunLimits, RunResult, count_correct, run_solution, verify_equivalence
from .stats import (
    LogProbRecord,
    ScoredSample,
    binned_sample,
    correlations,
    pearson,
    perplexity,
    ppl_compare,
    spearman,
)

__all__ = [
    "__version__",
    "ControlFlowGraph", "build_cfg", "graph_counts",
    "ComplexityReport", "cc_decision_points", "cc_from_cfg", "unit_complexity",
    "FilterReport", "Problem", "TestCase", "filter_corpus", "load_corpus",
    "singularize",
    "Categorization", "ModularityReport",
    "categorize_solutions", "ideal_modules", "modularity_score", "score_unit",
    "FunctionDef", "SourceUnit", "parse",
    "EvalResult", "aggregate", "pass_at_k",
    "assemble_prompt",
    "RunLimits", "RunResult", "count_correct", "run_solution", "verify_equivalence",
    "LogProbRecord", "ScoredSample", "binned_sample", "correlations", "pearson",
    "perplexity", "ppl_compare", "spearman",
]
