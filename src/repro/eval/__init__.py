"""Evaluation: corpus, harness, metrics, tables, figures, text reports."""

from .compare import ComparisonReport, compare_results
from .export import result_from_json, result_to_json, runs_to_csv
from .figures import (
    figure6_gflops_trend,
    figure7_slowdown,
    figure9_common_gflops,
    figure10_common_memory,
    figure11_stage_shares,
    figure12_accumulator_ablation,
    figure13_local_lb_ablation,
    figure14_global_lb_ablation,
    figure15_per_matrix_gflops,
)
from .harness import (
    EvalResult,
    MatrixRecord,
    RunRecord,
    effective_workers,
    evaluate_case,
    run_suite,
)
from .metrics import PRODUCT_CUTOFF, MethodStats, best_times, compute_table3
from .suite import MatrixCase, common_matrices, full_corpus, small_corpus
from .tables import render_table3, render_table4, table4

__all__ = [
    "EvalResult",
    "runs_to_csv",
    "result_to_json",
    "result_from_json",
    "compare_results",
    "ComparisonReport",
    "MatrixRecord",
    "RunRecord",
    "run_suite",
    "evaluate_case",
    "effective_workers",
    "MatrixCase",
    "full_corpus",
    "small_corpus",
    "common_matrices",
    "MethodStats",
    "compute_table3",
    "best_times",
    "PRODUCT_CUTOFF",
    "table4",
    "render_table3",
    "render_table4",
    "figure6_gflops_trend",
    "figure7_slowdown",
    "figure9_common_gflops",
    "figure10_common_memory",
    "figure11_stage_shares",
    "figure12_accumulator_ablation",
    "figure13_local_lb_ablation",
    "figure14_global_lb_ablation",
    "figure15_per_matrix_gflops",
]
