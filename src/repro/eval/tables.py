"""Table builders: Table 3 (overall statistics) and Table 4 (common-matrix
statistics), plus Table 2 (auto-tuned thresholds, re-derived by
:mod:`repro.core.tuning`)."""

from __future__ import annotations

from typing import Dict, List

from .harness import EvalResult, MatrixRecord
from .metrics import MethodStats

__all__ = ["table4", "render_table3", "render_table4"]


def table4(result: EvalResult) -> List[MatrixRecord]:
    """Structural statistics of the common matrices (Table 4's columns:
    rows, cols, NNZ(A), products, NNZ(C))."""
    return list(result.matrices.values())


def _fmt(x: float, nd: int = 2) -> str:
    if x != x:  # NaN
        return "-"
    return f"{x:.{nd}f}"


def render_table3(stats: Dict[str, MethodStats], order: List[str]) -> str:
    """Render Table 3 as fixed-width text (paper row order)."""
    cols = [m for m in order if m in stats]
    lines = []
    header = f"{'':12s}" + "".join(f"{m:>11s}" for m in cols)
    lines.append(header)
    rows = [
        ("#best", lambda s: str(s.n_best)),
        ("#best*", lambda s: str(s.n_best_star)),
        ("#inv.", lambda s: str(s.n_invalid)),
        ("t_avg (ms)", lambda s: _fmt(s.t_avg_ms)),
        ("m/m_b", lambda s: _fmt(s.mem_rel)),
        ("m/m_b *", lambda s: _fmt(s.mem_rel_star)),
        ("t/t_b", lambda s: _fmt(s.t_rel)),
        ("t/t_b *", lambda s: _fmt(s.t_rel_star)),
        ("#5x", lambda s: str(s.n_5x)),
        ("#5x *", lambda s: str(s.n_5x_star)),
    ]
    for label, fn in rows:
        lines.append(f"{label:12s}" + "".join(f"{fn(stats[m]):>11s}" for m in cols))
    return "\n".join(lines)


def render_table4(records: List[MatrixRecord]) -> str:
    """Render Table 4: rows/cols in thousands, NNZ/products in millions."""
    lines = [
        f"{'Matrix':14s}{'Rows(k)':>9s}{'Cols(k)':>9s}{'NNZ A(M)':>10s}"
        f"{'Prod.(M)':>10s}{'NNZ C(M)':>10s}{'compact':>9s}"
    ]
    for r in records:
        lines.append(
            f"{r.name:14s}{r.rows / 1e3:>9.1f}{r.cols / 1e3:>9.1f}"
            f"{r.nnz_a / 1e6:>10.3f}{r.products / 1e6:>10.3f}"
            f"{r.nnz_c / 1e6:>10.3f}{r.compaction:>9.2f}"
        )
    return "\n".join(lines)
