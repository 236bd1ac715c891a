"""Shared per-multiplication context.

A single SpGEMM evaluation runs many algorithms (spECK, six baselines, the
CPU reference) over the same ``(A, B)`` pair.  All of them need the same
exact structural facts — per-row intermediate-product counts and exact
output row sizes — and some callers also read the exact product matrix.
The context computes each of these once, lazily, and caches it; algorithm
cost models then read from it instead of recomputing.  Row sizes come from
a symbolic-only pass (:func:`~repro.kernels.reference.symbolic_row_nnz`),
so costing a multiply never builds C's values; the model-mode results
hand ``c`` over unevaluated and C is built only when someone reads it.

This mirrors the real-world setup: on the device every algorithm computes
these quantities itself (and *pays* for doing so in its cost model); the
context only removes redundant host-side work from the simulation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..kernels.reference import esc_multiply, symbolic_row_nnz
from ..matrices.csr import CSR
from .analysis import RowAnalysis, analyze

__all__ = ["MultiplyContext", "device_csr_bytes"]


def device_csr_bytes(rows: int, nnz: int) -> int:
    """Device-side bytes of a CSR matrix: 32-bit offsets and column indices,
    64-bit (double) values — the layout all compared methods share."""
    return 4 * (rows + 1) + 12 * nnz


class MultiplyContext:
    """Lazily cached exact facts about one ``C = A · B`` multiplication."""

    def __init__(self, a: CSR, b: CSR) -> None:
        if a.cols != b.rows:
            raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
        self.a = a
        self.b = b
        #: Optional :class:`~repro.faults.FaultPlan` shared by every
        #: algorithm run on this multiplication (set by the harness).
        self.faults = None
        #: Corpus case name, used by fault rules' ``matrix`` filter.
        self.case_name = ""
        self._analysis: Optional[RowAnalysis] = None
        self._c_row_nnz: Optional[np.ndarray] = None
        self._c_nnz: Optional[int] = None
        self._c: Optional[CSR] = None
        #: Device bytes of A and B (resident throughout the call).
        self.input_bytes = device_csr_bytes(a.rows, a.nnz) + device_csr_bytes(
            b.rows, b.nnz
        )

    # -- plan reuse (repro.serve) ----------------------------------------
    def seed_structure(
        self,
        analysis: RowAnalysis,
        c_row_nnz: np.ndarray,
        c_nnz: Optional[int] = None,
    ) -> None:
        """Pre-populate the structural caches from a reused plan.

        A :class:`~repro.serve.plan_cache.CachedPlan` stores exactly the
        structure-derived facts this context would otherwise recompute
        (the Algorithm-1 row analysis and the symbolic pass's output row
        sizes); seeding them lets a cache-hit multiply skip both the host
        work and the modelled analysis/symbolic charges.  Values of A and
        B play no part in either array, so seeding is safe across
        value-only operand changes.

        ``c_nnz`` is the sum of ``c_row_nnz`` when the caller already
        holds it (a plan hit does); otherwise a cached sum survives only
        while the same array is seeded again.
        """
        if c_nnz is not None:
            self._c_nnz = c_nnz
        elif c_row_nnz is not self._c_row_nnz:
            self._c_nnz = None
        self._analysis = analysis
        self._c_row_nnz = c_row_nnz

    # -- structural facts ------------------------------------------------
    @property
    def analysis(self) -> RowAnalysis:
        """The Algorithm-1 row analysis (products, max row, column extent)."""
        if self._analysis is None:
            self._analysis = analyze(self.a, self.b)
        return self._analysis

    @property
    def row_prods(self) -> np.ndarray:
        """Intermediate products per row of A."""
        return self.analysis.products

    @property
    def total_products(self) -> int:
        return self.analysis.prod_total

    @property
    def flops(self) -> int:
        """FLOPs as counted in the paper: two per intermediate product."""
        return 2 * self.total_products

    @property
    def c_row_nnz(self) -> np.ndarray:
        """Exact non-zeros per row of C (what a symbolic pass computes)."""
        if self._c_row_nnz is None:
            # A product already built gives the row sizes for free;
            # otherwise the symbolic pass sizes rows without values.
            if self._c is not None:
                self._c_row_nnz = self._c.row_nnz()
            else:
                self._c_row_nnz = symbolic_row_nnz(self.a, self.b)
        return self._c_row_nnz

    @property
    def c_nnz(self) -> int:
        """Non-zeros of C, summed once per row-size array."""
        if self._c_nnz is None:
            self._c_nnz = int(self.c_row_nnz.sum())
        return self._c_nnz

    @property
    def c(self) -> CSR:
        """The exact product matrix (computed once via the ESC engine)."""
        if self._c is None:
            self._c = esc_multiply(self.a, self.b)
        return self._c

    @property
    def compaction(self) -> float:
        """Average products per output non-zero (the paper's compaction
        factor; SuiteSparse-wide average ≈ 7)."""
        return self.total_products / max(1, self.c_nnz)

    # -- memory facts ------------------------------------------------------
    @property
    def output_bytes(self) -> int:
        """Device bytes of C (every method allocates this)."""
        return device_csr_bytes(self.a.rows, self.c_nnz)
