"""bhSPARSE-like baseline: hybrid binned ESC / merging.

bhSPARSE (Liu & Vinter, IPDPS'14) bins the rows of C by their upper-bound
intermediate-product count and dispatches each bin to a different method:
tiny rows to a heap/ESC in scratchpad, medium rows to merge networks, and
the largest bin to an iterative global-memory merge.  Its documented
profile (Table 1: random memory access, binning-based balancing, medium
workload; Table 3: never best, ``t/t_b ≈ 12.9``, 4.36× spECK's memory,
75 failures):

* per-row atomic binning (like nsparse) plus an extra upper-bound pass;
* merge networks with scattered access patterns — the "rand" memory
  access in Table 1 is charged as partially-coalesced traffic;
* the global-memory bin re-processes its rows repeatedly, which is where
  the large failures and slowdowns come from.
"""

from __future__ import annotations

import numpy as np

from ..core.context import MultiplyContext
from ..faults import FaultScope, SpGEMMError
from ..gpu import BlockWork, MemoryLedger, block_cycles, kernel_time_s
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, run_with_retries, stream_time_s

__all__ = ["BhSparse"]

#: Upper bin boundaries on intermediate products (the 37-bin scheme of the
#: original collapsed to its structural tiers).
_SMALL_LIMIT = 256
_MEDIUM_LIMIT = 4096
_THREADS = 256


@register
class BhSparse(SpGEMMAlgorithm):
    """Hybrid heap/merge SpGEMM with product-count binning."""

    name = "bhSPARSE"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        # bhSPARSE re-runs its bin re-allocation loop once on failure; the
        # wasted attempt plus re-allocation is charged to the model, plus
        # a capped exponential backoff with seeded jitter before the
        # re-allocation (see base.retry_backoff_s).
        scope = self.fault_scope(ctx)
        return run_with_retries(
            self, scope, lambda attempt: self._attempt(ctx, scope)
        )

    def _attempt(self, ctx: MultiplyContext, scope: FaultScope) -> SpGEMMResult:
        device = self.device
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        prods = ctx.row_prods.astype(np.float64)
        out = ctx.c_row_nnz.astype(np.float64)
        rows = ctx.a.rows
        stage: dict[str, float] = {}
        try:
            # Upper-bound pass + atomic binning.
            scope.enter_stage("analysis")
            scope.on_launch("analysis")
            stage["analysis"] = stream_time_s(ctx.a.nnz * 12.0 + rows * 12.0, device, launches=2)
            ledger.alloc(rows * 12, "bins")

            small = prods <= _SMALL_LIMIT
            medium = (~small) & (prods <= _MEDIUM_LIMIT)
            large = prods > _MEDIUM_LIMIT

            # Temporary storage proportional to the bin upper bounds —
            # equally sized slots inside each bin waste space.
            tmp = (
                float(np.minimum(prods[small], _SMALL_LIMIT).sum())
                + float(small.sum()) * 32.0
                + float(medium.sum()) * _MEDIUM_LIMIT * 0.12
                + 0.8 * float(prods[large].sum())
            )
            ledger.alloc(int(tmp * 12), "bin buffers")

            t = 0.0
            for sel, label, waste in (
                (small, "heap bin", 1.3),
                (medium, "merge bin", 1.8),
            ):
                if not sel.any():
                    stage[label] = 0.0
                    continue
                scope.enter_stage(label)
                scope.on_launch(label)
                rows_per_block = 8
                n_blk = int(np.ceil(sel.sum() / rows_per_block))
                idx = np.flatnonzero(sel)
                pad = n_blk * rows_per_block
                bp = np.zeros(pad)
                bp[: idx.size] = prods[idx]
                blk = bp.reshape(n_blk, rows_per_block).sum(axis=1)
                work = BlockWork(
                    mem_bytes=blk * 12.0 * waste,
                    coalescing=0.30,  # "rand" access (Table 1)
                    iops=blk * 6.0,
                    flops=blk * 2.0,
                    scratch_ops=blk * np.log2(max(2.0, _SMALL_LIMIT)) * waste,
                    utilization=0.35,
                )
                cycles = block_cycles(device, _THREADS, 16384, work)
                stage[label] = kernel_time_s(cycles, _THREADS, 16384, device)
                t += stage[label]

            # Large rows: iterative global merge, several passes over the
            # row's products with scattered access.
            if large.any():
                scope.enter_stage("global bin")
                scope.on_launch("global bin")
                vol = float(prods[large].sum())
                passes = np.ceil(
                    np.log2(np.maximum(prods[large] / _MEDIUM_LIMIT, 2.0))
                )
                moved = float((prods[large] * passes).sum())
                stage["global bin"] = stream_time_s(moved * 24.0 / 0.45, device, launches=3)
            else:
                stage["global bin"] = 0.0

            ledger.alloc(ctx.output_bytes, "C")
            stage["write"] = stream_time_s(ctx.c_nnz * 12.0, device)
        except SpGEMMError as err:
            err.partial_time_s = device.call_overhead_s + sum(stage.values())
            raise

        # bhSPARSE dispatches one kernel per populated size bin (37 bins in
        # the original) for both the bound pass and the compute pass, with
        # host synchronisation in between — a fixed launch storm that
        # dominates small inputs.
        stage["bin dispatch"] = 36 * device.kernel_launch_s
        time_s = device.call_overhead_s + 4 * device.malloc_s + sum(stage.values())
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage,
        )
