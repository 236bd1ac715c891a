"""RMerge-like baseline: SpGEMM by iterative row merging.

RMerge (Gremse et al., SISC'15) decomposes A into factors whose rows
reference at most a few rows of B and multiplies by repeatedly merging
sorted lists.  A row of A with k non-zeros needs ⌈log₂k⌉ merge
generations; each generation streams the full (still uncompacted)
intermediate lists through global memory with a fixed warp-per-row
mapping.

Profile reproduced (§2 "Merging" and Table 1):

* excellent on *very thin* matrices (k small → one or two generations,
  perfectly coalesced streaming);
* poor on high-compaction or skewed matrices — every generation re-moves
  all surviving elements, equally sized temporary arrays waste space on
  varying densities, and the fixed mapping underutilises threads;
* high memory — two full intermediate buffers.
"""

from __future__ import annotations

import numpy as np

from ..core.context import MultiplyContext
from ..faults import SpGEMMError
from ..gpu import MemoryLedger
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, stream_time_s

__all__ = ["RMerge"]

#: Rows of B merged per generation per output row (pairwise merging).
_MERGE_WAY = 2


@register
class RMerge(SpGEMMAlgorithm):
    """Iterative pairwise row merging."""

    name = "RMerge"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        device = self.device
        scope = self.fault_scope(ctx)
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        analysis = ctx.analysis
        nnz_a = analysis.a_row_nnz.astype(np.float64)
        prods = analysis.products.astype(np.float64)
        stage: dict[str, float] = {}
        try:
            # Equally sized intermediate arrays: each generation's buffer is
            # dimensioned by the *maximum* surviving row, wasting space when
            # densities vary (§2).
            rows = max(1, ctx.a.rows)
            max_prod = float(analysis.prod_max)
            buf = int(min(max_prod * rows, 0.33 * ctx.total_products + 1024) * 12)
            ledger.alloc(buf, "merge buffer A")
            ledger.alloc(buf, "merge buffer B")

            # Decomposition pass.
            scope.enter_stage("decompose")
            scope.on_launch("decompose")
            stage["decompose"] = stream_time_s(ctx.a.nnz * 16.0, device, launches=2)

            generations = int(
                np.ceil(np.log2(np.maximum(nnz_a.max() if nnz_a.size else 1, _MERGE_WAY)))
            )
            # Generation g moves the rows still having > 2^g source lists;
            # the moved volume is bounded by the products of those rows.
            merge_time = 0.0
            for gen in range(max(1, generations)):
                active = nnz_a > (_MERGE_WAY**gen)
                if not active.any() and gen > 0:
                    break
                volume = float(prods[active].sum()) if active.any() else float(prods.sum())
                # Streaming merge, but the warp-per-row mapping leaves lanes
                # idle on short rows: charge a 1.6x inefficiency factor.
                merge_time += stream_time_s(volume * 12.0 * 2.0 * 2.2, device)
            stage["merge"] = merge_time

            ledger.alloc(ctx.output_bytes, "C")
            stage["write"] = stream_time_s(ctx.c_nnz * 12.0, device)
        except SpGEMMError as err:
            return SpGEMMResult.failed(self.name, err)

        time_s = device.call_overhead_s + 3 * device.malloc_s + sum(stage.values())
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage,
        )
