"""cuSPARSE-like baseline: robust two-phase hashing in global memory.

cuSPARSE's generic SpGEMM (csrgemm) is hash-based (§2 of the paper) with a
fixed warp-per-row mapping and accumulation structures in *global* memory —
which makes it extremely robust (it completes every matrix in the paper's
evaluation, like spECK) and memory-lean (1.01× spECK's peak), but roughly
an order of magnitude slower on average (t/t_b ≈ 12×): every probe is an
uncoalesced global-memory transaction rather than a scratchpad access.
"""

from __future__ import annotations

import numpy as np

from ..core.context import MultiplyContext
from ..faults import SpGEMMError
from ..gpu import BlockWork, MemoryLedger, block_cycles, kernel_time_s
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, row_blocks, stream_time_s

__all__ = ["CusparseLike"]

_THREADS = 256
_ROWS_PER_BLOCK = 8  # one warp per row


@register
class CusparseLike(SpGEMMAlgorithm):
    """Warp-per-row global-memory hashing, symbolic + numeric."""

    name = "cuSPARSE"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        device = self.device
        scope = self.fault_scope(ctx)
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        prods = ctx.row_prods.astype(np.float64)
        out = ctx.c_row_nnz.astype(np.float64)
        nnz_a = ctx.analysis.a_row_nnz.astype(np.float64)
        stage: dict[str, float] = {}
        try:
            # Hash tables are carved out of the (already counted) output
            # allocation plus a small per-row bookkeeping array — cuSPARSE's
            # peak sits within a percent of spECK's (Table 3).
            ledger.alloc(int(0.1 * ctx.c_nnz * 12) + 8 * ctx.a.rows, "tables")

            blk_prods = row_blocks(prods, _ROWS_PER_BLOCK)
            blk_out = row_blocks(out, _ROWS_PER_BLOCK)
            blk_nnz_a = row_blocks(nnz_a, _ROWS_PER_BLOCK)
            avg_len = blk_prods / np.maximum(blk_nnz_a, 1.0)
            # Warp-per-row: 32 lanes regardless of row length.
            util = np.clip(avg_len / 32.0, 1.0 / 8.0, 1.0)

            for phase in ("symbolic", "numeric"):
                scope.enter_stage(phase)
                scope.on_launch(phase)
                work = BlockWork(
                    mem_bytes=blk_nnz_a * 12.0 + blk_prods * 12.0,
                    coalescing=1.0,
                    # Every insert probes global memory.
                    global_atomics=blk_prods * 0.8,
                    iops=blk_prods * 6.0,
                    flops=blk_prods * 2.0 if phase == "numeric" else 0.0,
                    utilization=util,
                )
                cycles = block_cycles(device, _THREADS, 0, work)
                stage[phase] = kernel_time_s(cycles, _THREADS, 0, device)

            ledger.alloc(ctx.output_bytes, "C")
            ledger.alloc(int(0.25 * ctx.c_nnz) * 8, "sort key buffers (batched)")
            # Gather from the tables and radix sort rows into CSR order.
            stage["gather"] = stream_time_s(ctx.c_nnz * 24.0, device, launches=2)
            stage["sort"] = stream_time_s(
                4 * 2.0 * ctx.c_nnz * 12.0, device, launches=4
            )
        except SpGEMMError as err:
            return SpGEMMResult.failed(self.name, err)

        time_s = device.call_overhead_s + 2 * device.malloc_s + sum(stage.values())
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage,
        )
