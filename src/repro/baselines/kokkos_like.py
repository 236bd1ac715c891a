"""KokkosKernels-like baseline: portable two-level hashing, unsorted output.

KokkosKernels' SpGEMM (Deveci et al., IPDPSW'17) is performance-portable
rather than CUDA-tuned.  The paper's measurements show three traits this
model reproduces:

* **Unsorted output.**  It skips the CSR sorting step entirely (violating
  the format contract), which would otherwise cost up to 40% on large
  matrices — the harness flags the result ``sorted_output=False``.
* **Fragility.**  It fails on 815 of 2672 matrices, by far the most; the
  failures concentrate where a row's pool chunk or the global fallback
  table exceeds its fixed budgets.  Modelled as a per-row limit on
  intermediate products plus the memory-pool OOM.
* **Slow on GPUs.**  Portability costs: generic team sizes, two-level
  (L1 scratch / L2 global) probing with most traffic hitting the global
  level, ``t/t_b ≈ 27×`` on >15k-product matrices.
"""

from __future__ import annotations

import numpy as np

from ..core.context import MultiplyContext
from ..faults import AccumulatorOverflow, SpGEMMError
from ..gpu import BlockWork, MemoryLedger, block_cycles, kernel_time_s
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, row_blocks, stream_time_s

__all__ = ["KokkosLike"]

_THREADS = 256
#: Per-row intermediate-product budget of the two-level hash; rows beyond
#: it abort the run (the dominant cause of the paper's 815 failures).
_ROW_PRODUCT_LIMIT = 1 << 13


@register
class KokkosLike(SpGEMMAlgorithm):
    """Portable two-level hash SpGEMM without output sorting."""

    name = "Kokkos"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        device = self.device
        scope = self.fault_scope(ctx)
        analysis = ctx.analysis
        if analysis.prod_max > _ROW_PRODUCT_LIMIT:
            return SpGEMMResult.failed(
                self.name,
                AccumulatorOverflow(
                    f"row with {analysis.prod_max} products exceeds the "
                    f"{_ROW_PRODUCT_LIMIT} per-row budget",
                    stage="symbolic",
                    tag="two-level hash",
                ),
            )
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        prods = ctx.row_prods.astype(np.float64)
        out = ctx.c_row_nnz.astype(np.float64)
        stage: dict[str, float] = {}
        try:
            # Memory pool: fixed-size chunks per team, sized by the max row.
            chunk = max(1024.0, float(2 ** np.ceil(np.log2(max(analysis.prod_max, 1)))))
            pool = int(min(chunk * max(1, ctx.a.rows // 8), 1.5 * ctx.total_products + chunk) * 16)
            ledger.alloc(pool, "memory pool")

            blk_prods = row_blocks(prods, 8)
            blk_out = row_blocks(out, 8)
            for phase in ("symbolic", "numeric"):
                numeric = phase == "numeric"
                scope.enter_stage(phase)
                scope.on_launch(phase)
                work = BlockWork(
                    mem_bytes=blk_prods * 12.0 + (blk_out * 12.0 if numeric else 0.0),
                    coalescing=0.5,           # generic team-level gathers
                    # Two-level probing: ~40% of inserts escalate to the
                    # global-memory level.
                    scratch_atomics=blk_prods * 1.2,
                    global_atomics=blk_prods * 0.6,
                    iops=blk_prods * 10.0,    # portable index arithmetic
                    flops=blk_prods * 2.0 if numeric else 0.0,
                    utilization=0.4,
                )
                cycles = block_cycles(device, _THREADS, 8192, work)
                stage[phase] = kernel_time_s(cycles, _THREADS, 8192, device)

            ledger.alloc(ctx.output_bytes, "C")
            stage["write"] = stream_time_s(ctx.c_nnz * 12.0, device)
            # No sorting stage: the output stays unsorted.
        except SpGEMMError as err:
            return SpGEMMResult.failed(self.name, err)

        time_s = device.call_overhead_s + 2 * device.malloc_s + sum(stage.values())
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage,
            sorted_output=False,
        )
