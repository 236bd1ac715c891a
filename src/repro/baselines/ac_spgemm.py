"""AC-SpGEMM-like baseline: adaptive chunked local ESC.

AC-SpGEMM (Winter et al., PPoPP'19) performs ESC *locally*: the product
stream is cut into equally sized chunks assigned to blocks, each chunk is
sorted and combined in scratchpad, and partial rows spanning chunk
boundaries are merged in a follow-up pass.  Its documented profile, which
this model reproduces:

* low analysis cost and adaptive local load balancing — excellent lane
  utilisation and coalescing, the strongest competitor on thin-to-medium
  matrices (the paper's second-best overall, ``t/t_b ≈ 1.98``);
* per-product sorting work — every duplicate that hashing would collapse
  in O(1) costs log-factor sort steps, so high-compaction matrices lose;
* chunk-boundary merging — long rows spanning many chunks need extra
  global merge traffic;
* heavy temporary memory — chunks are over-allocated up front (the paper
  excludes this allocation from *time* but reports ≈5.5× spECK's peak
  *memory*; the ledger follows that convention).
"""

from __future__ import annotations

import numpy as np

from ..core.context import MultiplyContext
from ..faults import SpGEMMError
from ..gpu import BlockWork, MemoryLedger, block_cycles, kernel_time_s
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, stream_time_s

__all__ = ["AcSpgemm"]

#: Products handled per chunk (per block) in scratchpad.
_CHUNK = 4096
_THREADS = 512
#: Up-front over-allocation factor of the chunk pool (paper: up to 10x,
#: typically lower; 2.5x matches the reported 5.5x-of-spECK average peak).
_OVERALLOC = 1.5


@register
class AcSpgemm(SpGEMMAlgorithm):
    """Chunked local expand-sort-compress with adaptive load balancing."""

    name = "AC-SpGEMM"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        device = self.device
        scope = self.fault_scope(ctx)
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        products = ctx.total_products
        prods = ctx.row_prods.astype(np.float64)
        stage: dict[str, float] = {}
        try:
            ledger.alloc(int(_OVERALLOC * products * 12) + 4096, "chunk pool")

            # Chunk assignment: prefix sum over row products.
            scope.enter_stage("analysis")
            scope.on_launch("analysis")
            stage["analysis"] = stream_time_s(ctx.a.rows * 8.0, device)

            n_chunks = max(1, int(np.ceil(products / _CHUNK)))
            per_chunk = np.full(n_chunks, float(_CHUNK))
            per_chunk[-1] = products - _CHUNK * (n_chunks - 1) or _CHUNK
            # Local ESC: stream inputs, sort in scratchpad (bitonic/radix,
            # ~log2(chunk) scratch steps per element), combine, write out.
            log_c = np.log2(max(2, _CHUNK))
            work = BlockWork(
                # Read products, write chunk partials to the global pool,
                # re-read them for cross-chunk combination, write results.
                mem_bytes=per_chunk * (12.0 + 16.0 + 16.0 + 16.0 + 12.0),
                coalescing=1.0,
                flops=per_chunk * 2.0,
                iops=per_chunk * 6.0,
                scratch_ops=per_chunk * log_c * 3.0,
                utilization=0.9,
            )
            scope.enter_stage("local ESC")
            scope.on_launch("local ESC")
            cycles = block_cycles(device, _THREADS, 24576, work)
            stage["local ESC"] = kernel_time_s(cycles, _THREADS, 24576, device)

            # Chunk-boundary merging: rows spanning k chunks are merged in
            # ceil(log2(k)) passes over their partial results.
            scope.enter_stage("merge")
            scope.on_launch("chunk merge")
            spans = np.maximum(np.ceil(prods / _CHUNK), 1.0)
            merge_elems = float((prods * (spans > 1) * np.log2(np.maximum(spans, 2))).sum())
            stage["merge"] = stream_time_s(merge_elems * 24.0, device, launches=2)

            ledger.alloc(ctx.output_bytes, "C")
            stage["write"] = stream_time_s(ctx.c_nnz * 12.0, device)
        except SpGEMMError as err:
            return SpGEMMResult.failed(self.name, err)

        # Initial chunk allocation excluded from time (paper methodology).
        time_s = device.call_overhead_s + device.malloc_s + sum(stage.values())
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage,
        )
