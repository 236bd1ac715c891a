"""CUSP-like baseline: global Expand–Sort–Compress SpGEMM.

CUSP materialises *every* intermediate product in global memory, sorts the
whole triplet stream by (row, column) with device-wide radix sort, and
compresses colliding indices by a segmented reduction (§2 "ESC").

Cost structure reproduced here:

* perfectly load balanced — every phase parallelises over products;
* enormous memory traffic — each product is written, then moved twice per
  radix pass (eight 8-bit digit passes over a 64-bit key), then re-read for
  compaction.  For high-compaction matrices most of that traffic is spent
  on duplicates that hashing would have collapsed in scratchpad;
* high temporary memory — two ping-pong triplet buffers, which is what
  makes ESC methods fail on large inputs.
"""

from __future__ import annotations

from ..core.context import MultiplyContext
from ..faults import SpGEMMError
from ..gpu import MemoryLedger
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, stream_time_s

__all__ = ["CuspEsc"]

#: Bytes per expanded triplet (row 4 + col 4 + value 8).
_TRIPLET_BYTES = 16.0
#: Radix digit passes over the 64-bit (row, col) key.
_RADIX_PASSES = 8


@register
class CuspEsc(SpGEMMAlgorithm):
    """Global ESC in the style of CUSP."""

    name = "cuSP"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        device = self.device
        scope = self.fault_scope(ctx)
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        products = ctx.total_products
        stage: dict[str, float] = {}
        try:
            # Two ping-pong buffers live through the whole sort.
            ledger.alloc(int(products * _TRIPLET_BYTES), "triplets A")
            ledger.alloc(int(products * _TRIPLET_BYTES), "triplets B")

            # Expand: read A and B rows, write every product triplet.
            scope.enter_stage("expand")
            scope.on_launch("expand")
            read_bytes = ctx.a.nnz * 12.0 + products * 12.0
            stage["expand"] = stream_time_s(
                read_bytes + products * _TRIPLET_BYTES, device, launches=2
            )

            # Sort: radix passes, each streaming the full triplet array
            # in and out (key scatter is not perfectly coalesced).
            scope.enter_stage("sort")
            scope.on_launch("radix sort")
            sort_bytes = _RADIX_PASSES * 2.0 * products * _TRIPLET_BYTES
            stage["sort"] = stream_time_s(sort_bytes * 1.3, device, launches=_RADIX_PASSES)

            # Compress: segmented reduction into C.
            scope.enter_stage("compress")
            scope.on_launch("compress")
            ledger.alloc(ctx.output_bytes, "C")
            stage["compress"] = stream_time_s(
                products * _TRIPLET_BYTES + ctx.c_nnz * 12.0, device, launches=2
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
