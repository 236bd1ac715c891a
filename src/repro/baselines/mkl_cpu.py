"""Intel-MKL-like CPU baseline.

A multithreaded row-wise Gustavson SpGEMM on the host CPU.  The cost model
charges a fixed number of core cycles per intermediate product plus output
assembly, divided across the cores, with a small fork/join overhead — no
kernel launches, no PCIe, no device allocation.

This is the method that wins *below* the ≈15k-product crossover in Fig. 6:
tiny multiplications cannot amortise the GPU's fixed costs, and the paper
reports Intel MKL fastest on 356 (mostly small) matrices.

The executable algorithm behind it is
:func:`repro.kernels.reference.gustavson_multiply`, which tests run
directly; the harness uses the shared exact engine for the result matrix.
"""

from __future__ import annotations

import numpy as np

from ..core.context import MultiplyContext
from ..gpu import DeviceSpec, TITAN_V, XEON_I7, CpuSpec
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register

__all__ = ["MklCpu"]


@register
class MklCpu(SpGEMMAlgorithm):
    """CPU Gustavson SpGEMM with an i7-7700-class cost model."""

    name = "MKL"

    def __init__(
        self,
        device: DeviceSpec = TITAN_V,
        cpu: CpuSpec = XEON_I7,
    ) -> None:
        super().__init__(device)
        self.cpu = cpu

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        cpu = self.cpu
        prods = ctx.row_prods.astype(np.float64)
        # Per-row cycles: products dominate; touched output entries pay the
        # gather/scatter of the dense workspace.
        row_cycles = (
            prods * cpu.cycles_per_product
            + ctx.c_row_nnz * cpu.cycles_per_output
            + 40.0  # per-row loop overhead
        )
        total_cycles = float(row_cycles.sum())
        # Parallel efficiency degrades a little with skew: the longest row
        # bounds one thread's share.
        longest = float(row_cycles.max()) if row_cycles.size else 0.0
        span = max(total_cycles / cpu.cores, longest)
        time_s = cpu.call_overhead_s + span / cpu.clock_hz
        # Host memory: the dense workspace (one lane per thread) plus C.
        workspace = cpu.threads * ctx.b.cols * 9  # value + flag per column
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=int(workspace + ctx.output_bytes),
            stage_times={"gustavson": time_s},
            decisions={"cores": cpu.cores},
        )
