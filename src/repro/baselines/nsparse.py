"""nsparse-like baseline: scratchpad hashing with product-count binning.

nsparse (Nagasaka et al., ICPP'17) is the closest relative of spECK and the
paper's most frequent runner-up.  The reproduction keeps its documented
behaviours and the three weaknesses spECK targets:

* **Unconditional analysis + binning.**  Both the intermediate-product
  count and the symbolic pass always run, and rows are inserted into bins
  one at a time with global atomics (≈30% of execution time on average,
  up to 60% — §3.3), pulling neighbouring rows apart (§4.2 "Binning").
* **Fixed local mapping.**  Always 32 threads per row of B, so matrices
  with short rows idle most lanes (stat96v2: 9% utilisation — §6.2) and a
  block covering few rows leaves whole warps unused (§3.2).
* **Hash-only accumulation.**  No dense fallback: rows whose output
  exceeds the largest scratchpad map go to a *global* hash map (the 40×
  cliff of Fig. 12), and every hash row pays sorting.
"""

from __future__ import annotations

import numpy as np

from ..core.accumulators import hash_fill, probe_cost_amortized
from ..core.config import build_configs
from ..core.context import MultiplyContext
from ..faults import FaultScope, SpGEMMError
from ..gpu import BlockWork, MemoryLedger, block_cycles, kernel_time_s
from ..result import SpGEMMResult
from .base import SpGEMMAlgorithm, register, run_with_retries, stream_time_s

__all__ = ["Nsparse"]

#: nsparse's fixed number of threads per row of B.
_FIXED_G = 32


@register
class Nsparse(SpGEMMAlgorithm):
    """Hash SpGEMM with per-row binning and a fixed 32-thread row mapping."""

    name = "nsparse"

    def run(self, ctx: MultiplyContext) -> SpGEMMResult:
        # nsparse re-runs its allocation loop once when table allocation
        # fails (re-allocation on hardware); the wasted attempt is charged,
        # plus a capped exponential backoff with seeded jitter before the
        # re-allocation (see base.retry_backoff_s).
        scope = self.fault_scope(ctx)
        return run_with_retries(
            self, scope, lambda attempt: self._attempt(ctx, scope)
        )

    def _attempt(self, ctx: MultiplyContext, scope: FaultScope) -> SpGEMMResult:
        device = self.device
        # nsparse predates the 96 KB opt-in configuration: use the five
        # default configurations only.
        configs = build_configs(device)[:-1]
        ledger = MemoryLedger(device, resident_bytes=ctx.input_bytes, faults=scope)
        analysis = ctx.analysis
        prods = analysis.products.astype(np.float64)
        out = ctx.c_row_nnz.astype(np.float64)
        rows = ctx.a.rows
        stage: dict[str, float] = {}
        try:
            # ---- product counting + binning (always, atomic per row) ----
            scope.enter_stage("analysis")
            scope.on_launch("analysis")
            stage["analysis"] = stream_time_s(ctx.a.nnz * 12.0 + rows * 8.0, device)
            bin_work = BlockWork(
                mem_bytes=np.full(max(1, rows // 1024 + 1), 1024 * 8.0),
                global_atomics=np.full(max(1, rows // 1024 + 1), 1024.0),
                iops=np.full(max(1, rows // 1024 + 1), 1024 * 4.0),
            )
            bin_cycles = block_cycles(device, 1024, 0, bin_work)
            stage["binning"] = 2 * kernel_time_s(bin_cycles, 1024, 0, device)
            ledger.alloc(rows * 8 + 1024, "bins")
            # Per-bin table bookkeeping and the numeric pass's temporary
            # row buffers (nsparse's peak is ~1.9x spECK's, Table 3).
            ledger.alloc(int(0.8 * ctx.c_nnz * 12), "row buffers")

            # ---- per-row hash kernels, one bin per configuration ----------
            caps_sym = np.array([c.hash_entries("symbolic") for c in configs])
            caps_num = np.array([c.hash_entries("numeric") for c in configs])
            threads = np.array([c.threads for c in configs])
            scratch = np.array([c.scratch_bytes for c in configs])
            nnz_a = analysis.a_row_nnz.astype(np.float64)
            avg_len = prods / np.maximum(nnz_a, 1.0)
            util = np.clip(avg_len / _FIXED_G, 1.0 / 8.0, 1.0)
            # Rows per block: each row gets 32 threads; a block of T threads
            # hosts T/32 rows, idle when a bin has fewer rows.
            for phase, caps in (("symbolic", caps_sym), ("numeric", caps_num)):
                numeric = phase == "numeric"
                scope.enter_stage(phase)
                scope.on_launch(phase)
                bin_idx = np.searchsorted(caps, prods, side="left")
                spill = bin_idx >= len(configs)  # global hash rows
                bin_idx = np.minimum(bin_idx, len(configs) - 1)
                t_phase = 0.0
                for b in range(len(configs)):
                    sel = bin_idx == b
                    if not sel.any():
                        continue
                    rows_per_block = max(1, threads[b] // _FIXED_G)
                    n_blk = int(np.ceil(sel.sum() / rows_per_block))
                    # Aggregate per block by chunking the bin's rows.
                    idx = np.flatnonzero(sel)
                    pad = n_blk * rows_per_block
                    bp = np.zeros(pad)
                    bp[: idx.size] = prods[idx]
                    blk_prods = bp.reshape(n_blk, rows_per_block).sum(axis=1)
                    bo = np.zeros(pad)
                    bo[: idx.size] = out[idx]
                    blk_out = bo.reshape(n_blk, rows_per_block).sum(axis=1)
                    bo2 = np.zeros(pad)
                    bo2[: idx.size] = out[idx] ** 2
                    blk_out_sq = bo2.reshape(n_blk, rows_per_block).sum(axis=1)
                    bu = np.zeros(pad)
                    bu[: idx.size] = util[idx]
                    blk_util = np.maximum(
                        bu.reshape(n_blk, rows_per_block).mean(axis=1), 1.0 / 64.0
                    )
                    fill = hash_fill(blk_out, float(caps[b]) * rows_per_block)
                    probes = probe_cost_amortized(fill)
                    sp = spill[idx]
                    bs = np.zeros(pad)
                    bs[: idx.size] = prods[idx] * sp
                    blk_spill = bs.reshape(n_blk, rows_per_block).sum(axis=1)
                    work = BlockWork(
                        mem_bytes=blk_prods * 12.0
                        + (blk_out * 12.0 if numeric else 0.0),
                        coalescing=1.0,  # g=32 streams full warps
                        scratch_atomics=blk_prods * probes,
                        global_atomics=blk_spill * 1.3,
                        iops=blk_prods * 6.0,
                        flops=blk_prods * 2.0 if numeric else 0.0,
                        scratch_ops=2.0 * float(caps[b]) * blk_util
                        + (
                            np.minimum(
                                blk_out_sq,
                                blk_out
                                * np.square(np.log2(np.maximum(blk_out, 2.0))),
                            )
                            / 8.0
                            * blk_util
                            if numeric
                            else 0.0
                        ),
                        utilization=blk_util,
                    )
                    cycles = block_cycles(
                        device, int(threads[b]), int(scratch[b]), work
                    )
                    t_phase += kernel_time_s(
                        cycles, int(threads[b]), int(scratch[b]), device
                    )
                stage[phase] = t_phase
                if phase == "symbolic" and spill.any():
                    ledger.alloc(
                        int(2 * prods[spill].sum() * 12), "global hash tables"
                    )

            ledger.alloc(ctx.output_bytes, "C")
        except SpGEMMError as err:
            err.partial_time_s = device.call_overhead_s + sum(stage.values())
            raise

        time_s = device.call_overhead_s + 3 * device.malloc_s + sum(stage.values())
        return SpGEMMResult(
            method=self.name,
            c=lambda: ctx.c,
            time_s=time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage,
        )
