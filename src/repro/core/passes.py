"""Symbolic and numeric SpGEMM passes (paper §4.3).

Both passes share the same machinery: a :class:`~repro.core.global_lb.BlockPlan`
groups rows into blocks, each block picks an accumulation method (direct /
dense / hash), the local load balancer selects the group size ``g``, and the
block's work — input streaming, probing, accumulation, extraction, and (in
the numeric pass) sorting or compaction — is costed per configuration and
scheduled onto the device.

The symbolic pass counts output elements (indices only, 3× hash capacity);
the numeric pass computes values, writes C, and sorts: the three smallest
configurations rank-sort in scratchpad, the middle configurations compact
unsorted output for a later device-wide radix pass, and the largest rows
always use the dense accumulator, which produces ordered output for free.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Dict, Tuple

import numpy as np

from ..gpu import (
    BlockWork,
    DeviceSpec,
    coalescing_efficiency,
    grouped_kernel_times,
    kernel_time_s,
    shared_block_cycles,
)
from .accumulators import hash_fill, probe_cost_amortized
from .analysis import RowAnalysis
from .config import KernelConfig
from .global_lb import BlockPlan
from .local_lb import choose_group_size
from .params import SpeckParams

__all__ = ["PassResult", "run_pass", "radix_sort_time_s", "block_aggregates"]

#: Bytes of one (index, value) element pair streamed from B.
_ELEM_BYTES = 12.0

def block_aggregates(
    analysis: RowAnalysis, c_row_nnz: np.ndarray, plan: BlockPlan
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-block sums and extrema of the row statistics, stacked.

    Returns ``(sums, extrema)``.  ``sums`` is a float64 ``(5, n_blocks)``
    array: products, A row nnz, C row nnz, its square, and adjacency.  Each
    row is one sequential float64 cumsum over the rows in block order,
    differenced at the block boundaries.  ``extrema`` is an int64
    ``(4, n_blocks)`` array: the largest ``max_ref_row``, the largest A
    row, the smallest ``col_min`` and the largest ``col_max``.  Empty
    blocks sum to 0 and have maxima 0 and ``col_min`` int64 max, so an
    empty block is never mistaken for one whose smallest column is 0.
    """
    order, ptr = plan.row_order, plan.block_ptr
    rows = np.array(
        [
            analysis.products,
            analysis.a_row_nnz,
            c_row_nnz,
            c_row_nnz.astype(np.float64) ** 2,
            analysis.adjacency,
        ],
        dtype=np.float64,
    )
    cs = np.zeros((5, order.size + 1), dtype=np.float64)
    np.cumsum(rows.take(order, axis=1), axis=1, out=cs[:, 1:])
    bounds = cs.take(ptr, axis=1)
    sums = bounds[:, 1:] - bounds[:, :-1]

    # col_min is reduced as the maximum of its negation: one reduceat.
    ext_rows = np.array(
        [analysis.max_ref_row, analysis.a_row_nnz, analysis.col_min, analysis.col_max],
        dtype=np.int64,
    )
    np.negative(ext_rows[2], out=ext_rows[2])
    # reduceat cannot express an empty segment: reduce the non-empty ones
    # (each then ends where the next non-empty one starts) and fill the rest.
    nonempty = ptr[:-1] < ptr[1:]
    extrema = np.maximum.reduceat(
        ext_rows.take(order, axis=1), ptr[:-1][nonempty], axis=1
    )
    if extrema.shape[1] < nonempty.size:
        filled = np.zeros((4, nonempty.size), dtype=np.int64)
        filled[2] = -np.iinfo(np.int64).max
        filled[:, nonempty] = extrema
        extrema = filled
    np.negative(extrema[2], out=extrema[2])
    return sums, extrema


@lru_cache(maxsize=64)
def _config_table(
    configs: Tuple[KernelConfig, ...], stage: str, device: DeviceSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-configuration factors, computed once per config list, stage
    and device (all frozen, hence hashable).

    Returns ``(threads, resident, factors)``: thread counts and resident
    blocks per SM (int64; :meth:`DeviceSpec.blocks_per_sm` rejects a
    configuration the device cannot run), and a float64 ``(3, n_cfg)``
    table of hash capacity, dense capacity and issue share.  The arrays
    are read-only; callers gather them by block configuration.
    """
    threads = np.array([c.threads for c in configs], dtype=np.int64)
    resident = np.array(
        [device.blocks_per_sm(c.threads, c.scratch_bytes) for c in configs],
        dtype=np.int64,
    )
    factors = np.array(
        [
            [c.hash_entries(stage) for c in configs],
            [c.dense_entries(stage) for c in configs],
            threads / device.max_threads_per_sm,
        ],
        dtype=np.float64,
    )
    for arr in (threads, resident, factors):
        arr.setflags(write=False)
    return threads, resident, factors


@dataclass
class PassResult:
    """Timing and decision record of one symbolic or numeric pass."""

    time_s: float
    #: Kernel time per configuration index.
    kernel_times: Dict[int, float] = field(default_factory=dict)
    #: Blocks per accumulation method ("hash" / "dense" / "direct").
    accum_blocks: Dict[str, int] = field(default_factory=dict)
    #: Output entries compacted unsorted for the device-wide radix pass.
    radix_entries: int = 0
    #: Blocks that had to spill to a global-memory hash map.
    global_hash_blocks: int = 0
    #: Largest single-block global hash map, in entries (pool sizing).
    global_hash_max_entries: int = 0
    #: Group size chosen per block (diagnostics / Fig. 13 analysis).
    group_sizes: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Mean lane utilisation across blocks (diagnostics).
    mean_utilization: float = 1.0

    @cached_property
    def mean_group_size(self) -> float:
        """Mean of ``group_sizes`` (0 with no blocks).  Computed once per
        record, so plan hits reusing a cached record skip it; not a field,
        so a ``replace`` copy recomputes it and equality ignores it.

        The exact integer sum over the count is the correctly rounded
        mean, which is what ``np.mean`` returns while its float64 partial
        sums stay exact (a total below 2**53), at a fraction of its
        per-call cost."""
        g = self.group_sizes
        return int(g.sum()) / g.size if g.size else 0.0


def run_pass(
    stage: str,
    analysis: RowAnalysis,
    plan: BlockPlan,
    c_row_nnz: np.ndarray,
    configs: list[KernelConfig],
    params: SpeckParams,
    device: DeviceSpec,
) -> PassResult:
    """Cost one symbolic or numeric pass under the given block plan."""
    if stage not in ("symbolic", "numeric"):
        raise ValueError(f"unknown stage {stage!r}")
    numeric = stage == "numeric"
    n_cfg = len(configs)
    if plan.row_order.size == 0:
        return PassResult(time_s=kernel_time_s(np.zeros(0), 64, 0, device))

    # ---- per-block aggregates (vectorised over all blocks) --------------
    sums, extrema = block_aggregates(analysis, c_row_nnz, plan)
    prods, nnz_a, out_nnz, out_sq, adj = sums
    max_ref, max_a_nnz, col_lo, col_hi = extrema
    # Empty blocks produce hi - lo + 1 << 0 (sentinel lo); clamp to 1.
    col_range = np.maximum(col_hi - col_lo + 1, 1)
    rows_in_block = plan.block_ptr[1:] - plan.block_ptr[:-1]
    cfg_idx = plan.block_config
    threads_all, resident_all, factors_all = _config_table(
        tuple(configs), stage, device
    )
    threads_arr = threads_all[cfg_idx]
    hash_caps, dense_caps, issue_share = factors_all[:, cfg_idx]
    largest_cap = configs[-1].hash_entries(stage)

    # ---- accumulation method per block -----------------------------------
    is_direct = (max_a_nnz <= 1) & params.enable_direct
    if numeric:
        density = out_nnz / col_range
        # "Requires the largest kernel" is a property of the row's size,
        # not of the plan (a no-LB plan runs everything in one config).
        req_entries = out_nnz / max(params.numeric_max_fill, 1e-9)
        big_rows = req_entries > configs[-2].hash_entries("numeric")
        medium = req_entries > configs[2].hash_entries("numeric")
        dense_ok = (density >= params.dense_density_threshold) & medium
        is_dense = params.enable_dense & (big_rows | dense_ok) & ~is_direct
    else:
        is_dense = (
            params.enable_dense
            & (prods > params.symbolic_dense_factor * largest_cap)
            & ~is_direct
        )
    is_hash = ~(is_direct | is_dense)

    # Actual final occupancy of a block's hash map is the number of distinct
    # output columns it accumulates — the conservative product-based sizing
    # keeps this low (≈15% average fill in the symbolic pass, §4.3).  Blocks
    # whose occupancy exceeds even the largest scratchpad map spill to
    # global memory (only reachable in the largest configuration).
    entries_needed = out_nnz
    spills = is_hash & (entries_needed > hash_caps)

    # ---- local load balancing --------------------------------------------
    avg_len = prods / np.maximum(nnz_a, 1.0)
    if params.fixed_group_size is None:
        # choose_group_size depends on the block's thread count, which the
        # configuration determines; the per-block thread array vectorises
        # the choice across every configuration in one elementwise sweep.
        g = choose_group_size(
            avg_len, np.maximum(max_ref, 1), nnz_a, threads_arr
        )
    else:
        g = np.minimum(int(params.fixed_group_size), threads_arr)
    # Consecutive references to B (adjacent columns of A) make consecutive
    # groups stream contiguous CSR storage: effective coalescing width is
    # the group size times the mean reference streak length.
    streak = nnz_a / np.maximum(nnz_a - adj, 1.0)
    # Effective transaction width: a group never fetches more than the row
    # holds (min(g, avg_len)); contiguous B-row references (streak > 1)
    # extend the span across rows, up to a full warp.
    g_eff = np.minimum(
        np.minimum(g, np.maximum(avg_len, 1.0)) * np.maximum(streak, 1.0),
        32.0,
    )
    coal = coalescing_efficiency(g_eff)
    # Direct-referencing blocks copy whole rows of B; their access quality
    # is the contiguity of those rows in B's storage (perfect for
    # diagonal-like structure), independent of the group size g.
    direct_contig = np.minimum(np.maximum(prods / col_range, 0.2), 1.0)
    coal = np.where(is_direct, np.maximum(coal, direct_contig), coal)
    # Approximate group iterations: len/g per row plus half a wasted lane
    # round per referenced row (remainder of the ceil).
    group_iters = prods / np.maximum(g, 1) + 0.5 * nnz_a
    # Idle lanes waste issue slots only inside partially-active warps —
    # a group wider than a warp parks its fully-idle warps for free, so
    # the utilisation penalty is capped at warp granularity.
    g_waste = np.minimum(g, 32)
    util = np.minimum(1.0, prods / np.maximum(g_waste * group_iters, 1.0))
    # A single overlong row serialises its block when groups are narrow.
    critical_iters = np.maximum(max_ref / np.maximum(g, 1), 1.0)
    n_groups = np.maximum(threads_arr / np.maximum(g, 1), 1.0)
    imbalance = np.maximum(
        1.0, critical_iters / np.maximum(group_iters / n_groups, 1.0)
    )
    util = np.maximum(util / imbalance, 1e-3)

    # ---- compose per-block work ------------------------------------------
    # Direct referencing, hashing and dense accumulation partition the
    # blocks, so each cost term is one np.where over the three, its parts
    # added in the order the accumulators charge them (x + 0.0 == x for
    # these non-negative costs).
    b_bytes = prods * _ELEM_BYTES
    # Per-row bookkeeping instructions (row-loop setup, offset loads,
    # output cursor) — the fixed work each row of A and each referenced
    # row of B costs regardless of its length.  With idle lanes (small
    # utilisation) this serialises, which is what makes fixed wide groups
    # expensive on very short rows (Fig. 13's left end).  On top: an
    # offset read per A entry (direct), a hash and compound index per
    # product (hash), a direct index per product (dense).
    iops = rows_in_block * 30.0 + nnz_a * 10.0 + np.where(
        is_direct, nnz_a * 2.0, prods * np.where(is_hash, 6.0, 2.0)
    )
    # Direct referencing reads B's row offsets, scattered.
    rand = np.where(is_direct, nnz_a * 8.0, 0.0)
    # Hash inserts probe at the map's amortised fill; dense accumulation
    # sets/adds one directly indexed slot per product.
    fill = hash_fill(np.minimum(entries_needed, hash_caps), hash_caps)
    probes = probe_cost_amortized(fill)
    scratch_atomic = np.where(is_hash, prods * probes, np.where(is_dense, prods, 0.0))
    # Window capacity differs per configuration, so inline the per-block
    # form of :func:`dense_iterations`.
    iters = np.maximum(np.ceil(col_range / np.maximum(dense_caps, 1.0)), 1.0)
    # Map initialisation and extraction each touch every slot — but
    # cooperatively with *all* threads of the block (unlike accumulation,
    # whose lane utilisation depends on g).  The shared `utilization`
    # divisor is compensated by pre-scaling.  The dense window is reset
    # and bitmask/prefix-scanned once per iteration, also cooperatively.
    scratch = np.where(
        is_hash,
        2.0 * hash_caps * util,
        np.where(is_dense, iters * dense_caps / 8.0 * util, 0.0),
    )
    # A map that outgrows its scratchpad moves to global memory and keeps
    # probing there.
    global_atomic = np.where(spills, prods * 1.2, 0.0)
    spill_bytes = np.where(spills, hash_caps * (12.0 if numeric else 4.0), 0.0)
    mem = nnz_a * _ELEM_BYTES + rows_in_block * 8.0  # A entries + offsets
    if numeric:
        # Every block streams its B rows; direct copies them to C, hash
        # and dense write their C rows.
        mem = mem + b_bytes + np.where(is_direct, b_bytes, out_nnz * _ELEM_BYTES)
        flops = np.where(is_direct, prods, prods * 2.0)
        # Scratchpad rank sort for the three smallest configurations
        # (cooperative, full-thread phase like extraction); capped by a
        # bitonic n·log²n bound for the rare longer rows.
        small = is_hash & (cfg_idx <= 2)
        sort_ops = np.minimum(
            out_sq,
            out_nnz * np.square(np.log2(np.maximum(out_nnz, 2.0))),
        )
        scratch = scratch + np.where(small, sort_ops / 16.0 * util, 0.0)
    else:
        # Direct needs only B's offsets; hash and dense stream their B
        # rows and write per-row counts.
        mem = (
            mem
            + np.where(is_direct, 0.0, b_bytes)
            + np.where(is_direct, 0.0, rows_in_block * 4.0)
        )
        flops = np.zeros_like(prods)
    mem = mem + spill_bytes

    # ---- launch one kernel per configuration ------------------------------
    result = PassResult(time_s=0.0, group_sizes=g)
    result.accum_blocks = {
        "hash": int(np.count_nonzero(is_hash)),
        "dense": int(np.count_nonzero(is_dense)),
        "direct": int(np.count_nonzero(is_direct)),
    }
    result.global_hash_blocks = int(np.count_nonzero(spills))
    result.global_hash_max_entries = int(
        np.maximum.reduce(entries_needed, where=spills, initial=0.0)
    )
    # Unsorted compaction feeding the radix stage (middle configurations).
    if numeric:
        result.radix_entries = int(out_nnz[is_hash & (cfg_idx > 2)].sum())
    # util.mean(), without np.mean's Python-level dispatch.
    result.mean_utilization = float(util.sum() / util.size)

    # One flat sweep prices every block of every configuration; each
    # block's resident count is capped by its launch grid (a grid smaller
    # than the device leaves SMs a single resident block with the full
    # per-SM bandwidth share).  The scheduler then recovers the identical
    # per-configuration makespans from the flat array.
    work = BlockWork(
        mem_bytes=mem,
        coalescing=coal,
        random_bytes=rand,
        flops=flops,
        iops=iops,
        scratch_ops=scratch,
        scratch_atomics=scratch_atomic,
        global_atomics=global_atomic,
        utilization=util,
    )
    grid_sizes = np.bincount(cfg_idx, minlength=n_cfg)
    resident = np.minimum(
        resident_all, np.maximum(1, -(-grid_sizes // device.num_sms))
    )
    mem_share = device.bytes_per_sm_cycle / resident
    cycles = shared_block_cycles(device, work, mem_share[cfg_idx], issue_share)
    result.kernel_times = grouped_kernel_times(cycles, cfg_idx, configs, device)
    result.time_s = float(sum(result.kernel_times.values()))
    return result


def radix_sort_time_s(entries: int, device: DeviceSpec) -> float:
    """Device-wide radix sort of ``entries`` (index, value) pairs.

    Four 8-bit digit passes, each streaming keys and payloads in and out —
    the cost that makes sorting "one of the most expensive steps in SpGEMM
    for large matrices" (§6, on KokkosKernels skipping it).
    """
    if entries <= 0:
        return 0.0
    passes = 4
    bytes_moved = passes * 2.0 * entries * _ELEM_BYTES
    t = bytes_moved / device.mem_bandwidth
    return t + passes * device.kernel_launch_s
