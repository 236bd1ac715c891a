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
    block_cycles,
    coalescing_efficiency,
    grouped_kernel_times,
    kernel_time_s,
)
from .accumulators import hash_fill, probe_cost_amortized
from .analysis import RowAnalysis
from .config import KernelConfig
from .global_lb import BlockPlan
from .local_lb import choose_group_size
from .params import SpeckParams

__all__ = ["PassResult", "run_pass", "radix_sort_time_s", "seg_sum", "seg_max", "seg_min"]

#: Bytes of one (index, value) element pair streamed from B.
_ELEM_BYTES = 12.0


def seg_sum(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Segment sums of ``values`` over CSR-style ``ptr`` (empty-safe)."""
    cs = np.zeros(values.size + 1, dtype=np.float64)
    np.cumsum(values, out=cs[1:])
    return cs[ptr[1:]] - cs[ptr[:-1]]


def _seg_reduceat(values: np.ndarray, ptr: np.ndarray, op, empty) -> np.ndarray:
    out = np.full(ptr.size - 1, empty, dtype=np.asarray(values).dtype)
    nonempty = ptr[:-1] < ptr[1:]
    if nonempty.any():
        out[nonempty] = op.reduceat(values, ptr[:-1][nonempty])
    return out


def seg_max(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """Segment maxima (0 for empty segments)."""
    return _seg_reduceat(values, ptr, np.maximum, 0)


def seg_min(values: np.ndarray, ptr: np.ndarray, fill=None) -> np.ndarray:
    """Segment minima; empty segments yield ``fill``.

    ``fill=None`` picks the dtype's identity for minimum — ``+inf`` for
    floats, the dtype's maximum for integers — so an empty segment can
    never be mistaken for a true minimum of 0.
    """
    if fill is None:
        dtype = np.asarray(values).dtype
        fill = np.inf if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).max
    return _seg_reduceat(values, ptr, np.minimum, fill)


@lru_cache(maxsize=64)
def _config_arrays(
    configs: Tuple[KernelConfig, ...], stage: str
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-configuration lookup arrays, computed once per config list.

    ``KernelConfig`` is a frozen (hashable) dataclass, so a tuple of
    configs keys the cache; every ``run_pass`` call for the same device
    reuses the same arrays instead of rebuilding them.  The arrays are
    frozen read-only because callers fancy-index them (which copies).
    """
    threads = np.array([c.threads for c in configs], dtype=np.int64)
    scratch = np.array([c.scratch_bytes for c in configs], dtype=np.int64)
    hash_caps = np.array([c.hash_entries(stage) for c in configs], dtype=np.float64)
    dense_caps = np.array([c.dense_entries(stage) for c in configs], dtype=np.float64)
    for arr in (threads, scratch, hash_caps, dense_caps):
        arr.setflags(write=False)
    return threads, scratch, hash_caps, dense_caps


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
        so a ``replace`` copy recomputes it and equality ignores it."""
        return float(self.group_sizes.mean()) if self.group_sizes.size else 0.0


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
    p = plan.row_order
    ptr = plan.block_ptr
    if p.size == 0:
        return PassResult(time_s=kernel_time_s(np.zeros(0), 64, 0, device))

    # ---- per-block aggregates (vectorised over all blocks) --------------
    prods = seg_sum(analysis.products[p], ptr)
    nnz_a = seg_sum(analysis.a_row_nnz[p], ptr)
    out_nnz = seg_sum(c_row_nnz[p], ptr)
    out_sq = seg_sum(c_row_nnz[p].astype(np.float64) ** 2, ptr)
    max_ref = seg_max(analysis.max_ref_row[p], ptr)
    max_a_nnz = seg_max(analysis.a_row_nnz[p], ptr)
    col_lo = seg_min(analysis.col_min[p], ptr)  # empty blocks: int64 max
    col_hi = seg_max(analysis.col_max[p], ptr)
    # Empty blocks produce hi - lo + 1 << 0 (sentinel lo); clamp to 1.
    col_range = np.maximum(col_hi - col_lo + 1, 1)
    rows_in_block = np.diff(ptr)
    cfg_idx = plan.block_config
    threads_all, scratch_all, hash_all, dense_all = _config_arrays(
        tuple(configs), stage
    )
    threads_arr = threads_all[cfg_idx]
    scratch_arr = scratch_all[cfg_idx]
    hash_caps = hash_all[cfg_idx]
    dense_caps = dense_all[cfg_idx]
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
        g = np.minimum(
            np.full(cfg_idx.size, int(params.fixed_group_size), dtype=np.int64),
            threads_arr,
        )
    # Consecutive references to B (adjacent columns of A) make consecutive
    # groups stream contiguous CSR storage: effective coalescing width is
    # the group size times the mean reference streak length.
    adj = seg_sum(analysis.adjacency[p], ptr)
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
    direct_contig = np.clip(prods / col_range, 0.2, 1.0)
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
    mem = nnz_a * _ELEM_BYTES + rows_in_block * 8.0  # A entries + offsets
    rand = np.zeros_like(prods)
    flops = np.zeros_like(prods)
    # Per-row bookkeeping instructions (row-loop setup, offset loads,
    # output cursor) — the fixed work each row of A and each referenced
    # row of B costs regardless of its length.  With idle lanes (small
    # utilisation) this serialises, which is what makes fixed wide groups
    # expensive on very short rows (Fig. 13's left end).
    iops = rows_in_block * 30.0 + nnz_a * 10.0
    scratch = np.zeros_like(prods)
    scratch_atomic = np.zeros_like(prods)
    global_atomic = np.zeros_like(prods)

    # Direct referencing: symbolic reads only B's row offsets; numeric
    # streams the single referenced row through to C.
    d = is_direct
    rand[d] += nnz_a[d] * 8.0
    iops[d] += nnz_a[d] * 2.0
    if numeric:
        mem[d] += prods[d] * _ELEM_BYTES  # read B rows
        mem[d] += prods[d] * _ELEM_BYTES  # write C rows
        flops[d] += prods[d]

    # Hash accumulation.
    h = is_hash
    mem[h] += prods[h] * _ELEM_BYTES
    fill = hash_fill(np.minimum(entries_needed, hash_caps), hash_caps)
    probes = probe_cost_amortized(fill)
    scratch_atomic[h] += (prods[h] * probes[h])
    iops[h] += prods[h] * 6.0  # hash computation + compound index
    # Map initialisation and extraction each touch every slot — but
    # cooperatively with *all* threads of the block (unlike accumulation,
    # whose lane utilisation depends on g).  The shared `utilization`
    # divisor is compensated by pre-scaling.
    scratch[h] += 2.0 * hash_caps[h] * util[h]
    if numeric:
        flops[h] += prods[h] * 2.0
        mem[h] += out_nnz[h] * _ELEM_BYTES  # write C
        # Scratchpad rank sort for the three smallest configurations
        # (cooperative, full-thread phase like extraction); capped by a
        # bitonic n·log²n bound for the rare longer rows.
        small = h & (cfg_idx <= 2)
        sort_ops = np.minimum(
            out_sq,
            out_nnz * np.square(np.log2(np.maximum(out_nnz, 2.0))),
        )
        scratch[small] += sort_ops[small] / 16.0 * util[small]
    else:
        mem[h] += rows_in_block[h] * 4.0  # write per-row counts

    sp = spills
    if sp.any():
        # Move local map to global and continue probing in global memory.
        global_atomic[sp] += prods[sp] * 1.2
        mem[sp] += hash_caps[sp] * (4.0 if not numeric else 12.0)

    # Dense accumulation.
    de = is_dense
    # Window capacity differs per configuration, so inline the per-block
    # form of :func:`dense_iterations`.
    iters = np.maximum(np.ceil(col_range / np.maximum(dense_caps, 1.0)), 1.0)
    mem[de] += prods[de] * _ELEM_BYTES
    scratch_atomic[de] += prods[de]  # direct-indexed set/add
    iops[de] += prods[de] * 2.0
    # Window reset + bitmask/prefix scan per iteration (cooperative).
    scratch[de] += iters[de] * dense_caps[de] / 8.0 * util[de]
    if numeric:
        flops[de] += prods[de] * 2.0
        mem[de] += out_nnz[de] * _ELEM_BYTES
    else:
        mem[de] += rows_in_block[de] * 4.0

    # ---- launch one kernel per configuration ------------------------------
    result = PassResult(time_s=0.0, group_sizes=g)
    result.accum_blocks = {
        "hash": int(is_hash.sum()),
        "dense": int(is_dense.sum()),
        "direct": int(is_direct.sum()),
    }
    result.global_hash_blocks = int(sp.sum())
    if sp.any():
        result.global_hash_max_entries = int(entries_needed[sp].max())
    # Unsorted compaction feeding the radix stage (middle configurations).
    if numeric:
        mid = is_hash & (cfg_idx > 2) & (cfg_idx < n_cfg)
        result.radix_entries = int(out_nnz[mid & (cfg_idx >= 3)].sum())
    result.mean_utilization = float(util.mean())

    # One flat block_cycles sweep prices every block of every configuration
    # (per-block thread/scratch arrays; each block's grid is the number of
    # blocks sharing its kernel launch), then the scheduler recovers the
    # identical per-configuration makespans from the flat array.
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
    cycles = block_cycles(
        device, threads_arr, scratch_arr, work, grid=grid_sizes[cfg_idx]
    )
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
