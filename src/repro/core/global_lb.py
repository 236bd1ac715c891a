"""Global load balancing (paper §4.2): binning, block merging, block plans.

The global load balancer assigns rows of A to thread blocks and each block
to one of the six kernel configurations so that the accumulator of every
block fits in scratchpad and scratchpad is well utilised.

Two planning modes exist:

* :func:`uniform_plan` — "no load balancing": a single kernel configuration
  with enough memory for the longest row, and a fixed number of rows per
  block.  Cheap, ideal for uniform matrices.
* :func:`balanced_plan` — binning by per-row memory demand (order-preserving,
  prefix-sum style rather than row-at-a-time atomics, §4.2 "Binning"),
  followed by the parallel block merge of Algorithm 2 for the smallest bin
  so short rows share blocks (up to 32 rows per block — the 5-bit local row
  id limit).

Plans are returned as a :class:`BlockPlan`: a permutation of row ids grouped
into blocks (CSR-style ``block_ptr``) with one configuration index per
block.  The symbolic/numeric passes aggregate their per-block statistics by
segment reductions over this permutation.

Whether a stage bins at all is the Table-2 decision, made only in
:func:`plan_stage` from the exact inputs of :func:`symbolic_inputs` /
:func:`numeric_inputs` (or the speculative path's sampled ones).  The
engine, its speculative fallback, plan patching (:mod:`repro.graph.delta`)
and the auto-tuner (:mod:`repro.core.tuning`) all decide through it.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..gpu import BlockWork, DeviceSpec, block_cycles, kernel_time_s
from .analysis import RowAnalysis
from .config import (
    MAX_ROWS_PER_BLOCK,
    KernelConfig,
    config_index_for_entries,
    hash_capacities,
)
from .params import SpeckParams

__all__ = [
    "BlockPlan", "StageInputs", "uniform_plan", "balanced_plan", "block_merge",
    "largest_config", "lb_decision", "symbolic_inputs", "numeric_inputs",
    "plan_stage", "load_balance_time_s",
]

#: A stage's binning inputs: per-row demand, max/mean ratio, longest row.
StageInputs = Tuple[np.ndarray, float, int]


@dataclass
class BlockPlan:
    """Assignment of matrix rows to thread blocks.

    Attributes
    ----------
    row_order:
        Row ids in block order (a permutation of ``arange(rows)``).
    block_ptr:
        Offsets into ``row_order``; block ``b`` owns rows
        ``row_order[block_ptr[b]:block_ptr[b+1]]``.
    block_config:
        Kernel-configuration index per block.
    used_global_lb:
        Whether binning (the global load balancer) produced this plan.
    """

    row_order: np.ndarray
    block_ptr: np.ndarray
    block_config: np.ndarray
    used_global_lb: bool

    @property
    def n_blocks(self) -> int:
        return int(self.block_config.size)

    def validate(self, n_rows: int) -> None:
        """Every row appears exactly once; block ranges are consistent."""
        if self.block_ptr[0] != 0 or self.block_ptr[-1] != self.row_order.size:
            raise ValueError("block_ptr must span row_order")
        if np.any(np.diff(self.block_ptr) <= 0):
            raise ValueError("blocks must be non-empty")
        if self.block_config.size != self.block_ptr.size - 1:
            raise ValueError("one config per block required")
        seen = np.sort(self.row_order)
        if not np.array_equal(seen, np.arange(n_rows)):
            raise ValueError("row_order must be a permutation of all rows")


def largest_config(
    max_entries: int, configs: list[KernelConfig], stage: str
) -> int:
    """The configuration the longest row (``max_entries``) needs: the
    scalar form of :func:`~repro.core.config.config_index_for_entries`."""
    capacities = hash_capacities(tuple(configs), stage)
    return min(bisect_left(capacities, max_entries), len(configs) - 1)


def uniform_plan(
    row_entries: np.ndarray,
    configs: list[KernelConfig],
    stage: str,
) -> BlockPlan:
    """Single-configuration plan without binning.

    The configuration is the smallest able to hold the *longest* row's
    accumulator; blocks take a fixed number of consecutive rows sized to
    fill the scratchpad (capped at 32 rows — the merged-row limit).
    """
    rows = int(row_entries.size)
    max_req = int(row_entries.max()) if rows else 0
    cfg_idx = largest_config(max_req, configs, stage)
    cfg = configs[cfg_idx]
    cap = cfg.hash_entries(stage)
    per_block = min(max(cap // max(1, max_req), 1), MAX_ROWS_PER_BLOCK)
    n_blocks = max(1, (rows + per_block - 1) // per_block) if rows else 0
    block_ptr = np.minimum(
        np.arange(n_blocks + 1, dtype=np.int64) * per_block, rows
    )
    return BlockPlan(
        row_order=np.arange(rows, dtype=np.int64),
        block_ptr=block_ptr,
        block_config=np.full(n_blocks, cfg_idx, dtype=np.int64),
        used_global_lb=False,
    )


def block_merge(
    sizes: np.ndarray,
    limit: float,
    *,
    max_rows: int = MAX_ROWS_PER_BLOCK,
) -> np.ndarray:
    """Parallel neighbour merging (Algorithm 2 / Fig. 3 of the paper).

    Returns block boundary offsets (``ptr`` of length ``n_blocks + 1``)
    over the input sequence.  Aligned neighbouring segments are merged
    while their combined size stays within ``limit``, doubling the stride
    each iteration — a prefix-sum-shaped reduction whose worst case is
    within 50 % of optimal utilisation.
    """
    n = int(np.asarray(sizes).size)
    if n == 0:
        return np.zeros(1, dtype=np.int64)
    levels = int(np.log2(max_rows))  # 5 iterations -> up to 32 rows
    size = np.asarray(sizes, dtype=np.float64)
    whole = [np.ones(n, dtype=bool)]
    sums = [size]
    for _ in range(levels):
        prev_s, prev_w = sums[-1], whole[-1]
        m = prev_s.size
        pairs = m // 2
        s = prev_s[: 2 * pairs : 2] + prev_s[1 : 2 * pairs : 2]
        w = (
            prev_w[: 2 * pairs : 2]
            & prev_w[1 : 2 * pairs : 2]
            & (s <= limit)
        )
        if m % 2:  # odd tail never merges upward
            s = np.append(s, prev_s[-1])
            w = np.append(w, False)
        sums.append(s)
        whole.append(w)
    # A node is a final block iff it is whole and its parent is not.
    starts: list[np.ndarray] = []
    for level in range(levels + 1):
        w = whole[level]
        if level < levels:
            parent_w = whole[level + 1]
            parent = np.repeat(parent_w, 2)[: w.size]
            final = w & ~parent
        else:
            final = w
        idx = np.flatnonzero(final)
        if idx.size:
            starts.append(idx * (1 << level))
    if not starts:
        return np.arange(n + 1, dtype=np.int64)
    boundaries = np.sort(np.concatenate(starts))
    return np.append(boundaries, n).astype(np.int64)


def balanced_plan(
    row_entries: np.ndarray,
    configs: list[KernelConfig],
    stage: str,
    *,
    merge_smallest: bool = True,
) -> BlockPlan:
    """Binning plan: one bin per configuration, block merge in the smallest.

    Rows keep their CSR order inside each bin (the paper's prefix-sum
    binning), preserving the cache-friendliness of neighbouring rows with
    overlapping column sets.
    """
    rows = int(row_entries.size)
    if rows == 0:
        return BlockPlan(
            row_order=np.empty(0, dtype=np.int64),
            block_ptr=np.zeros(1, dtype=np.int64),
            block_config=np.empty(0, dtype=np.int64),
            used_global_lb=True,
        )
    cfg_idx = config_index_for_entries(row_entries, configs, stage)
    order = np.argsort(cfg_idx, kind="stable")
    sorted_cfg = cfg_idx[order]

    ptr_parts: list[np.ndarray] = []
    cfg_parts: list[np.ndarray] = []
    offset = 0
    for c in range(len(configs)):
        members = np.flatnonzero(sorted_cfg == c)
        if members.size == 0:
            continue
        if c == 0 and merge_smallest:
            # Merge neighbouring short rows to fill the smallest kernel.
            limit = configs[0].hash_entries(stage)
            local_ptr = block_merge(row_entries[order[members]], limit)
            ptr_parts.append(offset + local_ptr[:-1])
            cfg_parts.append(np.zeros(local_ptr.size - 1, dtype=np.int64))
        else:
            # Larger bins: one row per block.
            ptr_parts.append(offset + np.arange(members.size, dtype=np.int64))
            cfg_parts.append(np.full(members.size, c, dtype=np.int64))
        offset += members.size
    block_ptr = np.append(np.concatenate(ptr_parts), rows).astype(np.int64)
    return BlockPlan(
        row_order=order.astype(np.int64),
        block_ptr=block_ptr,
        block_config=np.concatenate(cfg_parts),
        used_global_lb=True,
    )


def lb_decision(
    stage: str, params: SpeckParams, ratio: float, rows: int,
    largest_cfg: int, n_cfg: int,
) -> bool:
    """Global-LB on/off for one stage (Table 2), honouring forced modes."""
    force = (
        params.force_lb_symbolic if stage == "symbolic" else params.force_lb_numeric
    )
    if force is not None:
        return force
    if params.global_lb_mode == "always":
        return True
    if params.global_lb_mode == "never":
        return False
    thresholds = params.symbolic_lb if stage == "symbolic" else params.numeric_lb
    return thresholds.decide(ratio, rows, largest_cfg, n_cfg)


def symbolic_inputs(analysis: RowAnalysis) -> StageInputs:
    """Exact symbolic-stage inputs: the per-row product counts."""
    mean_prod = max(analysis.mean_products(), 1e-9)
    return analysis.products, analysis.prod_max / mean_prod, analysis.prod_max


def numeric_inputs(c_row_nnz: np.ndarray, params: SpeckParams) -> StageInputs:
    """Exact numeric-stage inputs: output row sizes at the maximum hash
    fill; the ratio is taken over the unscaled row sizes."""
    fill = max(params.numeric_max_fill, 1e-9)
    entries = np.ceil(c_row_nnz / fill).astype(np.int64)
    max_c = int(c_row_nnz.max()) if c_row_nnz.size else 0
    mean_c = max(float(c_row_nnz.mean()) if c_row_nnz.size else 0.0, 1e-9)
    return entries, max_c / mean_c, int(entries.max()) if entries.size else 0


def plan_stage(
    stage: str, inputs: StageInputs, rows: int, params: SpeckParams,
    configs: list[KernelConfig],
) -> Tuple[bool, BlockPlan]:
    """Decide whether ``stage`` bins and build its plan either way."""
    entries, ratio, max_entries = inputs
    largest = largest_config(max_entries, configs, stage)
    if lb_decision(stage, params, ratio, rows, largest, len(configs)):
        return True, balanced_plan(
            entries, configs, stage, merge_smallest=params.enable_block_merge
        )
    return False, uniform_plan(entries, configs, stage)


def load_balance_time_s(
    rows: int,
    n_active_bins: int,
    device: DeviceSpec,
) -> float:
    """Simulated cost of binning + block merging.

    One pass over the rows (read demand, local prefix scans per active bin,
    one global append per block batch) plus the merge kernel over the
    smallest bin; both parallelised with 1024-thread blocks.  Also charges
    the bin-buffer allocation the paper only pays when binning runs.
    """
    threads = 1024
    rows = max(1, rows)
    n_blocks = (rows + threads - 1) // threads
    per_block_rows = np.full(n_blocks, float(threads))
    per_block_rows[-1] = rows - threads * (n_blocks - 1)
    work = BlockWork(
        mem_bytes=per_block_rows * 8.0,  # demand in, block record out
        iops=per_block_rows * (4.0 + 2.0 * max(1, n_active_bins)),
        scratch_ops=per_block_rows * 3.0,  # prefix scans
        global_atomics=np.ones(n_blocks) * max(1, n_active_bins),
        utilization=per_block_rows / threads,
    )
    cycles = block_cycles(device, threads, 0, work)
    t = kernel_time_s(cycles, threads, 0, device)
    # Merge kernel over (at most) the whole row set, 5 strided iterations.
    merge_work = BlockWork(
        mem_bytes=per_block_rows * 4.0,
        iops=per_block_rows * 10.0,
        scratch_ops=per_block_rows * 5.0,
        utilization=per_block_rows / threads,
    )
    merge_cycles = block_cycles(device, threads, 0, merge_work)
    t += kernel_time_s(merge_cycles, threads, 0, device)
    # Bin buffers come from a pooled allocator: half a malloc amortised.
    return t + 0.5 * device.malloc_s
