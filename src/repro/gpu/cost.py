"""Per-block cost composition.

Algorithms describe each thread block's work as *what it does* — bytes of
global traffic (and how well coalesced), floating-point operations, integer
operations, scratchpad accesses and atomics, and what fraction of the
block's threads are actually busy.  This module converts those quantities
into per-block device cycles using the throughput numbers of the
:class:`~repro.gpu.device.DeviceSpec`.

Design notes
------------
* A block of ``T`` threads co-resident with ``r - 1`` sibling blocks owns a
  ``T / max_threads_per_sm`` share of its SM's issue bandwidth and a
  ``1 / r`` share of its SM's global-memory bandwidth; the wave scheduler
  then multiplies concurrency back up, so aggregate kernel throughput is
  conserved while *imbalance* between blocks still costs time.
* Thread under-utilisation (idle lanes from a bad group size ``g``, Fig. 13
  of the paper) divides effective issue throughput — idle lanes cannot be
  reclaimed inside a block.
* Poor coalescing divides effective memory throughput: a fully scattered
  access pattern touches one 32-byte sector per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .device import DeviceSpec

__all__ = [
    "BlockWork", "block_cycles", "coalescing_efficiency", "shared_block_cycles",
]

ArrayLike = Union[float, np.ndarray]


@dataclass
class BlockWork:
    """Work performed by each block of a kernel (arrays broadcast together).

    All fields default to zero so call sites only state what they use.
    """

    #: Bytes moved to/from global memory with streaming-style access.
    mem_bytes: ArrayLike = 0.0
    #: Coalescing efficiency in (0, 1]: 1 = perfectly coalesced.
    coalescing: ArrayLike = 1.0
    #: Bytes accessed randomly in global memory (hash probes, scattered
    #: gathers); charged one 32-byte transaction per access element.
    random_bytes: ArrayLike = 0.0
    #: Double-precision floating-point operations.
    flops: ArrayLike = 0.0
    #: Integer / control / address arithmetic operations.
    iops: ArrayLike = 0.0
    #: Plain scratchpad (shared-memory) accesses.
    scratch_ops: ArrayLike = 0.0
    #: Scratchpad atomic operations (hash inserts, bitmask sets).
    scratch_atomics: ArrayLike = 0.0
    #: Global-memory atomic operations (global hash fallback, binning).
    global_atomics: ArrayLike = 0.0
    #: Fraction of the block's threads doing useful work, in (0, 1].
    utilization: ArrayLike = 1.0


#: Size of one global-memory transaction sector, bytes.
SECTOR_BYTES = 32.0


def coalescing_efficiency(
    group_size: ArrayLike, element_bytes: float = 12.0
) -> np.ndarray:
    """Coalescing efficiency of ``g`` consecutive threads reading a row.

    ``g`` threads reading ``g`` consecutive (index, value) element pairs
    touch ``ceil(g * element_bytes / 128)`` 128-byte lines; a single thread
    (g = 1) wastes most of each transaction.  Saturates at 1 when a full
    warp streams contiguously.
    """
    g = np.asarray(group_size, dtype=np.float64)
    useful = np.maximum(g * element_bytes, 1.0)
    # Volta serves global loads at 32-byte sector granularity: a span of
    # `useful` consecutive bytes moves ceil(useful / 32) sectors.
    sectors = np.ceil(useful / SECTOR_BYTES)
    eff = useful / np.maximum(sectors * SECTOR_BYTES, 1.0)
    return np.minimum(eff, 1.0)


def block_cycles(
    device: DeviceSpec,
    threads: int,
    scratch_bytes: int,
    work: BlockWork,
    *,
    grid: "int | None" = None,
) -> np.ndarray:
    """Per-block cycle cost for a kernel configuration.

    The block cannot go faster than either its memory pipeline or its issue
    pipeline; the two overlap on real hardware, so the cost is their
    maximum plus a small serial fraction of the minor component.
    ``grid`` (the number of blocks in the launch) defaults to the
    broadcast work size.
    """
    r = device.blocks_per_sm(int(threads), int(scratch_bytes))
    if grid is None:
        grid = int(
            np.broadcast(work.mem_bytes, work.flops, work.iops, work.scratch_ops).size
        )
    if grid:
        r = min(r, max(1, -(-int(grid) // device.num_sms)))
    return shared_block_cycles(
        device,
        work,
        device.bytes_per_sm_cycle / r,
        int(threads) / device.max_threads_per_sm,
    )


def shared_block_cycles(
    device: DeviceSpec,
    work: BlockWork,
    mem_share: ArrayLike,
    issue_share: ArrayLike,
) -> np.ndarray:
    """Per-block cycle cost from each block's share of its SM.

    ``mem_share`` is the block's global-memory bandwidth in bytes per
    cycle (the SM's fair share over its ``r`` co-resident blocks) and
    ``issue_share`` its fraction of the SM's issue slots (threads over
    the SM's maximum).  Both may be per-block arrays, so one call prices
    blocks running under different kernel configurations with the same
    elementwise arithmetic as one :func:`block_cycles` call per
    configuration.
    """
    util = np.maximum(np.asarray(work.utilization, dtype=np.float64), 1e-3)
    coal = np.minimum(
        np.maximum(np.asarray(work.coalescing, dtype=np.float64), 1e-3), 1.0
    )

    # --- memory pipeline -------------------------------------------------
    stream_bytes = np.asarray(work.mem_bytes, dtype=np.float64) / coal
    rand = np.asarray(work.random_bytes, dtype=np.float64)
    # Random accesses move whole sectors regardless of useful payload.
    rand_traffic = np.where(
        rand > 0, np.ceil(np.maximum(rand, 1.0) / SECTOR_BYTES) * SECTOR_BYTES, 0.0
    )
    g_atomics = np.asarray(work.global_atomics, dtype=np.float64)
    atomic_traffic = g_atomics * SECTOR_BYTES * device.global_atomic_factor
    mem_cycles = (stream_bytes + rand_traffic + atomic_traffic) / mem_share

    # --- issue pipeline ---------------------------------------------------
    flop_rate = device.flops_per_sm_per_cycle * issue_share
    iop_rate = device.iops_per_sm_per_cycle * issue_share
    scratch_rate = device.scratch_ops_per_sm_per_cycle * issue_share
    scratch_total = (
        np.asarray(work.scratch_ops, dtype=np.float64)
        + np.asarray(work.scratch_atomics, dtype=np.float64)
        * (1.0 + device.scratch_atomic_extra)
    )
    issue_cycles = (
        np.asarray(work.flops, dtype=np.float64) / flop_rate
        + np.asarray(work.iops, dtype=np.float64) / iop_rate
        + scratch_total / scratch_rate
    ) / util

    # Overlap model: dominant pipeline hides 70% of the minor one.
    major = np.maximum(mem_cycles, issue_cycles)
    minor = np.minimum(mem_cycles, issue_cycles)
    return device.block_overhead_cycles + major + 0.3 * minor
