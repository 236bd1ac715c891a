"""Block scheduling: from per-block costs to kernel time.

GPUs dispatch thread blocks onto SMs in waves; a kernel is as slow as its
most loaded SM.  The scheduler here converts an array of per-block cycle
costs into a kernel makespan using greedy list scheduling in dispatch order
(which is how hardware work distributors behave), with an exact small-case
path and a tight analytic bound for huge launches.

This is where load *imbalance* becomes time: a kernel whose blocks are
uniform runs at ``sum / concurrency``, while a kernel with one huge block is
pinned to that block's cost — exactly the effect spECK's global load
balancer exists to remove.
"""

from __future__ import annotations

import heapq
from typing import Dict, Sequence

import numpy as np

from .device import DeviceSpec

__all__ = [
    "makespan_cycles",
    "kernel_time_s",
    "grouped_kernel_times",
]

#: Above this many blocks the exact heap simulation is replaced by the
#: analytic bound (the two agree to <1% for large uniform-ish launches).
_EXACT_LIMIT = 200_000


def makespan_cycles(block_cycles: np.ndarray, concurrency: int) -> float:
    """Makespan of list-scheduling ``block_cycles`` onto ``concurrency`` slots.

    Blocks are dispatched in index order, each to the earliest-free slot —
    the behaviour of the hardware work distributor.  For launches too large
    to simulate exactly we use ``max(sum/m, max)`` which list scheduling
    approaches from above by at most one block.
    """
    block_cycles = np.asarray(block_cycles, dtype=np.float64)
    if block_cycles.size == 0:
        return 0.0
    if concurrency <= 0:
        raise ValueError("concurrency must be positive")
    if block_cycles.size <= concurrency:
        return float(block_cycles.max())
    if block_cycles.size > _EXACT_LIMIT:
        total = float(block_cycles.sum())
        return max(total / concurrency, float(block_cycles.max()))
    # Exact greedy simulation with a min-heap of slot finish times: each
    # block replaces the earliest finish time ``t`` with ``t + cost``.
    # Python floats add exactly as float64 scalars do, and compare and
    # allocate far faster.
    costs = block_cycles.tolist()
    slots = costs[:concurrency]
    heapq.heapify(slots)
    for c in costs[concurrency:]:
        heapq.heapreplace(slots, slots[0] + c)
    return max(slots)


def grouped_kernel_times(
    block_cycles: np.ndarray,
    cfg_of_block: np.ndarray,
    configs: Sequence,
    device: DeviceSpec,
    *,
    include_launch: bool = True,
) -> Dict[int, float]:
    """Per-configuration kernel times from one flat per-block cycle array.

    ``block_cycles[i]`` is the cost of block ``i`` and ``cfg_of_block[i]``
    names the kernel configuration it launches under.  Each configuration
    with at least one block is scheduled separately — blocks in original
    index order, exactly as if its cycles had been computed in a dedicated
    per-configuration call — so callers can price a whole mixed plan with
    a single :func:`~repro.gpu.cost.block_cycles` sweep and still get the
    identical per-launch makespans.
    """
    block_cycles = np.asarray(block_cycles, dtype=np.float64)
    cfg_of_block = np.asarray(cfg_of_block)
    times: Dict[int, float] = {}
    used = np.flatnonzero(np.bincount(cfg_of_block, minlength=len(configs)))
    for c in used.tolist():
        cfg = configs[c]
        times[c] = kernel_time_s(
            block_cycles[cfg_of_block == c],
            cfg.threads,
            cfg.scratch_bytes,
            device,
            include_launch=include_launch,
        )
    return times


def kernel_time_s(
    block_cycles: np.ndarray,
    threads: int,
    scratch_bytes: int,
    device: DeviceSpec,
    *,
    include_launch: bool = True,
) -> float:
    """Seconds one kernel launch takes: makespan plus launch overhead.

    An empty grid still pays the launch overhead when ``include_launch`` —
    matching the real cost of conditionally-skippable kernels that are
    launched anyway.
    """
    concurrency = device.concurrency(threads, scratch_bytes)
    cycles = makespan_cycles(np.asarray(block_cycles, dtype=np.float64), concurrency)
    t = device.seconds(cycles)
    if include_launch:
        t += device.kernel_launch_s
    return t
