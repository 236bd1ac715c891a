"""Host-speed calibration: a fixed kernel timed around every timed call.

On a shared machine the speed of one core drifts by a quarter or more
within minutes (other tenants on the same physical core), and every
timed call slows with it.  So a fixed kernel of the same kind of work as
the program (Python objects, a keyed sort, dict updates, a numpy sort)
is timed right before and right after each timed call, and the call's
wall time is converted to *reference seconds*::

    reference_s = wall_s * REFERENCE_S / kernel_s

``kernel_s`` is the mean of the fastest of :data:`KERNEL_RUNS` kernel
runs before the call and the fastest of as many after it.  The kernel
runs with the garbage collector off and after the call's result is
released, so neither a collection over the program's heap nor one
preempted run changes it.  ``REFERENCE_S`` is that figure on an
unloaded core of the machine the bounds were set on (README.md), so
there a reference second is a wall second.  Raw wall times and every
kernel sample are kept in each result file.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Callable, List, NamedTuple, Tuple

import numpy as np

__all__ = ["KERNEL_RUNS", "REFERENCE_S", "Timing", "kernel_s", "kernel_samples",
           "timed", "to_reference"]

#: The fastest kernel run on an unloaded core of the reference machine.
REFERENCE_S = 0.0047
#: Kernel runs on each side of a timed call.
KERNEL_RUNS = 5


class _Item:
    __slots__ = ("i", "prio", "t")

    def __init__(self, i: int, prio: int, t: float) -> None:
        self.i = i
        self.prio = prio
        self.t = t


def kernel_s() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = time.perf_counter()
    items = [_Item(i, i % 7, float((i * 7919) % 1000)) for i in range(4000)]
    items.sort(key=lambda x: (x.prio, x.t, x.i))
    sums: dict = {}
    for it in items:
        key = (it.prio, it.i & 63)
        sums[key] = sums.get(key, 0.0) + it.t
    keys = np.arange(100_000, dtype=np.int64)[::-1].copy()
    np.argsort(keys, kind="stable")
    np.cumsum(keys)
    return time.perf_counter() - t0


def kernel_samples(runs: int = KERNEL_RUNS) -> List[float]:
    """Wall seconds of ``runs`` kernel runs with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return [kernel_s() for _ in range(runs)]
    finally:
        if enabled:
            gc.enable()


class Timing(NamedTuple):
    """One timed call: its wall time and the kernel runs around it."""

    wall_s: float
    before: List[float]
    after: List[float]

    @property
    def kernel_s(self) -> float:
        return (min(self.before) + min(self.after)) / 2

    @property
    def reference_s(self) -> float:
        return to_reference(self.wall_s, self.kernel_s)


def timed(call: Callable[[], Any],
          keep: Callable[[Any], Any] = lambda out: out) -> Tuple[Any, Timing]:
    """``(keep(result), timing)`` of one call.

    ``keep`` runs after the clock stops; the call's result is released
    before the kernel runs that follow it, so only what ``keep`` returns
    stays alive.
    """
    before = kernel_samples()
    t0 = time.perf_counter()
    out = call()
    wall = time.perf_counter() - t0
    kept = keep(out)
    del out
    return kept, Timing(wall, before, kernel_samples())


def to_reference(wall_s: float, kernel: float) -> float:
    """Wall seconds expressed in reference seconds."""
    return wall_s * REFERENCE_S / kernel
