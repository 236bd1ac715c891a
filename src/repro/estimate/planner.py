"""Speculative-planning front door: memoised estimates for consumers.

The sampler (:mod:`repro.estimate.sampler`) is a pure function; serving
layers consult estimates repeatedly for the same structure pair (admission
check, scheduler ordering, plan-cache budgeting, router placement, then
the engine itself), so this module adds the thread-safe LRU memo that
makes those consultations O(1) after the first.

The *speculative planning* contract the estimates feed (implemented in
:mod:`repro.core.speck`):

* the engine replaces the exact analysis + symbolic stages with the
  estimation kernel's modelled time, sizes the output allocation at the
  ``c_nnz`` confidence bound, and takes its load-balancing decisions from
  the sampled ratios;
* after the (host-side exact) structure is known, the realized stats are
  checked against the bounds; a violation charges the full exact pipeline
  into ``stage_times["fallback"]`` and re-derives every decision exactly;
* either way the executed result is bit-identical to the non-speculative
  run — speculation moves *modelled time and allocations*, never values.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Optional, Tuple

from ..gpu import DeviceSpec
from ..matrices.csr import CSR
from .sampler import MultiplyEstimate, estimate_multiply

__all__ = ["RowEstimator", "estimated_plan_nbytes"]


def estimated_plan_nbytes(rows: int) -> int:
    """Predicted host bytes of a cached plan for an ``rows``-row A.

    A populated :class:`~repro.serve.plan_cache.CachedPlan` holds six
    8-byte per-row analysis arrays, the per-row output sizes, and two
    block plans whose row orders dominate — about ten 8-byte words per
    row plus a small fixed overhead for block tables and pass records.
    """
    return 80 * int(rows) + 4096


class RowEstimator:
    """Memoised estimator shared by the serving-layer consumers.

    Estimates use the sampler's default seed and are deterministic per
    ``(A.fingerprint(), B.fingerprint())``; the memo therefore never
    changes a result, only its cost.
    """

    def __init__(
        self,
        device: Optional[DeviceSpec] = None,
        *,
        max_entries: int = 256,
    ) -> None:
        self.device = device
        self.max_entries = int(max_entries)
        self._memo: "OrderedDict[Tuple[str, str], MultiplyEstimate]" = OrderedDict()
        self._lock = threading.Lock()
        #: Diagnostics: memo hits / misses.
        self.hits = 0
        self.misses = 0

    def estimate(self, a: CSR, b: CSR) -> MultiplyEstimate:
        """The (memoised) estimate for ``A @ B``."""
        key = (a.fingerprint(), b.fingerprint())
        with self._lock:
            cached = self._memo.get(key)
            if cached is not None:
                self._memo.move_to_end(key)
                self.hits += 1
                return cached
        est = estimate_multiply(a, b, device=self.device)
        with self._lock:
            self.misses += 1
            self._memo[key] = est
            self._memo.move_to_end(key)
            while len(self._memo) > self.max_entries:
                self._memo.popitem(last=False)
        return est

    def footprint_bound_bytes(self, a: CSR, b: CSR) -> int:
        """Upper-bound device footprint for admission / placement checks."""
        return int(self.estimate(a, b).footprint_bytes.bound)

    def plan_nbytes(self, a: CSR) -> int:
        """Predicted plan-cache bytes for a plan keyed on this A."""
        return estimated_plan_nbytes(a.rows)
