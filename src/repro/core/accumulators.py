"""Accumulator cost models: hashing, dense accumulation, direct referencing.

Each function builds the :class:`~repro.gpu.cost.BlockWork` contribution of
one accumulator type for a *vector of blocks*.  They encode the cost
structure the paper describes:

* **Hashing** (§4.3 "Sparse Rows of C"): scratchpad linear probing.  The
  expected probe count grows with the final fill factor α — classic open
  addressing, ≈ (1 + 1/(1−α)) / 2 per successful lookup and
  ≈ (1 + 1/(1−α)²) / 2 per insert [Knuth].  Extraction scans every slot of
  the map, which is why oversized maps hurt short rows (§3.1).  Rows that
  overflow even the largest map spill to a *global* hash map whose probes
  are uncoalesced global-memory atomics — the 40× cliff of Fig. 12.
* **Dense accumulation** (§4.3 "Dense Rows of C"): direct indexing into a
  column window, no collisions and no sorting; multiple iterations advance
  the window when the output row's column range exceeds scratchpad.
* **Direct referencing** (§4.3 "Single entry rows of A"): the output row is
  a scaled copy of one row of B — symbolic needs only B's row offsets.

The executable counterparts used for correctness live in
:mod:`repro.core.exec_accumulators`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "probe_cost_insert",
    "probe_cost_amortized",
    "probe_cost_lookup",
    "hash_fill",
    "dense_iterations",
]

#: Hash fill is clamped below 1 to keep expected probe formulas finite; the
#: load balancer aims for ≤66% fill, and the conservative symbolic sizing
#: keeps average fill near 15% (§4.3).
_MAX_FILL = 0.98


def hash_fill(entries: np.ndarray, capacity: np.ndarray) -> np.ndarray:
    """Final fill factor α of each block's hash map, clamped to (0, 0.98]."""
    cap = np.maximum(np.asarray(capacity, dtype=np.float64), 1.0)
    return np.minimum(
        np.maximum(np.asarray(entries, dtype=np.float64) / cap, 0.0), _MAX_FILL
    )


def probe_cost_insert(fill: np.ndarray) -> np.ndarray:
    """Expected probes per insert under linear probing at fill α."""
    a = np.clip(np.asarray(fill, dtype=np.float64), 0.0, _MAX_FILL)
    return 0.5 * (1.0 + 1.0 / np.square(1.0 - a))


def probe_cost_amortized(fill: np.ndarray) -> np.ndarray:
    """Average probes per insert while filling a map from empty to α.

    Integrating the instantaneous insert cost 0.5·(1 + 1/(1−x)²) from 0 to
    α and dividing by α gives 0.5·(1 + 1/(1−α)) — the amortized cost the
    whole accumulation actually pays, which stays modest even when the
    final map is nearly full.
    """
    a = np.minimum(np.maximum(np.asarray(fill, dtype=np.float64), 0.0), _MAX_FILL)
    return 0.5 * (1.0 + 1.0 / (1.0 - a))


def probe_cost_lookup(fill: np.ndarray) -> np.ndarray:
    """Expected probes per successful lookup under linear probing at α."""
    a = np.clip(np.asarray(fill, dtype=np.float64), 0.0, _MAX_FILL)
    return 0.5 * (1.0 + 1.0 / (1.0 - a))


def dense_iterations(col_range: np.ndarray, window: int) -> np.ndarray:
    """Iterations the dense accumulator needs for a given column range."""
    rng = np.maximum(np.asarray(col_range, dtype=np.float64), 1.0)
    return np.ceil(rng / max(1, window))
