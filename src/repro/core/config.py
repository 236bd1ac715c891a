"""Kernel configurations (paper §4.2, "Configuration").

spECK uses six kernel configurations.  The largest uses the maximum
opt-in scratchpad (96 KB on a Titan V) with 1024 threads; the next uses
the default 48 KB limit with 1024 threads; each further configuration
halves both scratchpad and threads so that every launch fully uses the
available resources:

===  =======  ==========
id   threads  scratchpad
===  =======  ==========
0    64       3 KB
1    128      6 KB
2    256      12 KB
3    512      24 KB
4    1024     48 KB
5    1024     96 KB
===  =======  ==========

Capacity accounting follows §4.3: the symbolic hash map stores one 32-bit
compound index per element (4 B/entry), the numeric map additionally a
64-bit double (12 B/entry) — hence the symbolic map stores 3× as many
elements.  The dense accumulator stores a bitmask in the symbolic pass
(8 entries/byte) and a double per column in the numeric pass (8 B/entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

import numpy as np

from ..gpu import DeviceSpec

__all__ = [
    "KernelConfig",
    "build_configs",
    "config_index_for_entries",
    "hash_capacities",
    "SYMBOLIC_ENTRY_BYTES",
    "NUMERIC_ENTRY_BYTES",
    "MAX_ROWS_PER_BLOCK",
]

#: Bytes per hash-map slot in the symbolic pass (32-bit compound index).
SYMBOLIC_ENTRY_BYTES = 4
#: Bytes per hash-map slot in the numeric pass (32-bit index + 64-bit value).
NUMERIC_ENTRY_BYTES = 12
#: The compound index reserves 5 bits for the local row id, so a block can
#: cover at most 32 merged rows.
MAX_ROWS_PER_BLOCK = 32
#: Column count above which 64-bit indices are required (27-bit col field).
MAX_COLS_32BIT = 1 << 27


@dataclass(frozen=True)
class KernelConfig:
    """One of spECK's kernel size configurations."""

    index: int
    threads: int
    scratch_bytes: int

    def hash_entries(self, stage: str) -> int:
        """Hash-map slots available in scratchpad for ``stage``.

        ``stage`` is ``"symbolic"`` or ``"numeric"``.
        """
        per = SYMBOLIC_ENTRY_BYTES if stage == "symbolic" else NUMERIC_ENTRY_BYTES
        return self.scratch_bytes // per

    def dense_entries(self, stage: str) -> int:
        """Dense-accumulator capacity (columns per iteration) for ``stage``."""
        if stage == "symbolic":
            return self.scratch_bytes * 8  # 1 bit per column
        return self.scratch_bytes // 8  # one double per column


def build_configs(device: DeviceSpec) -> List[KernelConfig]:
    """Construct the six configurations for ``device``, smallest first."""
    configs: List[KernelConfig] = []
    threads = device.max_threads_per_block
    scratch = device.scratchpad_default
    # Five halving configurations down from (1024 threads, 48 KB)...
    descending = []
    for _ in range(5):
        descending.append((threads, scratch))
        threads = max(device.warp_size, threads // 2)
        scratch = scratch // 2
    descending.reverse()
    for i, (t, s) in enumerate(descending):
        configs.append(KernelConfig(index=i, threads=t, scratch_bytes=s))
    # ...plus the opt-in large-scratchpad configuration (halves occupancy).
    configs.append(
        KernelConfig(
            index=len(configs),
            threads=device.max_threads_per_block,
            scratch_bytes=device.scratchpad_large,
        )
    )
    return configs


@lru_cache(maxsize=64)
def hash_capacities(configs: Tuple[KernelConfig, ...], stage: str) -> Tuple[int, ...]:
    """Ascending hash capacities per configuration, cached per config list
    (``KernelConfig`` is frozen, hence hashable)."""
    return tuple(c.hash_entries(stage) for c in configs)


@lru_cache(maxsize=64)
def _capacity_array(configs: Tuple[KernelConfig, ...], stage: str) -> np.ndarray:
    """:func:`hash_capacities` as a read-only int64 array."""
    capacities = np.array(hash_capacities(configs, stage), dtype=np.int64)
    capacities.setflags(write=False)
    return capacities


def config_index_for_entries(
    required_entries: np.ndarray,
    configs: Sequence[KernelConfig],
    stage: str,
) -> np.ndarray:
    """Smallest configuration whose hash map holds ``required_entries``.

    Entries exceeding even the largest map are assigned the largest
    configuration (index ``len(configs) - 1``); such rows either use the
    dense accumulator or spill to a global hash map (§4.3).
    """
    capacities = _capacity_array(tuple(configs), stage)
    required = np.asarray(required_entries, dtype=np.int64)
    # searchsorted over the ascending capacities: first config that fits.
    idx = np.searchsorted(capacities, required, side="left")
    return np.minimum(idx, len(configs) - 1).astype(np.int64)
