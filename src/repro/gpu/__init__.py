"""Simulated SIMT GPU substrate: device spec, cost model, scheduler, memory."""

from .cost import BlockWork, block_cycles, coalescing_efficiency, shared_block_cycles
from .device import TITAN_V, XEON_I7, CpuSpec, DeviceSpec
from .memory import DeviceOOM, MemoryLedger
from .schedule import (
    grouped_kernel_times,
    kernel_time_s,
    makespan_cycles,
)

__all__ = [
    "DeviceSpec",
    "CpuSpec",
    "TITAN_V",
    "XEON_I7",
    "BlockWork",
    "block_cycles",
    "coalescing_efficiency",
    "shared_block_cycles",
    "MemoryLedger",
    "DeviceOOM",
    "kernel_time_s",
    "grouped_kernel_times",
    "makespan_cycles",
]
