"""Simulated GPU device description.

The paper evaluates on an NVIDIA TITAN V (Volta): 80 SMs, 12 GB HBM2,
96 KB scratchpad per SM of which 48 KB is the default per-block limit and
96 KB an opt-in maximum, 1024 threads per block.  :class:`DeviceSpec`
captures the architectural quantities that spECK's design decisions key on;
every cost in the simulator is derived from them rather than hard-coded in
algorithm code, so alternative devices can be modelled by constructing a
different spec.

The simulator is a *cost model*, not a cycle-accurate simulator: each
algorithm accounts the memory traffic, arithmetic, scratchpad traffic and
utilisation its CUDA implementation would generate, and the device converts
that into time via throughput numbers and a wave-based block scheduler
(:mod:`repro.gpu.schedule`).
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DeviceSpec", "TITAN_V", "CpuSpec", "XEON_I7"]


@dataclass(frozen=True)
class DeviceSpec:
    """Architectural parameters of the simulated GPU."""

    name: str = "TITAN V (simulated)"
    num_sms: int = 80
    warp_size: int = 32
    max_threads_per_block: int = 1024
    max_threads_per_sm: int = 2048
    max_blocks_per_sm: int = 32
    #: Default per-block scratchpad limit (static shared memory), bytes.
    scratchpad_default: int = 49152
    #: Opt-in per-block maximum (dynamic shared memory on Volta), bytes.
    scratchpad_large: int = 98304
    #: Scratchpad available per SM, bytes (Volta: 96 KB usable).
    scratchpad_per_sm: int = 98304
    clock_hz: float = 1.455e9
    #: Sustained global-memory bandwidth, bytes/second (HBM2, ~651 GB/s).
    mem_bandwidth: float = 6.51e11
    global_mem_bytes: int = 12 * 1024**3
    #: Scalar fused-multiply-add throughput per SM per cycle (64 FP64 cores
    #: on Volta SMs -> use FP64 rate since the paper measures double).
    flops_per_sm_per_cycle: float = 32.0
    #: Integer/logic ops retired per SM per cycle (proxy for issue width).
    iops_per_sm_per_cycle: float = 64.0
    #: Scratchpad accesses served per SM per cycle (32 banks).
    scratch_ops_per_sm_per_cycle: float = 32.0
    #: Extra cycles a scratchpad atomic costs beyond a plain access
    #: (reflects the replay cost of contended atomics).
    scratch_atomic_extra: float = 2.0
    #: Effective cost multiplier for a *global*-memory atomic/probing access
    #: relative to streaming traffic (random access, no coalescing).
    global_atomic_factor: float = 8.0
    #: Fixed cycles every thread block pays (dispatch, prologue, offset
    #: loads, final synchronisation) — why launching many near-empty
    #: blocks is expensive and merging small rows into shared blocks wins.
    block_overhead_cycles: float = 600.0
    #: Fixed cost of one kernel launch, seconds (driver + dispatch).
    kernel_launch_s: float = 5.0e-6
    #: Fixed cost of one device memory allocation, seconds.
    malloc_s: float = 1.0e-5
    #: Fixed host-side overhead per SpGEMM call (API entry, streams), s.
    call_overhead_s: float = 1.2e-5

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    @property
    def bytes_per_cycle(self) -> float:
        """Device-wide global-memory bytes transferred per clock cycle."""
        return self.mem_bandwidth / self.clock_hz

    @property
    def bytes_per_sm_cycle(self) -> float:
        """Fair-share global-memory bytes per SM per cycle."""
        return self.bytes_per_cycle / self.num_sms

    def blocks_per_sm(self, threads: int, scratch_bytes: int) -> int:
        """Resident blocks per SM for a kernel configuration.

        Limited by threads, scratchpad and the hardware block cap — the
        occupancy calculation behind the paper's observation that the 96 KB
        configuration halves the number of concurrently active blocks.
        """
        if threads <= 0:
            raise ValueError("threads must be positive")
        if threads > self.max_threads_per_block:
            raise ValueError(
                f"{threads} threads exceeds device max {self.max_threads_per_block}"
            )
        if scratch_bytes > self.scratchpad_large:
            raise ValueError(
                f"{scratch_bytes} B scratchpad exceeds device max "
                f"{self.scratchpad_large}"
            )
        by_threads = self.max_threads_per_sm // threads
        by_scratch = (
            self.scratchpad_per_sm // scratch_bytes if scratch_bytes > 0 else self.max_blocks_per_sm
        )
        return max(1, min(by_threads, by_scratch, self.max_blocks_per_sm))

    def concurrency(self, threads: int, scratch_bytes: int) -> int:
        """Total concurrently resident blocks across the device."""
        return self.num_sms * self.blocks_per_sm(threads, scratch_bytes)

    def occupancy(self, threads: int, scratch_bytes: int) -> float:
        """Fraction of maximum resident threads achieved by a configuration."""
        resident = self.blocks_per_sm(threads, scratch_bytes) * threads
        return min(1.0, resident / self.max_threads_per_sm)

    def seconds(self, cycles: float) -> float:
        """Convert device cycles to seconds."""
        return cycles / self.clock_hz


#: The paper's evaluation device.
TITAN_V = DeviceSpec()


@dataclass(frozen=True)
class CpuSpec:
    """Host CPU description for the Intel-MKL-like baseline.

    The paper's test system pairs the TITAN V with an Intel i7-7700
    (4 cores / 8 threads, ~3.6 GHz) running MKL's multithreaded SpGEMM.
    """

    name: str = "Intel i7-7700 (simulated)"
    cores: int = 4
    threads: int = 8
    clock_hz: float = 3.6e9
    #: Effective cycles per intermediate product for a tuned Gustavson
    #: implementation (includes the accumulate and bookkeeping).
    cycles_per_product: float = 24.0
    #: Cycles per output non-zero for result assembly.
    cycles_per_output: float = 8.0
    #: Fixed call overhead, seconds (threading fork/join, setup).
    call_overhead_s: float = 4.0e-6
    mem_bandwidth: float = 3.8e10



#: The paper's host CPU.
XEON_I7 = CpuSpec()
