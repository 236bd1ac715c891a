"""Multi-GPU SpGEMM: shared matrix storage across devices.

The second future-work direction of the paper's §7: "shared matrix storage
in multi-GPU setups".  This module simulates the standard 1-D
decomposition — A row-partitioned across P devices, B replicated (or
broadcast over the interconnect), each device computing its slab of C with
a full local spECK pipeline — and accounts:

* broadcast of B over the interconnect (NVLink-class point-to-point,
  pipelined ring broadcast: (P-1)/P of B per link step);
* per-device compute (each device runs its own analysis / balancing /
  SpGEMM on its slab, so imbalance *across* devices emerges naturally from
  the row partition);
* gather of the C slabs (they already tile C, so this is a pure transfer).

Two partitioners are provided: equal row counts, and balanced by the
intermediate-product counts from the O(NNZ_A) analysis — the same
lightweight information spECK's single-GPU balancer uses, lifted one
level up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.context import MultiplyContext, device_csr_bytes
from ..core.params import DEFAULT_PARAMS, SpeckParams
from ..core.speck import SpeckEngine
from ..faults import FailureInfo, FaultPlan
from ..gpu import DeviceSpec, TITAN_V
from ..kernels.reference import row_products
from ..matrices.csr import CSR
from .partitioned import _stack_rows

__all__ = [
    "MultiGpuResult",
    "partition_rows",
    "multigpu_multiply",
    "LINK_BW",
    "LINK_LATENCY",
]

#: NVLink-class device-to-device bandwidth, bytes/second.  Shared with
#: the cluster layer's modelled plan-replica transfers.
LINK_BW = 45.0e9
#: Per-transfer latency, seconds.
LINK_LATENCY = 5.0e-6


@dataclass
class MultiGpuResult:
    """Outcome of a multi-GPU multiplication."""

    c: Optional[CSR]
    time_s: float
    n_devices: int
    broadcast_s: float
    gather_s: float
    #: Per-device compute time; the makespan is their maximum.
    device_times: List[float] = field(default_factory=list)
    per_device: List[object] = field(default_factory=list)
    valid: bool = True
    failure: str = ""
    #: Structured failure taxonomy of the failing device's run, when any.
    failure_info: Optional[FailureInfo] = None

    @property
    def compute_s(self) -> float:
        return max(self.device_times) if self.device_times else 0.0

    def speedup_vs(self, single_time_s: float) -> float:
        """Speedup over a given single-GPU time."""
        return single_time_s / self.time_s if self.time_s > 0 else 0.0

    def imbalance(self) -> float:
        """Max/mean per-device compute time (1.0 = perfectly balanced)."""
        if not self.device_times:
            return 1.0
        return max(self.device_times) / max(np.mean(self.device_times), 1e-12)


def partition_rows(
    a: CSR,
    b: CSR,
    n_devices: int,
    *,
    balance: str = "products",
) -> np.ndarray:
    """Row boundaries per device (length ``n_devices + 1``).

    ``balance="rows"`` splits row counts equally; ``balance="products"``
    equalises intermediate-product counts (the lightweight-analysis
    quantity), which is what keeps skewed matrices from serialising on one
    device.
    """
    if n_devices < 1:
        raise ValueError("need at least one device")
    if balance == "rows":
        return np.linspace(0, a.rows, n_devices + 1).astype(np.int64)
    if balance != "products":
        raise ValueError(f"unknown balance mode {balance!r}")
    prods = row_products(a, b).astype(np.float64)
    # weight rows by products plus a small constant so empty rows move too
    weights = prods + 1.0
    cum = np.concatenate([[0.0], np.cumsum(weights)])
    targets = np.linspace(0, cum[-1], n_devices + 1)
    bounds = np.searchsorted(cum, targets[1:-1], side="left")
    out = np.concatenate([[0], bounds, [a.rows]]).astype(np.int64)
    return np.maximum.accumulate(out)


def multigpu_multiply(
    a: CSR,
    b: CSR,
    n_devices: int,
    *,
    device: DeviceSpec = TITAN_V,
    params: SpeckParams = DEFAULT_PARAMS,
    balance: str = "products",
    compute_result: bool = True,
    gather: bool = False,
    faults: Optional[FaultPlan] = None,
    case_name: str = "",
) -> MultiGpuResult:
    """``C = A · B`` across ``n_devices`` row-partitioned simulated GPUs.

    With ``gather=False`` (default) the output stays distributed — the
    paper's "shared matrix storage" vision, appropriate when C feeds the
    next distributed operation.  ``gather=True`` adds the interconnect
    cost of collecting all slabs onto one device.

    A :class:`~repro.faults.FaultPlan` is threaded into every per-device
    run; each device gets its own scope (tagged ``case_name/devN``), so
    rules can target a single device with ``matrix=*/dev2``.  Retryable
    faults go through the engine's own fallback first; a device that
    still fails poisons the whole multiplication, reported with its
    structured ``failure_info``.
    """
    bounds = partition_rows(a, b, n_devices, balance=balance)
    engine = SpeckEngine(device, params)

    # Ring broadcast of B: each link step moves B once; pipelining makes
    # the total ≈ B-bytes regardless of P (plus per-step latency).
    b_bytes = device_csr_bytes(b.rows, b.nnz)
    broadcast_s = (
        0.0
        if n_devices == 1
        else b_bytes / LINK_BW + (n_devices - 1) * LINK_LATENCY
    )

    device_times: List[float] = []
    per_device = []
    slabs: List[CSR] = []
    gather_bytes = 0
    for d in range(n_devices):
        lo, hi = int(bounds[d]), int(bounds[d + 1])
        a_slab = a.select_rows(range(lo, hi))
        if a_slab.rows == 0:
            device_times.append(0.0)
            continue
        ctx = MultiplyContext(a_slab, b)
        ctx.faults = faults
        ctx.case_name = f"{case_name}/dev{d}" if case_name else f"dev{d}"
        res = engine.multiply(a_slab, b, ctx=ctx)
        if not res.valid:
            return MultiGpuResult(
                c=None,
                time_s=float("inf"),
                n_devices=n_devices,
                broadcast_s=broadcast_s,
                gather_s=0.0,
                device_times=device_times,
                valid=False,
                failure=f"device {d}: {res.failure}",
                failure_info=res.failure_info,
            )
        per_device.append(res)
        device_times.append(res.time_s)
        gather_bytes += device_csr_bytes(a_slab.rows, res.c.nnz if res.c else 0)
        if compute_result:
            slabs.append(res.c)

    gather_s = (
        0.0
        if (n_devices == 1 or not gather)
        else gather_bytes / LINK_BW + n_devices * LINK_LATENCY
    )
    c = _stack_rows(slabs, (a.rows, b.cols)) if compute_result else None
    return MultiGpuResult(
        c=c,
        time_s=broadcast_s + (max(device_times) if device_times else 0.0) + gather_s,
        n_devices=n_devices,
        broadcast_s=broadcast_s,
        gather_s=gather_s,
        device_times=device_times,
        per_device=per_device,
    )

