"""Partitioned SpGEMM: multiplying matrices larger than device memory.

The paper's stated limitation (§7) is that A, B and C must all fit in
device memory simultaneously; it names "partial multiplications of large
matrices on single GPUs" as future work.  This module implements that
extension on the simulator:

``C = A · B`` is computed in horizontal slabs of A.  Each slab's rows are
chosen so that the slab of A, all of B, and the slab's output stay under a
memory budget; each slab runs through the full spECK pipeline (paying its
own analysis / balancing / transfer costs), and the slab outputs
concatenate directly into C because row partitioning preserves CSR order.

The planner uses exactly the information the real system would have ahead
of time: B's row lengths and A's structure give the per-row product counts
(the paper's own conservative upper bound for the output slab size), so
slab boundaries are computed with one O(NNZ_A) pass before any
multiplication happens.
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
from ..matrices.csr import CSR, INDEX_DTYPE, csr_zeros
from ..result import SpGEMMResult

__all__ = [
    "SlabPlan",
    "plan_slabs",
    "partitioned_multiply",
    "PartitionedResult",
    "TRANSFER_BW",
    "TRANSFER_LATENCY",
]

#: PCIe-class host-device transfer bandwidth, bytes/second.  Shared with
#: the cluster layer's modelled cross-host fallback transfers.
TRANSFER_BW = 12.0e9
#: Fixed latency of one host-device transfer, seconds.
TRANSFER_LATENCY = 10.0e-6

# Backwards-compatible aliases (pre-cluster private names).
_TRANSFER_BW = TRANSFER_BW
_TRANSFER_LATENCY = TRANSFER_LATENCY


@dataclass
class SlabPlan:
    """Row ranges of A processed per device pass."""

    boundaries: np.ndarray  # length n_slabs + 1
    budget_bytes: int

    @property
    def n_slabs(self) -> int:
        return int(self.boundaries.size - 1)

    def slab(self, i: int) -> tuple[int, int]:
        return int(self.boundaries[i]), int(self.boundaries[i + 1])


@dataclass
class PartitionedResult:
    """Outcome of a partitioned multiplication."""

    c: Optional[CSR]
    time_s: float
    n_slabs: int
    peak_mem_bytes: int
    transfer_s: float
    compute_s: float
    per_slab: List[SpGEMMResult] = field(default_factory=list)
    valid: bool = True
    failure: str = ""
    #: Structured failure taxonomy of the failing slab's run (or of the
    #: planner, ``kind="limitation"``), when any.
    failure_info: Optional[FailureInfo] = None


def plan_slabs(
    a: CSR,
    b: CSR,
    budget_bytes: int,
) -> SlabPlan:
    """Greedy slab planner under a device-memory budget.

    Per slab the device must hold: the slab of A, all of B, and (upper
    bound) one output entry per intermediate product.  Rows whose solo
    upper bound exceeds the budget still get their own slab — the output
    bound is conservative (compaction only shrinks it), matching the
    paper's conservative sizing philosophy.
    """
    if budget_bytes <= 0:
        raise ValueError("budget must be positive")
    b_bytes = device_csr_bytes(b.rows, b.nnz)
    if b_bytes >= budget_bytes:
        raise ValueError(
            f"B alone ({b_bytes} B) exceeds the budget ({budget_bytes} B); "
            "column partitioning of B is not implemented"
        )
    avail = budget_bytes - b_bytes
    prods = row_products(a, b)
    a_nnz = a.row_nnz()
    # Per-row worst-case bytes: A row + C row upper bound.
    per_row = 12 * a_nnz + 12 * prods + 16
    boundaries = [0]
    acc = 0
    for i in range(a.rows):
        cost = int(per_row[i])
        if acc > 0 and acc + cost > avail:
            boundaries.append(i)
            acc = 0
        acc += cost
    boundaries.append(a.rows)
    return SlabPlan(
        boundaries=np.unique(np.array(boundaries, dtype=np.int64)),
        budget_bytes=budget_bytes,
    )


def partitioned_multiply(
    a: CSR,
    b: CSR,
    *,
    device: DeviceSpec = TITAN_V,
    params: SpeckParams = DEFAULT_PARAMS,
    budget_bytes: Optional[int] = None,
    compute_result: bool = True,
    faults: Optional[FaultPlan] = None,
    case_name: str = "",
) -> PartitionedResult:
    """``C = A · B`` in device-memory-bounded slabs of A.

    ``budget_bytes`` defaults to the device's global memory.  Each slab
    pays its transfer (slab of A in, slab of C out; B is uploaded once)
    and a full spECK invocation.

    A :class:`~repro.faults.FaultPlan` is threaded into every slab run;
    each slab gets its own scope (tagged ``case_name/slabN``), so rules
    can target one slab with ``matrix=*/slab1``.  Retryable faults go
    through the engine's fallback first; a slab that still fails poisons
    the whole multiplication, reported with its structured
    ``failure_info``.
    """
    budget = int(budget_bytes if budget_bytes is not None else device.global_mem_bytes)
    try:
        plan = plan_slabs(a, b, budget)
    except ValueError as err:
        return PartitionedResult(
            c=None,
            time_s=float("inf"),
            n_slabs=0,
            peak_mem_bytes=0,
            transfer_s=0.0,
            compute_s=0.0,
            valid=False,
            failure=str(err),
            failure_info=FailureInfo(
                kind="limitation",
                stage="slab_planning",
                tag=case_name,
                message=str(err),
                retryable=False,
            ),
        )

    engine = SpeckEngine(device, params)
    b_bytes = device_csr_bytes(b.rows, b.nnz)
    transfer_s = b_bytes / _TRANSFER_BW + _TRANSFER_LATENCY
    compute_s = 0.0
    peak = 0
    per_slab: List[SpGEMMResult] = []
    slab_outputs: List[CSR] = []

    for s in range(plan.n_slabs):
        lo, hi = plan.slab(s)
        a_slab = a.select_rows(range(lo, hi))
        ctx = MultiplyContext(a_slab, b)
        ctx.faults = faults
        ctx.case_name = f"{case_name}/slab{s}" if case_name else f"slab{s}"
        res = engine.multiply(a_slab, b, ctx=ctx)
        if not res.valid:
            return PartitionedResult(
                c=None,
                time_s=float("inf"),
                n_slabs=plan.n_slabs,
                peak_mem_bytes=peak,
                transfer_s=transfer_s,
                compute_s=compute_s,
                per_slab=per_slab,
                valid=False,
                failure=f"slab {s}: {res.failure}",
                failure_info=res.failure_info,
            )
        per_slab.append(res)
        compute_s += res.time_s
        slab_bytes = device_csr_bytes(a_slab.rows, a_slab.nnz)
        out_bytes = device_csr_bytes(a_slab.rows, res.c.nnz if res.c else 0)
        transfer_s += (slab_bytes + out_bytes) / _TRANSFER_BW + 2 * _TRANSFER_LATENCY
        peak = max(peak, b_bytes + slab_bytes + res.peak_mem_bytes)
        if compute_result:
            slab_outputs.append(res.c)

    c = _stack_rows(slab_outputs, (a.rows, b.cols)) if compute_result else None
    return PartitionedResult(
        c=c,
        time_s=transfer_s + compute_s,
        n_slabs=plan.n_slabs,
        peak_mem_bytes=peak,
        transfer_s=transfer_s,
        compute_s=compute_s,
        per_slab=per_slab,
    )


def _stack_rows(parts: List[CSR], shape: tuple[int, int]) -> CSR:
    """Vertically concatenate row slabs (they tile the row range in order)."""
    if not parts:
        return csr_zeros(shape)
    indptr = [np.zeros(1, dtype=INDEX_DTYPE)]
    offset = 0
    for p in parts:
        indptr.append(p.indptr[1:] + offset)
        offset += p.nnz
    return CSR(
        np.concatenate(indptr),
        np.concatenate([p.indices for p in parts]),
        np.concatenate([p.data for p in parts]),
        shape,
        check=False,
    )
