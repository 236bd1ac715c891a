"""Admission control: backpressure and the brownout ladder.

The service degrades *predictably* instead of falling over: when the
request queue is full or the simulated device's memory headroom would be
exhausted by admitting another multiplication, the request is **shed** —
the caller receives a structured :class:`ServiceReject` (reusing the
failure taxonomy of :mod:`repro.faults`) rather than an exception, a
timeout, or an OOM mid-pipeline.

Shedding is the *last* rung, though.  Before load reaches the shed
thresholds the controller walks a **brownout ladder**: as queue depth or
committed memory climbs, cold requests step down from full planning to
progressively cheaper modes (global-LB-fallback planning, then a
dense-free minimal plan) that trade plan quality for immediate headroom
— results stay bit-correct, only the modelled planning effort shrinks.
:meth:`AdmissionController.brownout_mode` maps the instantaneous
pressure to a rung; the service owns what each rung means
(:attr:`~repro.serve.service.SpGEMMService.BROWNOUT_PARAMS`).

The queue bound lives in :class:`AdmissionPolicy`; the other thresholds
are the module constants below.  The controller itself is stateless
apart from shed/brownout counters, so one instance can guard one queue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..faults import FailureInfo
from ..gpu import DeviceSpec

__all__ = [
    "AdmissionPolicy",
    "BrownoutInfo",
    "BROWNOUT_MODES",
    "ServiceReject",
    "AdmissionController",
]

#: The degradation ladder, best rung first.  ``shed`` (the implicit
#: fourth rung) is handled by :meth:`AdmissionController.admit`.
BROWNOUT_MODES = ("full", "lb_fallback", "minimal")

#: Fraction of device memory the service keeps free: a request whose
#: estimated footprint would push the committed total past
#: ``(1 - MEMORY_HEADROOM_FRAC) * capacity`` is shed.
MEMORY_HEADROOM_FRAC = 0.1
#: The blind footprint estimate: this multiple of the input bytes covers
#: inputs, temporaries and C (compaction makes the true output smaller
#: than the products, so a small constant covers the common case).
OUTPUT_FACTOR = 3.0
#: Hint returned with retryable sheds: when the client may retry.
RETRY_AFTER_S = 0.05
#: Pressure at which cold requests plan in ``lb_fallback`` mode, and in
#: ``minimal`` mode.  *Pressure* is the worse of queue depth over the
#: queue bound and committed bytes over the memory limit — how close the
#: service is to its shed thresholds; at 1.0 admission sheds, completing
#: the ladder.
BROWNOUT_LB_FALLBACK_FRAC = 0.5
BROWNOUT_MINIMAL_FRAC = 0.8


@dataclass(frozen=True)
class AdmissionPolicy:
    """Backpressure bound: ``max_queue_depth`` caps queued (admitted, not
    yet started) requests."""

    max_queue_depth: int = 256

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")


@dataclass(frozen=True)
class BrownoutInfo:
    """Structured record of one brownout decision (FailureInfo-style:
    machine-readable, attached to results and metrics rather than
    raised)."""

    mode: str
    pressure: float
    queue_frac: float
    memory_frac: float

    def as_dict(self) -> Dict[str, object]:
        return {
            "mode": self.mode,
            "pressure": round(float(self.pressure), 6),
            "queue_frac": round(float(self.queue_frac), 6),
            "memory_frac": round(float(self.memory_frac), 6),
        }


@dataclass
class ServiceReject:
    """A structured rejection — returned, never raised.

    ``info`` reuses :class:`~repro.faults.FailureInfo` so rejected
    requests flow through the same reporting paths as failed runs;
    ``retryable`` is true for load sheds (the condition clears) and false
    for requests that can never be admitted (too large for the device).
    """

    request_id: int
    reason: str
    info: FailureInfo
    retry_after_s: float = 0.0

    @property
    def retryable(self) -> bool:
        return self.info.retryable

    def as_dict(self) -> Dict[str, object]:
        return {
            "request_id": int(self.request_id),
            "reason": self.reason,
            "retry_after_s": float(self.retry_after_s),
            "info": self.info.as_dict(),
        }


class AdmissionController:
    """Decides, per request, between *admit* and *shed*.

    The scheduler reports committed bytes (inputs of queued + in-flight
    requests) through ``committed_bytes``; the controller compares the
    estimated footprint of each candidate against the remaining headroom
    and the queue bound.
    """

    def __init__(
        self,
        device: DeviceSpec,
        policy: Optional[AdmissionPolicy] = None,
    ) -> None:
        self.device = device
        self.policy = policy or AdmissionPolicy()
        #: Committed bytes allowed before sheds start (the device is
        #: frozen, so this is fixed per controller).
        self.memory_limit = int(
            (1.0 - MEMORY_HEADROOM_FRAC) * device.global_mem_bytes
        )
        self.sheds = 0
        self.shed_reasons: Dict[str, int] = {}
        #: Brownout decisions per rung (``full`` counted too, so the
        #: fractions are readable from the counters alone).
        self.brownout_modes: Dict[str, int] = {}

    # ------------------------------------------------------------------
    def estimate_bytes(
        self, input_bytes: int, footprint: Optional[int] = None
    ) -> int:
        """Conservative device footprint of one request.

        Without ``footprint`` this is the blind :data:`OUTPUT_FACTOR` multiple
        of the input bytes.  Callers holding a sampled estimate
        (:meth:`repro.estimate.RowEstimator.footprint_bound_bytes`) pass
        its confidence bound instead — it already covers inputs, the
        bound-sized output and sort scratch, and is usually far tighter
        than the blind multiple, so estimator-driven admission sheds less
        on memory pressure while staying safe at the bound's confidence.
        The input bytes remain a floor: no request is smaller than its
        operands.
        """
        if footprint is not None:
            return max(int(footprint), int(input_bytes))
        return int(OUTPUT_FACTOR * input_bytes)

    def admit(
        self,
        request_id: int,
        *,
        queue_depth: int,
        input_bytes: int,
        committed_bytes: int,
        footprint: Optional[int] = None,
    ) -> Optional[ServiceReject]:
        """``None`` to admit, a :class:`ServiceReject` to shed.

        ``footprint`` optionally replaces the blind :data:`OUTPUT_FACTOR`
        heuristic with a sampled footprint bound (see
        :meth:`estimate_bytes`).
        """
        est = self.estimate_bytes(input_bytes, footprint)
        if est > self.memory_limit:
            return self._shed(
                request_id,
                "oversized",
                f"request needs ~{est} B, over the {self.memory_limit} B "
                "admission limit on this device",
                retryable=False,
            )
        if queue_depth >= self.policy.max_queue_depth:
            return self._shed(
                request_id,
                "queue_full",
                f"queue depth {queue_depth} at the "
                f"{self.policy.max_queue_depth} bound",
                retryable=True,
            )
        if committed_bytes + est > self.memory_limit:
            return self._shed(
                request_id,
                "memory_pressure",
                f"committed {committed_bytes} B + ~{est} B would pass the "
                f"{self.memory_limit} B headroom threshold",
                retryable=True,
            )
        return None

    # ------------------------------------------------------------------
    def brownout_mode(
        self, *, queue_depth: int, committed_bytes: int
    ) -> BrownoutInfo:
        """The degradation rung for a dispatch under the current load.

        Consulted at dispatch time (not admission time — pressure when
        the request *runs* is what matters) and counted per rung, so the
        metrics show how much of the workload was served degraded.
        """
        queue_frac = queue_depth / self.policy.max_queue_depth
        memory_frac = (
            committed_bytes / self.memory_limit if self.memory_limit else 0.0
        )
        pressure = max(queue_frac, memory_frac)
        if pressure >= BROWNOUT_MINIMAL_FRAC:
            mode = "minimal"
        elif pressure >= BROWNOUT_LB_FALLBACK_FRAC:
            mode = "lb_fallback"
        else:
            mode = "full"
        self.brownout_modes[mode] = self.brownout_modes.get(mode, 0) + 1
        return BrownoutInfo(
            mode=mode,
            pressure=pressure,
            queue_frac=queue_frac,
            memory_frac=memory_frac,
        )

    def _shed(
        self, request_id: int, reason: str, message: str, *, retryable: bool
    ) -> ServiceReject:
        self.sheds += 1
        self.shed_reasons[reason] = self.shed_reasons.get(reason, 0) + 1
        return ServiceReject(
            request_id=request_id,
            reason=reason,
            info=FailureInfo(
                kind="shed",
                stage="admission",
                tag=reason,
                message=message,
                retryable=retryable,
            ),
            retry_after_s=RETRY_AFTER_S if retryable else 0.0,
        )
