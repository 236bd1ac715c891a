"""One serving node of the cluster: a `ServeScheduler` plus fleet state.

A :class:`ClusterNode` *is* the single-host scheduler from
:mod:`repro.serve.scheduler` — service (engine + plan cache + metrics),
admission controller, request queue, simulated device streams
(busy-until times in virtual seconds) and committed bytes over one
:class:`~repro.gpu.device.DeviceSpec` — plus the state the cluster layer
needs: a name, health (`up`/`down`/`drained`, plus a degraded-until
horizon), the per-node :class:`~repro.faults.FaultScope` that drives
crash/degrade injection, the first-100 warm-join window and an optional
durable plan store.

Nodes hold state only.  The one event loop that moves virtual time is
:func:`repro.serve.scheduler.run_event_loop`, which
:func:`repro.cluster.bench._run_fleet` drives over the fleet; placement
policy lives in :mod:`repro.cluster.router`.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from ..core.params import DEFAULT_PARAMS, SpeckParams
from ..estimate import RowEstimator
from ..faults import FaultPlan, FaultScope, null_scope
from ..gpu import DeviceSpec
from ..serve.admission import AdmissionPolicy
from ..serve.scheduler import InFlight, Request, ServeScheduler
from ..serve.service import SpGEMMService

__all__ = ["ClusterNode", "InFlight"]


class ClusterNode(ServeScheduler):
    """One member of the serving fleet.

    Parameters mirror :class:`~repro.serve.service.SpGEMMService` /
    :class:`~repro.serve.admission.AdmissionPolicy`; ``n_workers`` is the
    number of simulated device streams draining this node's queue.
    ``estimate`` gives the node a :class:`~repro.estimate.RowEstimator`
    (sampled footprint bounds for admission and routing);
    ``speculative`` additionally plans cold requests from the estimates
    (and implies ``estimate``).  Fleet nodes dispatch one request at a
    time in (priority, arrival) order: no same-A batching, and no
    estimated-cost ordering, which raises the fleet's p99.
    """

    def __init__(
        self,
        name: str,
        device: DeviceSpec,
        params: SpeckParams = DEFAULT_PARAMS,
        *,
        n_workers: int = 2,
        plan_cache_bytes: int = 256 * 1024 * 1024,
        policy: Optional[AdmissionPolicy] = None,
        estimate: bool = False,
        speculative: bool = False,
    ) -> None:
        estimator = RowEstimator(device) if (estimate or speculative) else None
        service = SpGEMMService(
            device,
            params,
            plan_cache_bytes=plan_cache_bytes,
            speculative=speculative,
            estimator=estimator,
        )
        super().__init__(
            service,
            n_workers=n_workers,
            policy=policy,
            max_batch=1,
            estimator=estimator,
        )
        self.order_by_cost = False
        self.name = name
        self.device = device
        self.state = "up"  # "up" | "down" | "drained"
        self.degraded_until = 0.0
        #: Dispatches attempted on this node (the fault sites' counter).
        self.dispatches = 0
        #: Virtual time this node entered the ring (0.0 for founders).
        self.joined_at_s = 0.0
        #: Served-request window for the warm-join signal: of this
        #: node's first 100 dispatched requests, how many were *local*
        #: plan hits — a hit served without a just-in-time replica
        #: fetch.  A warm-joined node starts high (hydration made the
        #: hot plans local before traffic arrived); a cold joiner pays a
        #: fetch or a cold plan for each early request.
        self.first_100_served = 0
        self.first_100_local_hits = 0
        self.scope: FaultScope = null_scope(name, "cluster")

    # ------------------------------------------------------------------
    def bind_faults(self, plan: Optional[FaultPlan]) -> None:
        """Attach the run's fault plan; node rules key on this node's name."""
        self.faults = plan
        self.scope = (
            plan.scope(self.name, "cluster") if plan is not None else null_scope(self.name)
        )

    def attach_plan_store(
        self, directory: str, faults: Optional[FaultPlan] = None
    ) -> int:
        """Bind a durable plan store under ``directory/<node-name>``.

        Returns the number of plans warm-adopted from a previous run.
        The store's fault scope carries this node's name, so
        ``disk_corrupt@node-1`` in a fault spec targets node 1's WAL.
        """
        from ..serve.plan_store import PlanStore

        store = PlanStore(
            os.path.join(directory, self.name), name=self.name, faults=faults
        )
        return self.service.attach_plan_store(store)

    @property
    def alive(self) -> bool:
        return self.state == "up"

    def degraded(self, now: float) -> bool:
        return now < self.degraded_until

    @property
    def plan_compat(self) -> str:
        """Plans transfer only between nodes with identical device+params
        (binning and kernel-config decisions are device-derived).  The
        same :func:`~repro.serve.plan_ir.compat_key` string the service
        stamps on persisted plans, so disk and wire use one notion of
        compatibility."""
        return self.service.compat

    # ------------------------------------------------------------------
    def note_served(self, *, hit: bool, fetched: bool) -> None:
        """Fold one dispatch into the first-100 local-hit window."""
        if self.first_100_served < 100:
            self.first_100_served += 1
            if hit and not fetched:
                self.first_100_local_hits += 1

    @property
    def first_100_hit_rate(self) -> float:
        if self.first_100_served == 0:
            return 0.0
        return self.first_100_local_hits / self.first_100_served

    def drain_for_failover(self) -> List[Request]:
        """Crash handling: strip all queued + in-flight requests.

        Returns them for rerouting; their committed bytes are released
        and the streams cleared.  The caller marks the node down.
        """
        stranded = [inf.request for inf in self.inflight] + list(self.queue)
        self.reset()
        return stranded

    # ------------------------------------------------------------------
    def snapshot(self, now: float) -> Dict[str, object]:
        """Per-node slice of the fleet report (JSON-stable ordering)."""
        metrics = self.service.snapshot()
        plan_cache = metrics.pop("plan_cache")
        del plan_cache["per_key_hits"]
        return {
            "name": self.name,
            "device": self.device.name,
            "state": self.state,
            "degraded": self.degraded(now),
            "workers": len(self.workers),
            "dispatches": self.dispatches,
            "joined_at_s": self.joined_at_s,
            "first_100_hit_rate": self.first_100_hit_rate,
            "queue_depth": self.queue_depth,
            "sheds": self.admission.sheds,
            "shed_reasons": dict(sorted(self.admission.shed_reasons.items())),
            "plan_cache": plan_cache,
            "brownout_modes": dict(sorted(self.admission.brownout_modes.items())),
            "plan_store": metrics.pop("plan_store", None),
            "metrics": metrics,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClusterNode({self.name!r}, {self.device.name!r}, "
            f"state={self.state!r}, queue={self.queue_depth})"
        )
