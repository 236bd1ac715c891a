"""repro.cluster: sharded multi-node SpGEMM serving in virtual time.

A simulated fleet of serving nodes, each a complete single-host stack
(:class:`~repro.serve.service.SpGEMMService` + admission + metrics) over
its own :class:`~repro.gpu.device.DeviceSpec`.  The cluster layer adds:

- consistent-hash routing on operand structural fingerprints for
  plan-cache affinity, with deterministic power-of-two-choices spill
  when the home node is unhealthy (:mod:`repro.cluster.router`);
- a cluster plan index that lets spilled and failed-over requests fetch
  plan replicas from peers at modelled interconnect cost instead of
  recomputing (:mod:`repro.cluster.plan_index`);
- fault-driven failover — whole-node crashes and transient degradation
  through the :mod:`repro.faults` sites, with hash-ring rebalancing and
  retry of stranded work onto survivors (:mod:`repro.cluster.bench`, the
  fleet's router for :func:`repro.serve.scheduler.run_event_loop`);
- fleet metrics aggregating every node's registry into one snapshot
  (:mod:`repro.cluster.metrics`);
- SLO-driven elasticity — an autoscaler resizing the fleet through the
  ring's join/leave machinery, warm-hydrating joiners and proactively
  replicating the hottest plans (:mod:`repro.cluster.autoscaler`);
- the ``repro cluster-bench`` workload driver, which checks every
  completed response against ``serve-bench``'s independent references
  while measuring throughput scaling (:func:`run_cluster_bench`).
"""

from .autoscaler import AutoscalePolicy, Autoscaler, ScaleEvent
from .bench import ClusterBenchReport, ClusterSpec, build_fleet, run_cluster_bench
from .metrics import FleetMetrics
from .node import ClusterNode, InFlight
from .plan_index import PlanIndex, plan_transfer_s
from .ring import HashRing, stable_hash
from .router import (
    CircuitBreaker,
    ClusterRouter,
    RetryBudget,
    RoutingPolicy,
    request_key,
)

__all__ = [
    "AutoscalePolicy",
    "Autoscaler",
    "CircuitBreaker",
    "ClusterBenchReport",
    "ClusterNode",
    "ClusterRouter",
    "ClusterSpec",
    "FleetMetrics",
    "HashRing",
    "InFlight",
    "PlanIndex",
    "RetryBudget",
    "RoutingPolicy",
    "ScaleEvent",
    "build_fleet",
    "plan_transfer_s",
    "request_key",
    "run_cluster_bench",
    "stable_hash",
]
