"""The settable surface of the serving and fleet layers, pinned.

Each independently settable value multiplies the configurations that
tests and benchmarks would have to cover.  A threshold no caller varies
is a module constant (``admission.OUTPUT_FACTOR``,
``router.BREAKER_WINDOW``, ``autoscaler.SCALE_UP_QUEUE``, ...), so adding
a knob to one of these constructors is a deliberate edit of this file.
"""

import dataclasses
import inspect

from repro.cluster import AutoscalePolicy, ClusterNode, ClusterSpec, RoutingPolicy
from repro.serve import (
    AdmissionPolicy,
    ServeScheduler,
    SpGEMMService,
    WorkloadSpec,
)

FIELDS = {
    AdmissionPolicy: ("max_queue_depth",),
    RoutingPolicy: ("spill_queue_depth", "seed", "replicate_plans"),
    AutoscalePolicy: (
        "min_nodes", "max_nodes", "interval_s", "target_p99_s", "warm_join",
        "replicate_top_k",
    ),
    ClusterSpec: (
        "n_nodes", "devices", "workers_per_node", "plan_cache_mb",
        "queue_depth", "spill_queue_depth", "replicate_plans", "seed",
        "plan_store_dir", "estimate", "speculative", "autoscale",
        "min_nodes", "max_nodes", "warm_join", "scale_interval_s",
        "target_p99_s", "replicate_top_k",
    ),
    WorkloadSpec: (
        "rate", "duration_s", "zipf_alpha", "timeout_s", "seed", "workload",
        "chain_length", "mask_density", "delta_frac",
    ),
}

KEYWORDS = {
    ServeScheduler: (
        "service", "n_workers", "policy", "max_batch", "default_timeout_s",
        "faults", "estimator",
    ),
    SpGEMMService: (
        "device", "params", "plan_cache_bytes", "context_cache_entries",
        "plan_store", "speculative", "estimator",
    ),
    ClusterNode: (
        "name", "device", "params", "n_workers", "plan_cache_bytes", "policy",
        "estimate", "speculative",
    ),
}


def test_config_surface_is_pinned():
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls
    for cls, names in KEYWORDS.items():
        params = inspect.signature(cls.__init__).parameters
        assert tuple(params)[1:] == names, cls
