"""The settable surface of the serving, fleet and graph layers, pinned.

Each independently settable value multiplies the configurations that
tests and benchmarks would have to cover.  A threshold no caller varies
is a module constant (``admission.OUTPUT_FACTOR``,
``router.BREAKER_WINDOW``, ``autoscaler.SCALE_UP_QUEUE``,
``delta.RECOMPUTE_THRESHOLD``, ...), so adding a knob to one of these
constructors or graph entry points is a deliberate edit of this file.
"""

import dataclasses
import inspect

from repro.apps import build_hierarchy, markov_clustering
from repro.cluster import AutoscalePolicy, ClusterNode, ClusterSpec, RoutingPolicy
from repro.graph import (
    chain_apply,
    incremental_multiply,
    multiply_masked,
    triangle_count,
)
from repro.graph.chain import ChainRunner
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

#: The keyword-only parameters of the graph workloads and the apps built
#: on them (38 in all).  Device and parameters come from the service or
#: engine a caller passes; without either, a default engine runs.
GRAPH_KEYWORDS = {
    ChainRunner.__init__: ("service", "engine", "mode", "faults", "case_name"),
    chain_apply: (
        "service", "engine", "mode", "faults", "case_name", "brownout",
    ),
    multiply_masked: (
        "mode", "service", "engine", "faults", "case_name", "brownout",
        "ctx_cache",
    ),
    triangle_count: ("mode", "service", "engine", "faults", "case_name"),
    incremental_multiply: (
        "service", "engine", "mode", "blast_mode", "faults", "case_name",
        "brownout",
    ),
    markov_clustering: (
        "inflation", "max_iterations", "prune_threshold", "tol", "service",
    ),
    build_hierarchy: ("max_levels", "min_coarse", "service"),
}


def test_config_surface_is_pinned():
    for cls, names in FIELDS.items():
        assert tuple(f.name for f in dataclasses.fields(cls)) == names, cls
    for cls, names in KEYWORDS.items():
        params = inspect.signature(cls.__init__).parameters
        assert tuple(params)[1:] == names, cls


def test_graph_entry_points_are_pinned():
    total = 0
    for fn, names in GRAPH_KEYWORDS.items():
        kwonly = tuple(
            name
            for name, p in inspect.signature(fn).parameters.items()
            if p.kind is inspect.Parameter.KEYWORD_ONLY
        )
        assert kwonly == names, fn
        total += len(kwonly)
    assert total == 38
