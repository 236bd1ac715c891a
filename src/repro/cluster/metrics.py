"""Fleet metrics: per-node registries rolled up into one cluster view.

Each :class:`~repro.cluster.node.ClusterNode` keeps its own
:class:`~repro.serve.metrics.MetricsRegistry` (the node *is* a complete
single-host service), and the cluster keeps one more for the fleet facts
no other layer tallies: crashes, degrades, retries per reason,
rebalanced requests, on-demand plan fetches and every fleet histogram.
The other fleet counters are derived in :meth:`FleetMetrics.aggregate`
from the layer that owns each fact (router placements, node brownout
rungs, breaker transitions, the retry budget, autoscaler events, plan
index pushes), so a counter and its owner cannot disagree.  The merged
snapshot is what ``cluster-bench --json`` emits: fleet p50/p95/p99,
totals summed across nodes, per-node hit rates and shed counts, and the
plan-index replication counters.
"""

from __future__ import annotations

from typing import Dict, List, Optional, TYPE_CHECKING

from ..serve.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .autoscaler import Autoscaler
    from .router import ClusterRouter

__all__ = ["FleetMetrics"]


def _derived_counters(
    router: "ClusterRouter",
    brownouts: Dict[str, int],
    scaler: Optional["Autoscaler"],
) -> Dict[str, int]:
    """The fleet counters read from the layer that owns each fact.

    ``brownouts`` is the per-mode sum of the nodes' ``brownout_modes``:
    fleet nodes dispatch one request at a time, so it is also the
    per-request count.
    """
    out: Dict[str, int] = {
        "cluster.placed_home": router.home_placements,
        "cluster.placed_spill": router.spills,
        "cluster.retries": router.retry_budget.spent,
        "cluster.retry_denied": router.retry_budget.denied,
        "cluster.proactive_replications": router.plan_index.proactive,
    }
    for mode, count in brownouts.items():
        out[f"cluster.brownout_{mode}"] = count
    for node, breaker in sorted(router.breakers.items()):
        for state, count in breaker.transitions.items():
            total = f"cluster.breaker_{state}"
            out[total] = out.get(total, 0) + count
            out[f"cluster.breaker_{state}_{node}"] = count
    if scaler is not None:
        ups = [e for e in scaler.events if e.action == "scale_up"]
        out["cluster.scale_ups"] = len(ups)
        out["cluster.scale_downs"] = len(scaler.events) - len(ups)
    out = {name: count for name, count in out.items() if count}
    if scaler is not None and out.get("cluster.scale_ups"):
        out["cluster.warm_join_plans"] = sum(e.warm_plans for e in ups)
    return out


class FleetMetrics:
    """The cluster-level registry plus aggregation over node registries."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    def aggregate(
        self,
        router: "ClusterRouter",
        now: float,
        scaler: Optional["Autoscaler"] = None,
    ) -> Dict[str, object]:
        """The fleet snapshot: cluster registry + rolled-up node stats.

        Covers the router's whole node map in name order: autoscaler
        joiners appear with their counters, and drained nodes stay
        (state ``"drained"``) so their totals survive the rollup.  The
        cluster counters are the registry's own plus those derived from
        each fact's owner.

        Every node-registry counter is summed into
        ``fleet["node_counters"]`` *uniformly* — retry, backoff, brownout
        and any counter a future layer adds ride along without this
        aggregation needing to learn their names.
        """
        per_node: List[Dict[str, object]] = [
            router.nodes[name].snapshot(now) for name in sorted(router.nodes)
        ]
        hits = sum(int(s["plan_cache"]["hits"]) for s in per_node)
        misses = sum(int(s["plan_cache"]["misses"]) for s in per_node)
        node_counters: Dict[str, int] = {}
        brownouts: Dict[str, int] = {}
        store_totals: Dict[str, int] = {}
        stores_attached = 0
        for s in per_node:
            for cname, value in s["metrics"]["counters"].items():
                node_counters[cname] = node_counters.get(cname, 0) + int(value)
            for mode, count in s["brownout_modes"].items():
                brownouts[mode] = brownouts.get(mode, 0) + int(count)
            if s["plan_store"] is not None:
                stores_attached += 1
                for sname, value in s["plan_store"].items():
                    store_totals[sname] = store_totals.get(sname, 0) + int(value)
        lat = self.registry.histogram(
            "cluster.latency_s", "arrival to completion, fleet-wide"
        )
        cluster = self.registry.snapshot()
        cluster["counters"].update(
            _derived_counters(router, brownouts, scaler)
        )
        return {
            "fleet": {
                "nodes": len(per_node),
                "alive": sum(1 for s in per_node if s["state"] == "up"),
                "latency": lat.snapshot(),
                "plan_hits": hits,
                "plan_misses": misses,
                "hit_rate": hits / (hits + misses) if hits + misses else 0.0,
                "sheds": sum(int(s["sheds"]) for s in per_node),
                "dispatches": sum(int(s["dispatches"]) for s in per_node),
                "brownouts": dict(sorted(brownouts.items())),
                "node_counters": dict(sorted(node_counters.items())),
                "plan_stores": stores_attached,
                "plan_store_totals": dict(sorted(store_totals.items())),
            },
            "cluster": cluster,
            "plan_index": router.plan_index.snapshot(),
            "nodes": per_node,
            "breakers": router.breaker_snapshot(),
            "retry_budget": router.retry_budget.snapshot(),
            "breaker_rejections": router.breaker_rejections,
        }
