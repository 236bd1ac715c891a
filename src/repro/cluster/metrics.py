"""Fleet metrics: per-node registries rolled up into one cluster view.

Each :class:`~repro.cluster.node.ClusterNode` keeps its own
:class:`~repro.serve.metrics.MetricsRegistry` (the node *is* a complete
single-host service), and the cluster keeps one more for fleet-level
events the nodes cannot see — placements, spills, failover retries,
crashes, plan-replica fetches, end-to-end latency across whichever node
served the request.  :meth:`FleetMetrics.aggregate` merges both views
into the single JSON-stable snapshot that ``cluster-bench --json``
emits: fleet p50/p95/p99, totals summed across nodes, per-node hit
rates and shed counts, and the plan-index replication counters.
"""

from __future__ import annotations

from typing import Dict, List, TYPE_CHECKING

from ..serve.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .router import ClusterRouter

__all__ = ["FleetMetrics"]


class FleetMetrics:
    """The cluster-level registry plus aggregation over node registries."""

    def __init__(self) -> None:
        self.registry = MetricsRegistry()

    # -- recording helpers (thin, named for grepability) -----------------
    def placement(self, how: str) -> None:
        self.registry.counter(
            f"cluster.placed_{how}", f"requests placed via {how}"
        ).inc()

    def retry(self, reason: str) -> None:
        self.registry.counter("cluster.retries", "requests re-placed").inc()
        self.registry.counter(
            f"cluster.retries_{reason}", f"re-placements after {reason}"
        ).inc()

    def crash(self) -> None:
        self.registry.counter("cluster.node_crashes", "whole-node crashes").inc()

    def degrade(self) -> None:
        self.registry.counter(
            "cluster.node_degrades", "transient node degradations"
        ).inc()

    def plan_fetch(self, transfer_s: float) -> None:
        self.registry.counter(
            "cluster.plan_fetches", "plan replicas pulled from peers"
        ).inc()
        self.registry.histogram(
            "cluster.plan_fetch_s", "modelled replica transfer seconds"
        ).observe(transfer_s)

    def brownout(self, mode: str) -> None:
        self.registry.counter(
            f"cluster.brownout_{mode}", f"dispatches planned in {mode} mode"
        ).inc()

    def breaker_transition(self, node: str, state: str) -> None:
        self.registry.counter(
            f"cluster.breaker_{state}", f"breaker transitions into {state}"
        ).inc()
        self.registry.counter(
            f"cluster.breaker_{state}_{node}",
            f"breaker transitions into {state} on {node}",
        ).inc()

    def retry_denied(self) -> None:
        self.registry.counter(
            "cluster.retry_denied", "retries refused by the fleet budget"
        ).inc()

    def scale_up(self) -> None:
        self.registry.counter(
            "cluster.scale_ups", "nodes added by the autoscaler"
        ).inc()

    def scale_down(self) -> None:
        self.registry.counter(
            "cluster.scale_downs", "nodes drained out by the autoscaler"
        ).inc()

    def warm_join(self, plans: int, transfer_s: float) -> None:
        self.registry.counter(
            "cluster.warm_join_plans", "plans hydrated into joining nodes"
        ).inc(plans)
        if transfer_s > 0.0:
            self.registry.histogram(
                "cluster.warm_join_s", "modelled hydration transfer seconds"
            ).observe(transfer_s)

    def proactive_replication(self, transfer_s: float) -> None:
        self.registry.counter(
            "cluster.proactive_replications",
            "hot plans pushed to spill targets ahead of demand",
        ).inc()
        self.registry.histogram(
            "cluster.plan_fetch_s", "modelled replica transfer seconds"
        ).observe(transfer_s)

    def rebalanced(self) -> None:
        self.registry.counter(
            "cluster.rebalanced",
            "queued requests re-placed by a controlled scale-down drain",
        ).inc()

    # ------------------------------------------------------------------
    def aggregate(self, router: "ClusterRouter", now: float) -> Dict[str, object]:
        """The fleet snapshot: cluster registry + rolled-up node stats.

        Covers the router's whole node map in name order: autoscaler
        joiners appear with their counters, and drained nodes stay
        (state ``"drained"``) so their totals survive the rollup.

        Every node-registry counter is summed into
        ``fleet["node_counters"]`` *uniformly* — retry, backoff, brownout
        and any counter a future layer adds ride along without this
        aggregation needing to learn their names.  (Earlier versions
        special-cased a fixed list and silently dropped the rest.)
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
            "cluster": self.registry.snapshot(),
            "plan_index": router.plan_index.snapshot(),
            "nodes": per_node,
            "breakers": router.breaker_snapshot(),
            "retry_budget": router.retry_budget.snapshot(),
            "breaker_rejections": router.breaker_rejections,
        }
