"""Elastic fleet management: SLO-driven scaling, warm join, hot-key push.

The fixed fleet of PR 5 has two production gaps under Zipf traffic.
First, load is bursty: a fleet sized for the peak idles between bursts,
and one sized for the mean sheds during them.  The :class:`Autoscaler`
closes this by watching three deterministic signals every virtual-time
tick — mean per-node queue depth, the fleet latency p99 against its SLO,
and the committed-bytes fraction of fleet memory (which, on
estimator-equipped fleets, is the :class:`~repro.estimate.RowEstimator`
footprint *forecast*, not a blind heuristic) — and resizing the fleet
through the existing :class:`~repro.cluster.ring.HashRing` join/leave
machinery.  Only the keys in moved ring arcs change owner, the same
minimal-disruption property the crash path relies on; scale-down *is*
the ``node_crash`` drain path run voluntarily (state ``"drained"``
instead of ``"down"``, queued work re-placed instead of retried, and a
victim is only ever chosen when it has no requests in flight).

Second, one key takes ~40% of hits at Zipf α=1.1, so the node that owns
it saturates while the rest of the fleet adopts its plan reactively,
one spill at a time.  :meth:`Autoscaler.replicate_hot` inverts this:
every tick it rolls the per-key hit counters of all plan caches up
through the :class:`~repro.cluster.plan_index.PlanIndex`, and pushes
replicas of the top-k hottest plans to their ring-successor spill
targets *before* overload arrives.  Pushes ride the same
checksum-verified :meth:`~repro.serve.plan_cache.PlanCache.adopt` path
as every other replica — a stale or corrupted frame is refused, never
trusted.

Warm join ties the two together: a node entering the ring first
hydrates its cache — from its durable :class:`~repro.serve.plan_store.PlanStore`
when one is configured, then from peers via the plan index, hottest keys
first — and only starts taking traffic once the modelled hydration
transfer completes.  A warm joiner serves its first requests as local
plan hits; a cold joiner would pay a just-in-time replica fetch (or a
full cold plan) for each early request.

Everything here is a pure function of fleet state at deterministic
virtual times, so same-seed ``cluster-bench --autoscale`` reports stay
byte-identical, with or without an active fault plan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..serve.scheduler import Request
from .metrics import FleetMetrics
from .node import ClusterNode
from .router import ClusterRouter

__all__ = ["AutoscalePolicy", "Autoscaler", "ScaleEvent"]


#: Minimum virtual seconds between two scale events (flap damping).
COOLDOWN_S = 0.04
#: Mean alive-node queue depth at or above which the fleet scales up.
SCALE_UP_QUEUE = 4.0
#: Mean alive-node queue depth at or below which the fleet scales down.
SCALE_DOWN_QUEUE = 0.25
#: Committed-bytes fraction of fleet memory at or above which the fleet
#: scales up.  On estimator-equipped fleets the committed bytes are
#: sampled footprint bounds — the forecast, not the blind heuristic.
SCALE_UP_MEMORY_FRAC = 0.85
#: Hottest plans a warm join hydrates from peers.
WARM_TOP_K = 8
#: Rolled-up hit count below which a plan is not worth replicating.
REPLICATE_MIN_HITS = 8
#: Desired alive holders per hot plan (home + spill targets).
REPLICATION_FACTOR = 2


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs of the elastic fleet: SLO, bounds, tick and warm join.

    The scale and replication thresholds are the module constants above.
    """

    #: Fleet size bounds; the autoscaler never leaves this range.
    min_nodes: int = 1
    max_nodes: int = 8
    #: Virtual seconds between autoscaler evaluations.
    interval_s: float = 0.02
    #: Latency SLO: fleet p99 above this requests a scale-up.
    target_p99_s: float = 0.2
    #: Hydrate joining nodes from the plan store / plan index before
    #: they take traffic (the warm-join path).
    warm_join: bool = True
    #: Hottest plans proactively replicated each tick.
    replicate_top_k: int = 4

    def __post_init__(self) -> None:
        if not (1 <= self.min_nodes <= self.max_nodes):
            raise ValueError("need 1 <= min_nodes <= max_nodes")
        if self.interval_s <= 0:
            raise ValueError("interval_s must be positive")


@dataclass
class ScaleEvent:
    """One membership change the autoscaler made (report material)."""

    t_s: float
    action: str  # "scale_up" | "scale_down"
    node: str
    reason: str
    #: Plans hydrated into the joiner before it took traffic (ups only).
    warm_plans: int = 0
    #: Modelled interconnect seconds the hydration transfers cost.
    transfer_s: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "t_s": self.t_s,
            "action": self.action,
            "node": self.node,
            "reason": self.reason,
            "warm_plans": self.warm_plans,
            "transfer_s": self.transfer_s,
        }


class Autoscaler:
    """Resizes a :class:`~repro.cluster.router.ClusterRouter`'s fleet.

    Parameters
    ----------
    router:
        The fleet being managed; joins and leaves go through its ring.
    policy:
        Thresholds and bounds.
    node_factory:
        ``(name, index) -> ClusterNode`` building a fully-wired node
        (device cycling, fault scope, plan store attachment); the bench
        owns construction so the autoscaler stays policy-only.
    p99_s:
        Zero-argument callable returning the fleet's current latency
        p99 in virtual seconds (cumulative over the run: this signal
        can only *raise* pressure, so scale-down keys off queues alone).
    metrics:
        Fleet metrics that receive the hydration and push transfer
        histograms.  The scale counts are :attr:`events`, and the push
        count is the plan index's ``proactive``.
    """

    def __init__(
        self,
        router: ClusterRouter,
        policy: AutoscalePolicy,
        node_factory: Callable[[str, int], ClusterNode],
        p99_s: Optional[Callable[[], float]] = None,
        metrics: Optional["FleetMetrics"] = None,
    ) -> None:
        self.router = router
        self.policy = policy
        self.node_factory = node_factory
        self.p99_s = p99_s or (lambda: 0.0)
        self.metrics = metrics
        self.next_eval_s = policy.interval_s
        self.last_scale_s = float("-inf")
        self.events: List[ScaleEvent] = []
        #: Names of nodes this autoscaler added, in join order.
        self.joined: List[str] = []
        #: Names of nodes this autoscaler drained out, in leave order.
        self.drained: List[str] = []
        self._next_index = 1 + max(
            (_node_index(n) for n in router.nodes), default=-1
        )

    # ------------------------------------------------------------------
    def due(self, now: float) -> bool:
        return now >= self.next_eval_s

    def evaluate(self, now: float) -> List[Request]:
        """One autoscaler tick: replicate hot plans, then maybe resize.

        Returns the queued requests stranded by a scale-down, for the
        caller to re-place (``[]`` otherwise).  Advances the internal
        tick clock past ``now`` so the event loop can use
        :attr:`next_eval_s` as a virtual-time event.
        """
        while self.next_eval_s <= now:
            self.next_eval_s += self.policy.interval_s
        self.replicate_hot(now)
        alive = self.router.alive_nodes()
        if not alive or now < self.last_scale_s + COOLDOWN_S:
            return []
        mean_queue = sum(n.queue_depth for n in alive) / len(alive)
        committed = sum(n.committed for n in alive)
        limit = sum(n.admission.memory_limit for n in alive)
        mem_frac = committed / limit if limit else 0.0
        p99 = self.p99_s()
        reason = None
        if mean_queue >= SCALE_UP_QUEUE:
            reason = f"queue_depth {mean_queue:.1f}"
        elif p99 > self.policy.target_p99_s:
            reason = f"p99 {p99:.4f}s over SLO"
        elif mem_frac >= SCALE_UP_MEMORY_FRAC:
            reason = f"memory {mem_frac:.2f} committed"
        if reason is not None:
            if len(alive) < self.policy.max_nodes:
                self.scale_up(now, reason)
            return []
        inflight_free = [n for n in alive if not n.inflight]
        if (
            mean_queue <= SCALE_DOWN_QUEUE
            and len(alive) > self.policy.min_nodes
            and inflight_free
        ):
            return self.scale_down(now, f"queue_depth {mean_queue:.2f}")
        return []

    # ------------------------------------------------------------------
    def scale_up(self, now: float, reason: str) -> ClusterNode:
        """Add one node: build, warm-hydrate, then join the ring."""
        name = f"node-{self._next_index}"
        node = self.node_factory(name, self._next_index)
        self._next_index += 1
        node.joined_at_s = now
        warm_plans, transfer_s = 0, 0.0
        if self.policy.warm_join:
            warm_plans, transfer_s = self.hydrate(node)
        # The joiner takes no traffic until its hydration transfer has
        # completed: every stream starts busy until then.
        node.workers = [now + transfer_s] * len(node.workers)
        self.router.add_node(node)
        self.joined.append(name)
        self.last_scale_s = now
        self.events.append(
            ScaleEvent(now, "scale_up", name, reason, warm_plans, transfer_s)
        )
        if self.metrics is not None and transfer_s > 0.0:
            self.metrics.registry.histogram(
                "cluster.warm_join_s", "modelled hydration transfer seconds"
            ).observe(transfer_s)
        return node

    def hydrate(self, node: ClusterNode) -> Tuple[int, float]:
        """Warm a joining node's cache before it enters the ring.

        Disk first (the node's :class:`~repro.serve.plan_store.PlanStore`
        was already replayed by the factory via ``attach_plan_store``;
        those plans cost no interconnect), then the hottest indexed
        plans from peers — each pulled through
        :meth:`~repro.cluster.plan_index.PlanIndex.fetch`, i.e. the
        hardened checksum + compat verified adopt path.  Returns
        ``(plans_adopted_from_peers, modelled_transfer_seconds)``.
        """
        index = self.router.plan_index
        keys = index.hot_keys(self.router.nodes, k=WARM_TOP_K, min_hits=1)
        adopted = 0
        total_s = 0.0
        for key in keys:
            if node.service.plans.peek(key) is not None:
                continue  # already warm from the durable store
            plan, transfer_s = index.fetch(key, node, self.router.nodes)
            if plan is not None:
                adopted += 1
                total_s += transfer_s
        return adopted, total_s

    # ------------------------------------------------------------------
    def scale_down(self, now: float, reason: str) -> List[Request]:
        """Retire one node through the controlled ``node_crash`` path.

        The victim is the shallowest-queue node with nothing in flight
        (youngest joiner on ties, so elasticity unwinds in join order);
        its arcs fall to ring successors exactly as a crash's would, and
        its queued requests come back for re-placement — conservation
        holds because a drain strands work, never drops it.  The node
        stays in the router's node map as ``"drained"`` so its counters
        survive into the fleet rollup.
        """
        candidates = [
            n
            for n in self.router.alive_nodes()
            if not n.inflight
        ]
        if not candidates or len(self.router.alive_nodes()) <= self.policy.min_nodes:
            return []
        victim = min(
            candidates,
            key=lambda n: (n.queue_depth, -_node_index(n.name), n.name),
        )
        stranded = self.router.mark_down(victim, state="drained")
        self.drained.append(victim.name)
        self.last_scale_s = now
        self.events.append(ScaleEvent(now, "scale_down", victim.name, reason))
        return stranded

    # ------------------------------------------------------------------
    def replicate_hot(self, now: float) -> int:
        """Push the top-k hottest plans to their spill targets.

        For each hot key short of :data:`REPLICATION_FACTOR` alive
        holders, the replica goes to the first ring-preference
        successors that lack it — the exact nodes the router's
        power-of-two spill will favour under overload, so the plan is
        already local when the hot key's traffic spills.  Returns how
        many replicas were pushed this tick.
        """
        index = self.router.plan_index
        ring = self.router.ring
        pushed = 0
        hot = index.hot_keys(
            self.router.nodes,
            k=self.policy.replicate_top_k,
            min_hits=REPLICATE_MIN_HITS,
        )
        for key in hot:
            holders = [
                h
                for h in index.holders(key)
                if h in self.router.nodes and self.router.nodes[h].alive
            ]
            if not holders or len(holders) >= REPLICATION_FACTOR:
                continue
            source = self.router.nodes[holders[0]]
            ring_key = "|".join(key)
            for target_name in ring.preference(ring_key, REPLICATION_FACTOR + 1):
                if len(holders) >= REPLICATION_FACTOR:
                    break
                if target_name in holders:
                    continue
                target = self.router.nodes.get(target_name)
                if target is None or not target.alive:
                    continue
                ok, transfer_s = index.replicate(key, source, target)
                if ok:
                    holders.append(target_name)
                    pushed += 1
                    if self.metrics is not None:
                        self.metrics.registry.histogram(
                            "cluster.plan_fetch_s",
                            "modelled replica transfer seconds",
                        ).observe(transfer_s)
        return pushed

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        return {
            "scale_ups": sum(1 for e in self.events if e.action == "scale_up"),
            "scale_downs": sum(
                1 for e in self.events if e.action == "scale_down"
            ),
            "joined": list(self.joined),
            "drained": list(self.drained),
            "warm_join_plans": sum(e.warm_plans for e in self.events),
            "proactive_replications": self.router.plan_index.proactive,
            "events": [e.as_dict() for e in self.events],
        }


def _node_index(name: str) -> int:
    """The numeric suffix of ``node-N`` names (-1 for foreign names)."""
    _, _, tail = name.rpartition("-")
    return int(tail) if tail.isdigit() else -1
