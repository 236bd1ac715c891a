"""Request placement: plan-cache affinity first, load awareness second.

The router's contract balances two forces that pull in opposite
directions.  Plan-cache hit rate wants *affinity*: every request for a
structure should land on the same node, so one cold analysis serves the
whole stream.  Tail latency under skew wants *spreading*: a Zipf-hot
structure routed strictly by hash turns its home node into a hotspot
while the rest of the fleet idles.

Placement therefore proceeds in two steps:

1. **Home by consistent hash.**  The request key is the pair of operand
   structural fingerprints (exactly the plan-cache key), routed on the
   :class:`~repro.cluster.ring.HashRing` of *alive* nodes.  While the
   home is healthy, affinity wins and the stream stays cache-hot.
2. **Power-of-two-choices spill.**  When the home is unhealthy — down,
   degraded, queue deeper than ``spill_queue_depth``, or without memory
   headroom for this request (the same conservative footprint estimate
   the :class:`~repro.serve.admission.AdmissionController` sheds on) —
   the router draws two deterministic candidates from the alive fleet
   and dispatches to the shorter queue.  Two random choices are the
   classical exponential improvement over one; determinism comes from
   hashing ``(seed, request id, attempt)`` rather than sampling an RNG,
   so a re-run of the same workload makes identical decisions.

A spilled request pays a plan-replica fetch (see
:class:`~repro.cluster.plan_index.PlanIndex`) instead of a cold
recompute whenever a compatible peer holds the plan.

**Circuit breakers** make unhealthiness *sticky*: instead of re-probing
a misbehaving node on every placement (the previous instant
degraded-spill check), each node carries a :class:`CircuitBreaker` over
a rolling window of its recent outcomes.  Enough failures open the
breaker and the router stops routing there; after a deterministic
virtual-time cooldown the breaker half-opens and admits exactly one
probe — success closes it, failure re-opens it for another cooldown.
A fleet-wide :class:`RetryBudget` caps how many retries the cluster may
spend relative to traffic served, so a sick node cannot amplify itself
into a retry storm.

Membership changes route through :meth:`ClusterRouter.mark_down`: the
crashed node leaves the ring (its arcs fall to ring successors — only
its keys move), the plan index forgets its replicas, and its stranded
requests are handed back for re-placement on the survivors.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from ..serve.scheduler import Request
from .node import ClusterNode
from .plan_index import PlanIndex
from .ring import HashRing, stable_hash

__all__ = [
    "CircuitBreaker",
    "RetryBudget",
    "RoutingPolicy",
    "ClusterRouter",
    "request_key",
]


#: Rolling outcome window of a node's circuit breaker: only the most
#: recent ``BREAKER_WINDOW`` dispatch outcomes count toward opening.
BREAKER_WINDOW = 16
#: Failures within the window that open the breaker.
BREAKER_FAILURE_THRESHOLD = 4
#: Virtual seconds an open breaker blocks placements before half-opening
#: for a probe.  Deterministic: same workload, same transition times.
BREAKER_COOLDOWN_S = 0.05
#: The fleet-wide retry budget: ``RETRY_MIN_TOKENS + RETRY_RATIO *
#: requests_seen`` retries over the run so far.
RETRY_MIN_TOKENS = 10
RETRY_RATIO = 0.2


class CircuitBreaker:
    """closed → open → half_open → {closed, open} over virtual time.

    The router consults :meth:`can_accept` during placement and calls
    :meth:`on_dispatch` once a node is chosen (this is where the
    open→half_open transition happens, and where the single half-open
    probe slot is claimed).  The bench loop reports each dispatch's fate
    through :meth:`record`.  Thresholds are the ``BREAKER_*`` constants.
    """

    def __init__(self) -> None:
        self.state = "closed"
        self.opened_at = 0.0
        self.probe_inflight = False
        self._window: Deque[bool] = deque(maxlen=BREAKER_WINDOW)
        #: Entries into each state over the breaker's lifetime.
        self.transitions: Dict[str, int] = {}

    def _transition(self, state: str, now: float) -> None:
        if state == self.state:
            return
        self.state = state
        self.transitions[state] = self.transitions.get(state, 0) + 1
        self.probe_inflight = False
        if state == "open":
            self.opened_at = now
        elif state == "closed":
            self._window.clear()

    # -- router-facing -----------------------------------------------------
    def can_accept(self, now: float) -> bool:
        if self.state == "closed":
            return True
        if self.state == "open":
            return now >= self.opened_at + BREAKER_COOLDOWN_S
        return not self.probe_inflight  # half_open: one probe at a time

    def on_dispatch(self, now: float) -> None:
        """The router placed a request here; claim the probe slot."""
        if self.state == "open" and now >= self.opened_at + BREAKER_COOLDOWN_S:
            self._transition("half_open", now)
        if self.state == "half_open":
            self.probe_inflight = True

    def record(self, ok: bool, now: float) -> None:
        """Fold one dispatch outcome into the breaker state."""
        if self.state == "half_open":
            # The probe decides alone: the pre-open window is stale.
            self._transition("closed" if ok else "open", now)
            return
        self._window.append(ok)
        if self.state == "closed":
            failures = sum(1 for o in self._window if not o)
            if failures >= BREAKER_FAILURE_THRESHOLD:
                self._transition("open", now)

    def snapshot(self) -> Dict[str, object]:
        return {
            "state": self.state,
            "opens": self.transitions.get("open", 0),
            "half_opens": self.transitions.get("half_open", 0),
            "closes": self.transitions.get("closed", 0),
        }


class RetryBudget:
    """Fleet-wide cap on retries relative to traffic actually served.

    The budget allows ``RETRY_MIN_TOKENS + RETRY_RATIO * requests_seen``
    retries over the run so far; a denied :meth:`try_spend` means the
    request fails terminally instead of feeding a retry storm.  All
    integer/deterministic.
    """

    def __init__(self) -> None:
        self.requests_seen = 0
        self.spent = 0
        self.denied = 0

    def note_request(self) -> None:
        self.requests_seen += 1

    @property
    def allowance(self) -> int:
        return RETRY_MIN_TOKENS + int(RETRY_RATIO * self.requests_seen)

    def try_spend(self) -> bool:
        if self.spent < self.allowance:
            self.spent += 1
            return True
        self.denied += 1
        return False

    def snapshot(self) -> Dict[str, int]:
        return {
            "allowance": self.allowance,
            "spent": self.spent,
            "denied": self.denied,
        }


def request_key(req: Request) -> str:
    """The placement key: structural fingerprints of both operands.

    Identical to the plan-cache key, which is the whole point — routing
    affinity and cache affinity coincide.
    """
    return f"{req.a.fingerprint()}|{req.b.fingerprint()}"


@dataclass(frozen=True)
class RoutingPolicy:
    """Thresholds and knobs of the placement policy."""

    #: Home queue depth at which requests start spilling to peers.
    spill_queue_depth: int = 8
    #: Salt of the deterministic power-of-two candidate draws.
    seed: int = 0
    #: Fetch plan replicas from peers for spilled/failover requests.
    replicate_plans: bool = True

    def __post_init__(self) -> None:
        if self.spill_queue_depth < 1:
            raise ValueError("spill_queue_depth must be >= 1")


class ClusterRouter:
    """Places requests onto a fleet of :class:`ClusterNode`."""

    def __init__(
        self,
        nodes: Dict[str, ClusterNode],
        policy: Optional[RoutingPolicy] = None,
    ) -> None:
        if not nodes:
            raise ValueError("a cluster needs at least one node")
        self.nodes = dict(sorted(nodes.items()))
        self.policy = policy or RoutingPolicy()
        self.ring = HashRing(self.nodes)
        self.plan_index = PlanIndex()
        self.spills = 0
        self.home_placements = 0
        self.breakers: Dict[str, CircuitBreaker] = {
            name: CircuitBreaker() for name in self.nodes
        }
        self.retry_budget = RetryBudget()
        #: Placements refused because a target's breaker was open.
        self.breaker_rejections = 0

    # ------------------------------------------------------------------
    def alive_nodes(self) -> List[ClusterNode]:
        return [n for n in self.nodes.values() if n.alive]

    def healthy(self, node: ClusterNode, now: float, est_bytes: int) -> bool:
        """Is ``node`` a good home for a request of ``est_bytes`` now?

        Stricter than admission (which sheds): an unhealthy-but-admitting
        node is exactly the case where spilling beats queueing.  Degraded
        nodes are *not* instantly bypassed any more — their slow or failed
        dispatches feed the circuit breaker, which opens after the rolling
        window fills with failures and keeps traffic away for a cooldown
        instead of re-learning the same lesson every placement.
        """
        if not node.alive:
            return False
        if not self.breakers[node.name].can_accept(now):
            self.breaker_rejections += 1
            return False
        if node.queue_depth >= self.policy.spill_queue_depth:
            return False
        limit = node.admission.memory_limit
        return node.committed + est_bytes <= limit

    # ------------------------------------------------------------------
    def place(
        self, req: Request, now: float
    ) -> Tuple[Optional[ClusterNode], str]:
        """Choose the node to enqueue ``req`` on.

        Returns ``(node, how)`` with ``how`` in ``{"home", "spill"}``, or
        ``(None, "no_nodes")`` when the whole fleet is down.
        """
        alive = self.alive_nodes()
        if not alive:
            return None, "no_nodes"
        home = self.nodes[self.ring.route(request_key(req))]
        # Sampled footprint bound when the node carries an estimator,
        # the blind OUTPUT_FACTOR heuristic otherwise: tighter estimates
        # mean fewer spurious memory-pressure spills off the home node.
        est = home.est_bytes_for(req)
        if self.healthy(home, now, est):
            self.home_placements += 1
            self.breakers[home.name].on_dispatch(now)
            return home, "home"
        if len(alive) == 1:
            # Nowhere to spill; the single node's admission decides.
            self.home_placements += 1
            target = home if home.alive else alive[0]
            self.breakers[target.name].on_dispatch(now)
            return target, "home"
        # Power of two choices over the breaker-accepting alive fleet
        # (deterministic draws).  When every breaker is open the draws
        # fall back to the full alive fleet — a request must land
        # somewhere, and the half-open probe path needs traffic.
        pool = [n for n in alive if self.breakers[n.name].can_accept(now)]
        if not pool:
            pool = alive
        salt = f"{self.policy.seed}:{req.id}:{req.attempts}"
        c1 = pool[stable_hash(f"p2c:{salt}:a") % len(pool)]
        c2 = pool[stable_hash(f"p2c:{salt}:b") % len(pool)]
        target = min((c1, c2), key=lambda n: (n.queue_depth, n.name))
        if not target.alive:  # pragma: no cover - alive list is prefiltered
            return None, "no_nodes"
        self.breakers[target.name].on_dispatch(now)
        if target.name == home.name:
            self.home_placements += 1
            return target, "home"
        self.spills += 1
        return target, "spill"

    # ------------------------------------------------------------------
    def breaker_snapshot(self) -> Dict[str, Dict[str, object]]:
        """Per-node breaker state + lifetime transition counts."""
        return {
            name: brk.snapshot() for name, brk in sorted(self.breakers.items())
        }

    # ------------------------------------------------------------------
    def add_node(self, node: ClusterNode) -> None:
        """Join a new node: node map, hash ring, circuit breaker.

        Only the keys in the joiner's ring arcs move to it — every other
        structure keeps its home and its warm cache.  The autoscaler
        hydrates the node *before* calling this, so by the time traffic
        can route here the hot plans are already local.
        """
        if node.name in self.nodes:
            raise ValueError(f"node {node.name!r} already in the fleet")
        self.nodes[node.name] = node
        self.ring.add(node.name)
        self.breakers[node.name] = CircuitBreaker()

    def mark_down(self, node: ClusterNode, *, state: str = "down") -> List[Request]:
        """Remove a node from the fleet — crash and scale-down share this.

        The ring rebalances (only the departing node's keys move), the
        plan index forgets its replicas, and the node's stranded queued
        and in-flight requests are returned for re-placement.  A crash
        leaves the node ``"down"``; a controlled scale-down passes
        ``state="drained"`` — same machinery, different epitaph.  The
        node stays in :attr:`nodes` either way, so its counters survive
        into the fleet rollup.
        """
        node.state = state
        if node.name in self.ring:
            self.ring.remove(node.name)
        self.plan_index.drop_node(node.name)
        return node.drain_for_failover()
