"""The fleet's router and the ``cluster-bench`` driver.

This is the fleet analogue of :mod:`repro.serve.workload`: the same
open-loop Zipf/Poisson arrival timeline, replayed against N nodes in
shared virtual time.  The event loop itself is the one in
:func:`repro.serve.scheduler.run_event_loop`; :func:`_run_fleet` drives
it through :class:`_FleetRun`, which places requests through the
:class:`~repro.cluster.router.ClusterRouter`, consults each node's
fault scope for whole-node crashes and transient degradations, fetches
plan replicas for spilled work, retries stranded requests onto
survivors with the structured retryable taxonomy, and ticks the
autoscaler.

Correctness is never assumed, and the checks are ``serve-bench``'s:
every completed response's output is compared with an independently
computed reference (:func:`~repro.serve.workload.reference_products`),
and an execute-mode cross-check multiplies one case cold / plan-hit /
via an adopted replica and demands bit-identical CSR arrays.  The
report also carries a conservation flag — every offered request must
reach exactly one terminal state (completed, shed, timed out, failed);
a crash may *retry* work but can never silently drop it.

Everything derives from the workload seed and the fault plan; a re-run
produces a byte-identical ``--json`` report.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.params import DEFAULT_PARAMS, SpeckParams
from ..eval.suite import MatrixCase
from ..faults import FailureInfo, FaultPlan
from ..gpu.presets import PRESETS
from ..serve.admission import AdmissionPolicy
from ..serve.metrics import MetricHandles
from ..serve.scheduler import (
    Request,
    RequestOutcome,
    record_outcome,
    run_event_loop,
)
from ..serve.workload import (
    ReplayReport,
    WorkloadSpec,
    _workload_artifacts,
    build_requests,
    count_wrong_results,
    reference_products,
    serve_corpus,
    verify_execute_identical,
)
from .autoscaler import AutoscalePolicy, Autoscaler
from .metrics import FleetMetrics
from .node import ClusterNode
from .router import ClusterRouter, RoutingPolicy

__all__ = ["ClusterSpec", "ClusterBenchReport", "build_fleet", "run_cluster_bench"]


@dataclass(frozen=True)
class ClusterSpec:
    """Shape and policies of the simulated fleet."""

    n_nodes: int = 4
    #: Device preset names, cycled across nodes (heterogeneous fleets:
    #: pass several, e.g. ``("titan-v", "p100")``).
    devices: Tuple[str, ...] = ("titan-v",)
    workers_per_node: int = 2
    plan_cache_mb: float = 256.0
    #: Per-node admission bound on queued requests.
    queue_depth: int = 128
    #: Home queue depth at which the router spills (power-of-two-choices).
    spill_queue_depth: int = 8
    replicate_plans: bool = True
    #: Cluster-level re-placements of a request (crash failover, faults).
    max_retries: int = 3
    #: Service-time multiplier while a node is degraded.
    degrade_factor: float = 4.0
    #: How long one degradation event lasts, virtual seconds.
    degrade_duration_s: float = 0.05
    #: Salt for the router's deterministic power-of-two draws.
    seed: int = 0
    #: Durable plan stores: each node persists its plans under
    #: ``plan_store_dir/<node-name>`` and warm-starts from what it finds
    #: there.  ``None`` keeps the fleet memory-only.
    plan_store_dir: Optional[str] = None
    #: Give every node a :class:`~repro.estimate.RowEstimator`: admission
    #: and router spill decisions use sampled footprint bounds instead of
    #: the blind ``output_factor`` heuristic.
    estimate: bool = False
    #: Nodes additionally plan cold requests from the sampled estimates
    #: (implies ``estimate``); bound violations fall back to exact
    #: analysis and are counted in the report.
    speculative: bool = False
    #: Elastic fleet: run an :class:`~repro.cluster.autoscaler.Autoscaler`
    #: over the event loop.  ``n_nodes`` is then the *initial* size and
    #: the fleet resizes within ``[min_nodes, max_nodes]``.
    autoscale: bool = False
    min_nodes: int = 1
    max_nodes: int = 8
    #: Hydrate joining nodes (durable store, then hottest indexed plans
    #: from peers) before they take traffic.
    warm_join: bool = True
    #: Virtual seconds between autoscaler evaluations.
    scale_interval_s: float = 0.02
    #: Latency SLO the autoscaler defends (fleet p99, virtual seconds).
    target_p99_s: float = 0.2
    #: Hottest plans proactively replicated to spill targets each tick.
    replicate_top_k: int = 4

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("need at least one node")
        if self.autoscale:
            if not 1 <= self.min_nodes <= self.n_nodes <= self.max_nodes:
                raise ValueError("need 1 <= min_nodes <= n_nodes <= max_nodes")
            if self.scale_interval_s <= 0:
                raise ValueError("scale_interval_s must be positive")
            if self.target_p99_s <= 0:
                raise ValueError("target_p99_s must be positive")
            if self.replicate_top_k < 0:
                raise ValueError("replicate_top_k must be >= 0")
        if self.workers_per_node < 1:
            raise ValueError("need at least one worker per node")
        if not self.devices:
            raise ValueError("need at least one device preset")
        for d in self.devices:
            if d not in PRESETS:
                raise ValueError(
                    f"unknown device preset {d!r}; have {sorted(PRESETS)}"
                )
        if self.degrade_factor < 1.0:
            raise ValueError("degrade_factor must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")


def _make_node(
    spec: ClusterSpec,
    params: SpeckParams,
    index: int,
    name: Optional[str] = None,
) -> ClusterNode:
    """One fleet node by index: device cycled, policies from the spec.

    Founders and autoscaler joiners are built identically — the joiner
    just has a later index (and a non-zero ``joined_at_s`` stamped by
    the autoscaler).
    """
    device = PRESETS[spec.devices[index % len(spec.devices)]]
    return ClusterNode(
        name or f"node-{index}",
        device,
        params,
        n_workers=spec.workers_per_node,
        plan_cache_bytes=int(spec.plan_cache_mb * 1e6),
        policy=AdmissionPolicy(max_queue_depth=spec.queue_depth),
        estimate=spec.estimate,
        speculative=spec.speculative,
    )


def build_fleet(
    spec: ClusterSpec, params: SpeckParams = DEFAULT_PARAMS
) -> Dict[str, ClusterNode]:
    """Construct the nodes: ``node-0`` … ``node-(N-1)``, devices cycled."""
    nodes: Dict[str, ClusterNode] = {}
    for i in range(spec.n_nodes):
        node = _make_node(spec, params, i)
        nodes[node.name] = node
    return nodes


# ---------------------------------------------------------------------------
# The fleet's router for the shared event loop
# ---------------------------------------------------------------------------
class _FleetRun:
    """The fleet's router for :func:`~repro.serve.scheduler.run_event_loop`,
    and everything one fleet replay produces.

    Implements the hooks of :class:`~repro.serve.scheduler.LocalRouter`
    with consistent-hash placement (:class:`ClusterRouter`), crash and
    degrade injection from each node's fault scope, plan-replica fetches
    for spilled work, circuit breakers, budgeted retries onto survivors,
    fleet metrics, and the autoscaler tick.
    """

    #: A crash strands in-flight work, so outcomes settle at completion.
    settle_at_dispatch = False

    def __init__(
        self,
        nodes: Dict[str, ClusterNode],
        spec: ClusterSpec,
        params: SpeckParams,
        faults: Optional[FaultPlan],
    ) -> None:
        self.spec = spec
        self.faults = faults
        self.router = ClusterRouter(
            nodes,
            RoutingPolicy(
                spill_queue_depth=spec.spill_queue_depth,
                seed=spec.seed,
                replicate_plans=spec.replicate_plans,
            ),
        )
        self.fleet = FleetMetrics()
        self._metric = MetricHandles(self.fleet.registry)
        # The router copies the node map; membership changes (autoscaler
        # joins, drains) land in router.nodes, so everything downstream —
        # the loop, aggregation, the report — iterates *that* map.
        self.nodes = self.router.nodes
        self.outcomes: List[RequestOutcome] = []
        self.end_s = 0.0
        for node in self.nodes.values():
            self._wire(node)
        self.scaler: Optional[Autoscaler] = None
        if spec.autoscale:
            self.scaler = Autoscaler(
                self.router,
                AutoscalePolicy(
                    min_nodes=spec.min_nodes,
                    max_nodes=spec.max_nodes,
                    interval_s=spec.scale_interval_s,
                    target_p99_s=spec.target_p99_s,
                    warm_join=spec.warm_join,
                    replicate_top_k=spec.replicate_top_k,
                ),
                lambda name, index: self._wire(
                    _make_node(spec, params, index, name=name)
                ),
                p99_s=self._fleet_p99,
                metrics=self.fleet,
            )

    def _wire(self, node: ClusterNode) -> ClusterNode:
        node.bind_faults(self.faults)
        if self.spec.plan_store_dir is not None:
            node.attach_plan_store(self.spec.plan_store_dir, self.faults)
        return node

    def _fleet_p99(self) -> float:
        snap = self.fleet.registry.histogram(
            "cluster.latency_s", "arrival to completion, fleet-wide"
        ).snapshot()
        return float(snap.get("p99", 0.0))

    # -- router hooks ----------------------------------------------------
    @property
    def next_tick_s(self) -> Optional[float]:
        return self.scaler.next_eval_s if self.scaler is not None else None

    def tick(self, now: float) -> List[Request]:
        # Work stranded by a scale-down drain is *re-placed*, not retried
        # — a voluntary membership change must not burn the retry budget
        # or the requests' attempt counts.
        if self.scaler is None or not self.scaler.due(now):
            return []
        stranded = sorted(
            self.scaler.evaluate(now), key=lambda r: (r.arrival_s, r.id)
        )
        if stranded:
            self.fleet.registry.counter(
                "cluster.rebalanced",
                "queued requests re-placed by a controlled scale-down drain",
            ).inc(len(stranded))
        return stranded

    def arrive(self, req: Request) -> None:
        self.router.retry_budget.note_request()

    def route(self, req: Request, now: float) -> Optional[ClusterNode]:
        return self.router.place(req, now)[0]

    def before_dispatch(
        self, node: ClusterNode, now: float
    ) -> Optional[List[Request]]:
        node.dispatches += 1
        if node.scope.node_crash():
            self.fleet.registry.counter(
                "cluster.node_crashes", "whole-node crashes"
            ).inc()
            return self.router.mark_down(node)
        if node.scope.node_degrade():
            self.fleet.registry.counter(
                "cluster.node_degrades", "transient node degradations"
            ).inc()
            node.degraded_until = max(
                node.degraded_until, now + self.spec.degrade_duration_s
            )
        return None

    def _fetch_replica(self, node: ClusterNode, key):
        """The peer rung of ``node``'s plan-source ladder: pull a replica
        of ``key`` from a live compatible holder."""
        plan, transfer_s = self.router.plan_index.fetch(key, node, self.nodes)
        if plan is not None:
            self.fleet.registry.counter(
                "cluster.plan_fetches", "plan replicas pulled on demand"
            ).inc()
            self.fleet.registry.histogram(
                "cluster.plan_fetch_s", "modelled replica transfer seconds"
            ).observe(transfer_s)
        return plan, transfer_s

    def execute(self, node, req, brownout, now):
        # The node's service walks the one plan-source ladder (cache,
        # store, then this peer rung, then cold) and prices the fetch.
        peer = (
            partial(self._fetch_replica, node)
            if self.router.policy.replicate_plans
            else None
        )
        res = node.execute(req, brownout, peer)
        key = (req.a.fingerprint(), req.b.fingerprint())
        if node.service.plans.peek(key) is not None:
            self.router.plan_index.note(key, node.name)
        node.note_served(
            hit=res.decisions.get("plan_cache") == "hit",
            fetched=res.decisions.get("plan_source") == "peer",
        )
        # Feed the node's circuit breaker: an invalid result or a
        # degraded (slow) dispatch counts against it, so a persistently
        # sick node opens its breaker and stops receiving traffic until
        # the cooldown probe clears it.
        slow = node.degraded(now)
        self.router.breakers[node.name].record(res.valid and not slow, now)
        factor = self.spec.degrade_factor if slow else 1.0
        return res, res.time_s * factor + res.decisions.get("plan_fetch_s", 0.0)

    def retry(
        self, req: Request, reason: str, info: Optional[FailureInfo]
    ) -> Optional[FailureInfo]:
        if req.attempts >= self.spec.max_retries:
            return FailureInfo(
                kind="crash" if reason == "crash" else "injected",
                stage="failover",
                tag=req.case_name,
                message=f"gave up after {req.attempts} re-placements ({reason})",
                retryable=False,
            )
        if not self.router.retry_budget.try_spend():
            # The fleet-wide budget is exhausted: fail terminally instead
            # of feeding a retry storm.  Still a structured outcome —
            # conservation holds.
            return FailureInfo(
                kind="shed",
                stage="retry_budget",
                tag=req.case_name,
                message=(
                    f"retry after {reason} denied: fleet budget "
                    f"{self.router.retry_budget.allowance} spent"
                ),
                retryable=False,
            )
        req.attempts += 1
        self.fleet.registry.counter(
            f"cluster.retries_{reason}", f"re-placements after {reason}"
        ).inc()
        return None

    def note_queue(self, node: ClusterNode) -> None:
        pass

    def settled(self, node: Optional[ClusterNode], out: RequestOutcome) -> None:
        record_outcome(self._metric, "cluster", out)
        if out.ok:
            self._metric(
                "histogram", "cluster.service_s", "modelled on-node service time"
            ).observe(out.finish_s - out.start_s)
            self.end_s = max(self.end_s, out.finish_s)


def _run_fleet(
    requests: Sequence[Request],
    nodes: Dict[str, ClusterNode],
    spec: ClusterSpec,
    *,
    params: SpeckParams = DEFAULT_PARAMS,
    faults: Optional[FaultPlan] = None,
) -> _FleetRun:
    """Replay an arrival timeline against the fleet in virtual time."""
    run = _FleetRun(nodes, spec, params, faults)
    run_event_loop(run, requests)
    return run


# ---------------------------------------------------------------------------
# The benchmark report
# ---------------------------------------------------------------------------
@dataclass
class ClusterBenchReport(ReplayReport):
    """Everything ``cluster-bench`` measures, JSON-exportable."""

    spilled: int = 0
    crashes: int = 0
    degrades: int = 0
    plan_fetches: int = 0
    hit_rate: float = 0.0
    #: Per-node breaker state + lifetime transition counts.
    breakers: Dict[str, Dict[str, object]] = field(default_factory=dict)
    #: Breaker-open transitions across the fleet.
    breaker_opens: int = 0
    #: Fleet retry-budget allowance / spent / denied.
    retry_budget: Dict[str, int] = field(default_factory=dict)
    #: Summed durable-store counters (appends, quarantines, replays).
    plan_store: Dict[str, int] = field(default_factory=dict)
    #: Single-node reference run on the same workload (no faults).
    single_node: Dict[str, float] = field(default_factory=dict)
    #: Fleet throughput over single-node throughput.
    scaling_vs_single: float = 0.0
    #: Elastic-fleet summary: scale events, warm joins, proactive plan
    #: pushes, and each joiner's first-100 local hit rate.  Empty when
    #: autoscaling is off.
    autoscale: Dict[str, object] = field(default_factory=dict)
    #: Every offered request reached exactly one terminal state.
    conservation_ok: bool = False

    @property
    def passed(self) -> bool:
        return super().passed and self.conservation_ok

    def render(self) -> str:
        lines = self._head("cluster-bench report") + [
            f"fleet: {self.config.get('n_nodes')} nodes x "
            f"{self.config.get('workers_per_node')} workers "
            f"({', '.join(self.config.get('devices', []))}); "
            f"rate {self.config.get('rate')}/s for "
            f"{self.config.get('duration_s')}s",
            f"routing: {self.spilled} spills, {self.crashes} node crashes, "
            f"{self.degrades} degrades, {self.plan_fetches} plan-replica fetches",
            f"fleet plan-cache hit rate {self.hit_rate * 100:.1f}%  "
            f"(first 100 served: {self.first_100_hit_rate * 100:.1f}%)",
        ]
        if self.breaker_opens:
            open_now = sum(
                1 for b in self.breakers.values() if b.get("state") != "closed"
            )
            lines.append(
                f"circuit breakers: {self.breaker_opens} opens, "
                f"{open_now} not closed at end"
            )
        if self.retry_budget.get("denied"):
            lines.append(
                f"retry budget: {self.retry_budget['spent']}/"
                f"{self.retry_budget['allowance']} spent, "
                f"{self.retry_budget['denied']} denied"
            )
        if self.plan_store:
            lines.append(
                f"plan stores: {self.warm_plans} plans warm-restored, "
                f"{self.plan_store.get('appended', 0)} appended, "
                f"{self.plan_store.get('quarantined_corrupt', 0)} corrupt + "
                f"{self.plan_store.get('quarantined_torn', 0)} torn quarantined"
            )
            lines += self._plan_sources(
                self.plan_store, int(self.metrics["fleet"]["plan_misses"])
            )
        if self.single_node:
            lines.append(
                f"single-node reference: "
                f"{self.single_node.get('completed', 0):.0f} completed "
                f"({self.single_node.get('throughput_rps', 0.0):.1f} req/s) "
                f"-> fleet scaling {self.scaling_vs_single:.2f}x"
            )
        if self.autoscale:
            lines.append(
                f"autoscale: {self.autoscale.get('scale_ups', 0)} ups, "
                f"{self.autoscale.get('scale_downs', 0)} downs, "
                f"{self.autoscale.get('warm_join_plans', 0)} plans "
                f"warm-joined, "
                f"{self.autoscale.get('proactive_replications', 0)} "
                f"proactive plan pushes"
            )
            joins = self.autoscale.get("join_first_100") or {}
            if joins:
                lines.append(
                    "joiner first-100 local hit rate: "
                    + ", ".join(
                        f"{name}={rate * 100:.0f}%"
                        for name, rate in sorted(joins.items())
                    )
                )
        lines += self._tail()
        lines.append(f"request conservation: {self.conservation_ok}")
        return "\n".join(lines)


def run_cluster_bench(
    *,
    cases: Optional[Sequence[MatrixCase]] = None,
    spec: Optional[WorkloadSpec] = None,
    cluster: Optional[ClusterSpec] = None,
    params: SpeckParams = DEFAULT_PARAMS,
    faults: Optional[FaultPlan] = None,
    compare_single: bool = True,
) -> ClusterBenchReport:
    """Drive the fleet with the serving workload; return the report.

    ``compare_single`` additionally replays the identical workload
    against a one-node fleet (same per-node resources, no fault plan) to
    report throughput scaling; the correctness references are always
    checked regardless.
    """
    cases = list(cases) if cases is not None else serve_corpus()
    # Default load deliberately oversubscribes one node (~20k req/s on the
    # default device/corpus) by ~4x so fleet scaling is measurable.
    spec = spec or WorkloadSpec(rate=80_000.0, duration_s=0.5, timeout_s=0.25)
    cluster = cluster or ClusterSpec()

    artifacts = _workload_artifacts(cases, spec)
    requests = build_requests(cases, spec, artifacts=artifacts)
    run = _run_fleet(
        requests,
        build_fleet(cluster, params),
        cluster,
        params=params,
        faults=faults,
    )
    outcomes = run.outcomes
    completed = sum(1 for o in outcomes if o.ok)

    single: Dict[str, float] = {}
    scaling = 0.0
    if compare_single:
        single_cluster = replace(
            cluster,
            n_nodes=1,
            devices=cluster.devices[:1],
            plan_store_dir=None,
            autoscale=False,
        )
        single_run = _run_fleet(
            build_requests(cases, spec, artifacts=artifacts),
            build_fleet(single_cluster, params),
            single_cluster,
            params=params,
        )
        s_completed = sum(1 for o in single_run.outcomes if o.ok)
        single = {
            "completed": float(s_completed),
            "throughput_rps": s_completed / spec.duration_s,
        }
        if s_completed > 0:
            scaling = completed / s_completed

    snap = run.fleet.aggregate(run.router, run.end_s, run.scaler)
    autoscale_summary: Dict[str, object] = {}
    if run.scaler is not None:
        autoscale_summary = run.scaler.snapshot()
        autoscale_summary["join_first_100"] = {
            name: run.nodes[name].first_100_hit_rate
            for name in run.scaler.joined
            if name in run.nodes
        }
    lat = snap["cluster"]["histograms"].get("cluster.latency_s", {})
    fleet_stats = snap["fleet"]
    cluster_counters = snap["cluster"]["counters"]
    breakers = snap["breakers"]
    wrong = count_wrong_results(
        outcomes, reference_products(cases, spec, artifacts)
    )
    return ClusterBenchReport(
        config={
            "n_nodes": cluster.n_nodes,
            "devices": [
                cluster.devices[i % len(cluster.devices)]
                for i in range(cluster.n_nodes)
            ],
            "workers_per_node": cluster.workers_per_node,
            "queue_depth": cluster.queue_depth,
            "spill_queue_depth": cluster.spill_queue_depth,
            "replicate_plans": cluster.replicate_plans,
            "max_retries": cluster.max_retries,
            "rate": spec.rate,
            "duration_s": spec.duration_s,
            "zipf_alpha": spec.zipf_alpha,
            "timeout_s": spec.timeout_s,
            "seed": spec.seed,
            "workload": spec.workload,
            "router_seed": cluster.seed,
            # A boolean, never the path: the JSON report stays
            # byte-identical across machines and temp directories.
            "plan_store": cluster.plan_store_dir is not None,
            "estimate": cluster.estimate or cluster.speculative,
            "speculative": cluster.speculative,
            "autoscale": cluster.autoscale,
            "min_nodes": cluster.min_nodes,
            "max_nodes": cluster.max_nodes,
            "warm_join": cluster.warm_join,
            "scale_interval_s": cluster.scale_interval_s,
            "target_p99_s": cluster.target_p99_s,
            "replicate_top_k": cluster.replicate_top_k,
        },
        **ClusterBenchReport.counts(outcomes, len(requests), spec.duration_s),
        **ClusterBenchReport.from_counters(fleet_stats["node_counters"]),
        spilled=run.router.spills,
        crashes=int(cluster_counters.get("cluster.node_crashes", 0)),
        degrades=int(cluster_counters.get("cluster.node_degrades", 0)),
        plan_fetches=run.router.plan_index.fetches,
        latency={
            k: float(lat.get(k, 0.0)) for k in ("mean", "p50", "p95", "p99")
        },
        hit_rate=float(fleet_stats["hit_rate"]),
        brownouts=dict(fleet_stats["brownouts"]),
        breakers=breakers,
        breaker_opens=sum(int(b.get("opens", 0)) for b in breakers.values()),
        retry_budget=dict(snap["retry_budget"]),
        plan_store=dict(fleet_stats["plan_store_totals"]),
        single_node=single,
        scaling_vs_single=scaling,
        bit_identical=wrong == 0
        and verify_execute_identical(
            cases[0],
            PRESETS[cluster.devices[0]],
            params,
            speculative=cluster.speculative,
        ),
        wrong_results=wrong,
        autoscale=autoscale_summary,
        # Exactly one terminal state per offered request — same count
        # *and* no request id duplicated or dropped along the way.
        conservation_ok=(
            len(outcomes) == len(requests)
            and len({o.request_id for o in outcomes}) == len(requests)
        ),
        metrics=snap,
    )
