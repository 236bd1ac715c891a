"""Synthetic serving workloads and the ``serve-bench`` driver.

Real SpGEMM traffic is heavily skewed toward a few hot operand structures
(the same graph squared every iteration, the same AMG hierarchy rebuilt
per timestep); the benchmark models this with **Zipf-distributed operand
reuse** over the evaluation suite's matrices and **Poisson (open-loop)
arrivals** at a configurable rate.  Everything derives from one seed, so
a run is exactly reproducible.

:func:`run_serve_bench` assembles service + scheduler (the one-node
caller of :func:`repro.serve.scheduler.run_event_loop`), replays the
workload in virtual time, and returns a :class:`BenchReport` with
throughput, tail latency, cache effectiveness and shedding statistics.
The correctness stack is shared with ``cluster-bench``:
:func:`verify_execute_identical` cross-checks cold, plan-hit and
adopted-replica execute outputs bit for bit, and
:func:`reference_products` / :func:`count_wrong_results` compare served
outputs with independently computed references.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.context import MultiplyContext
from ..core.params import DEFAULT_PARAMS, SpeckParams
from ..estimate import RowEstimator
from ..eval.suite import MatrixCase
from ..faults import FaultPlan, FaultRule
from ..gpu import DeviceSpec, TITAN_V
from ..matrices import generators as gen
from ..matrices import ops
from ..matrices.csr import CSR
from .admission import AdmissionPolicy
from .scheduler import Request, RequestOutcome, ServeScheduler
from .service import SpGEMMService

__all__ = [
    "WORKLOADS",
    "WorkloadSpec",
    "BenchReport",
    "ReplayReport",
    "build_requests",
    "count_wrong_results",
    "reference_products",
    "run_serve_bench",
    "serve_corpus",
    "verify_execute_identical",
]

#: Request shapes the benchmark can replay.  ``plain`` is one multiply per
#: request; the graph workloads dispatch through :mod:`repro.graph`.
WORKLOADS = ("plain", "masked", "chain", "incremental")

#: Fraction of requests arriving at high priority (0).
HIGH_PRIORITY_FRAC = 0.1

#: SeedSequence branch for workload artifacts (masks, deltas), distinct
#: from the arrival-timeline stream so adding a workload never perturbs
#: the plain benchmark's arrivals.
_WORKLOAD_BRANCH = 0x73657276  # "serv"


def serve_corpus() -> List[MatrixCase]:
    """The default serving workload: medium operands across families.

    Deliberately excludes the tiny test matrices — their modelled service
    times (~10 µs) are so short that no realistic arrival rate could ever
    pressure the worker pool, which would make admission control and
    deadline handling dead code in every demo.  With this mix the modelled
    per-request cost spans ≈30–150 µs, so the default arrival rate keeps
    the pool ~20% utilised while a 10× overload saturates it and forces
    load shedding, for every Zipf popularity assignment.
    """

    def case(name, family, fn, *args, **kwargs):
        return MatrixCase(
            name=name, family=family, build_a=lambda: fn(*args, **kwargs)
        )

    return [
        case("stripe_2000", "stripe", gen.dense_stripe, 2000, 512, 24, seed=2000),
        case("mesh_100", "mesh", gen.poisson2d, 100),
        case("skew_20000", "skew", gen.skew_single, 20_000, 6, 4000, seed=20_000),
        case("rmat_s10", "powerlaw", gen.rmat, 10, 8, seed=80),
        case("blocks_8000", "blocks", gen.block_dense, 8000, 64, 8, seed=8000),
        case("er_10000", "uniform", gen.random_uniform, 10_000, 10_000, 16.0, seed=10_016),
        case("rmat_s11", "powerlaw", gen.rmat, 11, 8, seed=88),
    ]


@dataclass(frozen=True)
class WorkloadSpec:
    """Parameters of the synthetic open-loop workload."""

    #: Mean arrival rate, requests per (virtual) second.
    rate: float = 4000.0
    #: Virtual duration of the arrival window, seconds.
    duration_s: float = 5.0
    #: Zipf skew of operand popularity (1.0 ≈ classic web-traffic skew).
    zipf_alpha: float = 1.1
    #: Queue deadline; ``None`` disables timeouts.
    timeout_s: Optional[float] = 1.0
    seed: int = 0
    #: Request shape: one of :data:`WORKLOADS`.
    workload: str = "plain"
    #: Chain power ``k`` per request (``A^k``; square operands only —
    #: rectangular cases degrade to a single multiply).
    chain_length: int = 3
    #: Share of the exact product's entries each case's mask keeps.
    mask_density: float = 0.25
    #: Share of A's rows each case's incremental delta rewrites.  Kept
    #: small by default: on self-products the blast radius widens to
    #: referencing rows, and past the engine's recompute threshold the
    #: incremental path degenerates to full recomputes.
    delta_frac: float = 0.02

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.duration_s <= 0:
            raise ValueError("rate and duration must be positive")
        if self.zipf_alpha <= 0:
            raise ValueError("zipf_alpha must be positive")
        if self.workload not in WORKLOADS:
            raise ValueError(
                f"unknown workload {self.workload!r}; have {list(WORKLOADS)}"
            )
        if self.chain_length < 2:
            raise ValueError("chain_length must be >= 2")
        if not 0.0 < self.mask_density <= 1.0:
            raise ValueError("mask_density must be in (0, 1]")
        if not 0.0 < self.delta_frac <= 1.0:
            raise ValueError("delta_frac must be in (0, 1]")


def _masked_workload(mask: CSR):
    """Request executor for one case's masked multiply.

    The memo dict reuses the (lazily computed) masked facts across the
    thousands of identical replays of one ``(A, B, M)`` triple; a
    ``mask_drop``-corrupted run bypasses it inside ``multiply_masked``.
    """
    memo: Dict[str, object] = {}

    def run(service, a, b, *, faults, case_name, brownout):
        from ..graph.masked import multiply_masked

        return multiply_masked(
            a, b, mask, service=service, faults=faults,
            case_name=case_name, brownout=brownout, ctx_cache=memo,
        )

    return run


def _chain_workload(steps: int):
    """Request executor running a ``steps``-multiply chain as one entry."""

    def run(service, a, b, *, faults, case_name, brownout):
        from ..graph.chain import chain_apply

        return chain_apply(
            a, [b] * steps, service=service, faults=faults,
            case_name=case_name, brownout=brownout,
        )

    return run


def _incremental_workload(c_old: CSR, delta):
    """Request executor patching one case's cached product in place."""

    def run(service, a, b, *, faults, case_name, brownout):
        from ..graph.delta import incremental_multiply

        return incremental_multiply(
            a, b, c_old, delta, service=service, faults=faults,
            case_name=case_name, brownout=brownout,
        )

    return run


def _workload_artifacts(
    cases: Sequence[MatrixCase], spec: WorkloadSpec
) -> Dict[str, Dict[str, object]]:
    """Per-case workload inputs and expected outputs, seed-derived.

    For every case the dict holds ``run`` (the request executor closure)
    and ``ref`` (the exact expected C, used by the wrong-result check).
    Masks keep a seeded ``mask_density`` subset of the exact product's
    entry positions; deltas rewrite a seeded ``delta_frac`` share of A's
    rows.  Everything derives from ``(spec.seed, case index)``, so a
    same-seed re-run replays byte-identical workloads.
    """
    if spec.workload == "plain":
        return {}
    arts: Dict[str, Dict[str, object]] = {}
    for i, case in enumerate(cases):
        a, b = case.matrices()
        rng = np.random.default_rng(
            np.random.SeedSequence([int(spec.seed), i, _WORKLOAD_BRANCH])
        )
        c_ref = MultiplyContext(a, b).c
        art: Dict[str, object] = {}
        if spec.workload == "masked":
            pat = ops.pattern(c_ref)
            keep = rng.random(pat.nnz) < spec.mask_density
            if pat.nnz and not keep.any():
                keep[0] = True
            mask = CSR.from_coo(
                pat.row_ids()[keep],
                pat.indices[keep],
                np.ones(int(keep.sum())),
                pat.shape,
                sum_duplicates=False,
            )
            art["mask"] = mask
            art["ref"] = ops.mask(c_ref, ops.pattern(mask))
            art["run"] = _masked_workload(mask)
        elif spec.workload == "chain":
            chainable = b.rows == b.cols and a.cols == b.rows
            steps = spec.chain_length - 1 if chainable else 1
            c = c_ref
            for _ in range(steps - 1):
                c = MultiplyContext(c, b).c
            art["ref"] = c
            art["run"] = _chain_workload(steps)
        else:  # incremental
            from ..graph.delta import apply_delta, random_delta

            delta = random_delta(a, rng=rng, frac=spec.delta_frac)
            a_new = apply_delta(a, delta)
            b_new = a_new if b is a else b
            art["delta"] = delta
            art["ref"] = MultiplyContext(a_new, b_new).c
            art["run"] = _incremental_workload(c_ref, delta)
        arts[case.name] = art
    return arts


def build_requests(
    cases: Sequence[MatrixCase],
    spec: WorkloadSpec,
    artifacts: Optional[Dict[str, Dict[str, object]]] = None,
) -> List[Request]:
    """Materialise the arrival timeline: Poisson times, Zipf operands."""
    if not cases:
        raise ValueError("workload needs at least one matrix case")
    if spec.workload != "plain" and artifacts is None:
        artifacts = _workload_artifacts(cases, spec)
    rng = np.random.default_rng(spec.seed)
    # Popularity rank r has weight 1/(r+1)^alpha; rank order is a seeded
    # shuffle of the cases so no family is systematically hottest.
    order = rng.permutation(len(cases))
    weights = 1.0 / np.power(np.arange(1, len(cases) + 1), spec.zipf_alpha)
    probs = weights / weights.sum()

    requests: List[Request] = []
    t = 0.0
    rid = 0
    pairs = {}
    while True:
        t += rng.exponential(1.0 / spec.rate)
        if t >= spec.duration_s:
            break
        case = cases[int(order[int(rng.choice(len(cases), p=probs))])]
        if case.name not in pairs:
            pairs[case.name] = case.matrices()
        a, b = pairs[case.name]
        art = artifacts.get(case.name) if artifacts else None
        requests.append(
            Request(
                id=rid,
                a=a,
                b=b,
                arrival_s=t,
                priority=0 if rng.random() < HIGH_PRIORITY_FRAC else 1,
                timeout_s=spec.timeout_s,
                case_name=case.name,
                workload=art["run"] if art is not None else None,
            )
        )
        rid += 1
    return requests


@dataclass
class ReplayReport:
    """What every bench report carries: outcome counts, latency,
    first-100 hit rate, brownouts, speculation and the correctness
    checks.  :class:`BenchReport` and the fleet's
    :class:`~repro.cluster.bench.ClusterBenchReport` extend it."""

    config: Dict[str, object] = field(default_factory=dict)
    offered: int = 0
    completed: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    retried: int = 0
    #: Completed requests per virtual second of the arrival window.
    throughput_rps: float = 0.0
    #: End-to-end latency stats (arrival → completion), seconds.
    latency: Dict[str, float] = field(default_factory=dict)
    #: Plan-cache hit rate over the first 100 served requests (request-id
    #: order) — the warm-restart signal: a store-warmed service hits from
    #: request one, a cold one pays a miss per distinct structure.
    first_100_hit_rate: float = 0.0
    #: Plans adopted from durable stores at startup (0 without a store).
    warm_plans: int = 0
    #: Dispatches per brownout rung (full / lb_fallback / minimal).
    brownouts: Dict[str, int] = field(default_factory=dict)
    #: The execute-mode cross-check (:func:`verify_execute_identical`)
    #: passed and, where checked, no result was wrong.
    bit_identical: bool = False
    #: Completed results whose C mismatched the independent exact
    #: reference (:func:`reference_products`); must be 0.
    wrong_results: int = 0
    #: Cold requests planned from a sampled estimate (0 without
    #: ``--speculative``).
    speculative_cold: int = 0
    #: Speculative runs whose confidence bound was violated at execute
    #: time — the engine re-ran exact analysis (``stage_times["fallback"]``).
    fallbacks: int = 0
    #: ``fallbacks / speculative_cold`` (0.0 when nothing speculated).
    fallback_rate: float = 0.0
    metrics: Dict[str, object] = field(default_factory=dict)

    @staticmethod
    def counts(
        outcomes: Sequence[RequestOutcome], offered: int, duration_s: float
    ) -> Dict[str, object]:
        """Status counts, retries, throughput and first-100 hit rate."""
        completed = sum(1 for o in outcomes if o.ok)
        first = sorted((o for o in outcomes if o.ok), key=lambda o: o.request_id)
        first = first[:100]
        return {
            "offered": offered,
            "completed": completed,
            "shed": sum(1 for o in outcomes if o.status == "shed"),
            "timed_out": sum(1 for o in outcomes if o.status == "timeout"),
            "failed": sum(1 for o in outcomes if o.status == "failed"),
            "retried": sum(o.attempts for o in outcomes),
            "throughput_rps": completed / duration_s,
            "first_100_hit_rate": (
                sum(1 for o in first if o.cache_hit) / len(first) if first else 0.0
            ),
        }

    @staticmethod
    def from_counters(counters: Dict[str, object]) -> Dict[str, object]:
        """Warm plans and speculation outcomes from service counters."""
        cold = int(counters.get("service.speculative_cold", 0))
        fallbacks = int(counters.get("service.speculative_fallbacks", 0))
        return {
            "warm_plans": int(counters.get("service.warm_plans", 0)),
            "speculative_cold": cold,
            "fallbacks": fallbacks,
            "fallback_rate": fallbacks / cold if cold else 0.0,
        }

    @property
    def passed(self) -> bool:
        """No wrong result and the execute cross-check held."""
        return not self.wrong_results and self.bit_identical

    def to_json(self, indent: int = 2) -> str:
        out = dict(self.__dict__)
        out["hit_rate"] = self.hit_rate
        return json.dumps(out, indent=indent, sort_keys=True, default=str)

    def _head(self, title: str) -> List[str]:
        return [
            title,
            "-" * len(title),
            f"offered {self.offered} requests; completed {self.completed} "
            f"({self.throughput_rps:.1f} req/s), shed {self.shed}, "
            f"timed out {self.timed_out}, failed {self.failed}, "
            f"retried {self.retried}",
            (
                "latency  p50 {p50:.3f} ms   p95 {p95:.3f} ms   "
                "p99 {p99:.3f} ms   mean {mean:.3f} ms"
            ).format(
                **{
                    k: self.latency.get(k, 0.0) * 1e3
                    for k in ("p50", "p95", "p99", "mean")
                }
            ),
        ]

    @staticmethod
    def _plan_sources(store: Dict[str, int], cold: int) -> List[str]:
        """The line that tells cold plans from plans read back from plan
        stores; empty when no store read anything back."""
        reads = int(store.get("reads", 0))
        if not reads:
            return []
        refused = int(store.get("read_rejects", 0))
        return [
            f"plan sources: {cold} cold plans, {reads - refused} store "
            f"reads ({refused} refused)"
        ]

    def _tail(self) -> List[str]:
        lines = []
        if self.speculative_cold:
            lines.append(
                f"speculative: {self.speculative_cold} cold plans from "
                f"sampled estimates, {self.fallbacks} bound-violation "
                f"fallbacks ({self.fallback_rate * 100:.1f}%)"
            )
        degraded = {k: v for k, v in self.brownouts.items() if k != "full"}
        if degraded:
            lines.append(
                "brownout dispatches: "
                + ", ".join(f"{k}={v}" for k, v in sorted(degraded.items()))
            )
        lines.append(
            f"execute cross-check bit-identical: {self.bit_identical}; "
            f"{self.wrong_results} wrong results"
        )
        return lines


@dataclass
class BenchReport(ReplayReport):
    """Everything ``serve-bench`` measures, JSON-exportable."""

    #: Modelled service time of cache-hit vs cold requests, seconds.
    hit_latency_mean_s: float = 0.0
    cold_latency_mean_s: float = 0.0
    #: cold mean / hit mean (higher = caching helps more).
    hit_speedup: float = 0.0
    cache: Dict[str, object] = field(default_factory=dict)
    #: Aggregated graph-workload counters (empty for the plain workload):
    #: mask prune ratio, chain plan-reuse hits/rate, incremental
    #: recomputed-vs-total rows.
    workload_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        return float(self.cache.get("hit_rate", 0.0))

    def render(self) -> str:
        """Human-readable report for the CLI."""
        lines = self._head("serve-bench report") + [
            f"plan cache: hit rate {self.hit_rate * 100:.1f}%  "
            f"({self.cache.get('hits', 0)} hits / "
            f"{self.cache.get('misses', 0)} misses, "
            f"{self.cache.get('entries', 0)} plans, "
            f"{int(self.cache.get('bytes_cached', 0)) / 1e6:.2f} MB, "
            f"{self.cache.get('evictions', 0)} evictions)",
            f"service time: hit mean {self.hit_latency_mean_s * 1e3:.3f} ms vs "
            f"cold mean {self.cold_latency_mean_s * 1e3:.3f} ms "
            f"(speedup {self.hit_speedup:.2f}x)",
            f"first 100 served: hit rate {self.first_100_hit_rate * 100:.1f}%"
            + (f" (warm-started with {self.warm_plans} plans)"
               if self.warm_plans else ""),
        ] + self._plan_sources(
            self.metrics.get("plan_store") or {}, int(self.cache.get("misses", 0))
        )
        if self.workload_stats:
            pairs = ", ".join(
                f"{k}={v:.4g}"
                for k, v in sorted(self.workload_stats.items())
            )
            lines.append(
                f"workload ({self.config.get('workload', 'plain')}): {pairs}"
            )
        return "\n".join(lines + self._tail())


def verify_execute_identical(
    case: MatrixCase,
    device: DeviceSpec,
    params: SpeckParams,
    *,
    speculative: bool = False,
) -> bool:
    """Cold vs plan-hit vs adopted-replica execute runs must agree bitwise.

    Uses ``mode="execute"`` so C really flows through the adaptive
    accumulators rather than the shared exact engine.  One service
    plans cold, then hits its cached plan; a second service adopts a
    replica of that plan (the cluster's replication path).  With
    ``speculative`` the check widens: a speculative cold execute *and* a
    bound-violation fallback execute (bounds deflated via the
    ``estimate_skew`` fault site) must match too.
    """
    a, b = case.matrices()
    home = SpGEMMService(device, params)
    cold = home.multiply(a, b, mode="execute")
    hit = home.multiply(a, b, mode="execute")
    plan = home.plans.peek((a.fingerprint(), b.fingerprint()))
    if hit.decisions.get("plan_cache") != "hit" or plan is None:
        return False
    peer = SpGEMMService(device, params)
    peer.plans.adopt(plan)
    replica = peer.multiply(a, b, mode="execute")
    if replica.decisions.get("plan_cache") != "hit":
        return False
    others = [hit, replica]
    if speculative:
        spec = SpGEMMService(device, params, speculative=True).multiply(
            a, b, mode="execute", case_name=case.name
        )
        # Deflate the bounds so the execute-time check trips and the
        # engine takes the exact-analysis fallback.
        skew = FaultPlan([FaultRule(site="estimate_skew", factor=0.01)])
        fb = SpGEMMService(device, params, speculative=True).multiply(
            a, b, mode="execute", faults=skew, case_name=case.name
        )
        if not fb.decisions.get("speculative_fallback"):
            return False
        others += [spec, fb]
    return cold.c is not None and all(
        r.c is not None
        and all(
            np.array_equal(getattr(cold.c, f), getattr(r.c, f))
            for f in ("indptr", "indices", "data")
        )
        for r in others
    )


def reference_products(
    cases: Sequence[MatrixCase],
    spec: WorkloadSpec,
    artifacts: Dict[str, Dict[str, object]],
) -> Dict[str, CSR]:
    """The independently computed expected C of every case.

    The exact product for plain requests; for graph workloads the
    workload's own reference from :func:`_workload_artifacts` — the
    mask-filtered product, the sequentially folded chain, or the full
    recompute of the delta-updated operands.  None of them runs the
    engine or the workload executors under test.
    """
    if spec.workload != "plain":
        return {case.name: artifacts[case.name]["ref"] for case in cases}
    return {case.name: MultiplyContext(*case.matrices()).c for case in cases}


def count_wrong_results(
    outcomes: Sequence[RequestOutcome], refs: Dict[str, CSR]
) -> int:
    """Completed results whose C differs from the case's reference
    (structure or values)."""
    want = {
        name: (c.fingerprint(), c.fingerprint_values()) for name, c in refs.items()
    }
    wrong = 0
    for o in outcomes:
        if not o.ok or o.result is None or o.case_name not in want:
            continue
        c = o.result.c
        if c is not None and (c.fingerprint(), c.fingerprint_values()) != want[
            o.case_name
        ]:
            wrong += 1
    return wrong


def run_serve_bench(
    *,
    cases: Optional[Sequence[MatrixCase]] = None,
    spec: Optional[WorkloadSpec] = None,
    device: DeviceSpec = TITAN_V,
    params: SpeckParams = DEFAULT_PARAMS,
    n_workers: int = 2,
    plan_cache_bytes: int = 256 * 1024 * 1024,
    policy: Optional[AdmissionPolicy] = None,
    faults: Optional[FaultPlan] = None,
    plan_store_dir: Optional[str] = None,
    estimate: bool = False,
    speculative: bool = False,
) -> BenchReport:
    """Drive the service with the synthetic workload; return the report.

    With ``plan_store_dir`` the service binds a durable
    :class:`~repro.serve.plan_store.PlanStore` there: plans persisted by
    earlier runs warm the cache before the first request, and every plan
    this run computes is persisted for the next one.

    ``estimate`` wires a shared :class:`~repro.estimate.RowEstimator`
    into admission (sampled footprint bounds) and queue ordering
    (bucketed shortest-job-first); ``speculative`` additionally plans
    cold requests from the estimates (and implies ``estimate``).  Either
    flag also turns on the exact-reference ``wrong_results`` check.
    """
    cases = list(cases) if cases is not None else serve_corpus()
    spec = spec or WorkloadSpec()
    estimate = bool(estimate or speculative)
    store = None
    if plan_store_dir is not None:
        from .plan_store import PlanStore

        store = PlanStore(plan_store_dir, faults=faults)
    estimator = RowEstimator(device) if estimate else None
    service = SpGEMMService(
        device,
        params,
        plan_cache_bytes=plan_cache_bytes,
        context_cache_entries=max(32, len(cases)),
        plan_store=store,
        speculative=speculative,
        estimator=estimator,
    )
    scheduler = ServeScheduler(
        service,
        n_workers=n_workers,
        policy=policy,
        default_timeout_s=spec.timeout_s,
        faults=faults,
        estimator=estimator,
    )
    artifacts = _workload_artifacts(cases, spec)
    if spec.workload == "incremental":
        # The incremental scenario starts from an already-served product:
        # warm each case's base (A, B) plan so the delta path has a plan
        # to row-patch (otherwise ``plans_patched`` would be dead code in
        # an all-incremental replay).
        for case in cases:
            a, b = case.matrices()
            service.multiply(a, b, case_name=case.name)
    requests = build_requests(cases, spec, artifacts=artifacts)
    outcomes = scheduler.run(requests)
    wrong = 0
    if estimate or spec.workload != "plain":
        wrong = count_wrong_results(
            outcomes, reference_products(cases, spec, artifacts)
        )

    snap = service.snapshot()
    hists = snap.get("histograms", {})
    lat = hists.get("scheduler.latency_s", {})
    hit_mean = float(hists.get("service.latency_hit_s", {}).get("mean", 0.0))
    cold_mean = float(hists.get("service.latency_cold_s", {}).get("mean", 0.0))
    counters = snap.get("counters", {})
    return BenchReport(
        config={
            "rate": spec.rate,
            "duration_s": spec.duration_s,
            "zipf_alpha": spec.zipf_alpha,
            "timeout_s": spec.timeout_s,
            "seed": spec.seed,
            "workload": spec.workload,
            "n_workers": scheduler.n_workers,
            "max_queue_depth": scheduler.admission.policy.max_queue_depth,
            # A boolean, never the path: reports stay byte-identical
            # across machines and temp directories.
            "plan_store": service.plan_store is not None,
            "estimate": estimate,
            "speculative": bool(speculative),
        },
        **BenchReport.counts(outcomes, len(requests), spec.duration_s),
        **BenchReport.from_counters(counters),
        latency={
            k: float(lat.get(k, 0.0)) for k in ("mean", "p50", "p95", "p99")
        },
        hit_latency_mean_s=hit_mean,
        cold_latency_mean_s=cold_mean,
        hit_speedup=cold_mean / hit_mean if hit_mean > 0 else 0.0,
        cache=snap.get("plan_cache", {}),
        brownouts=dict(sorted(scheduler.admission.brownout_modes.items())),
        bit_identical=wrong == 0
        and verify_execute_identical(
            cases[0], device, params, speculative=speculative
        ),
        wrong_results=wrong,
        workload_stats=_workload_stats(outcomes, spec),
        metrics=snap,
    )


def _workload_stats(
    outcomes: Sequence[RequestOutcome], spec: WorkloadSpec
) -> Dict[str, float]:
    """Aggregate the graph-workload counters from completed results."""
    if spec.workload == "plain":
        return {}
    results = [
        o.result for o in outcomes if o.ok and o.result is not None
    ]
    if spec.workload == "masked":
        ratios = [
            float(r.decisions.get("mask_prune_ratio", 0.0))
            for r in results
            if r.decisions.get("masked")
        ]
        return {
            "masked_requests": float(len(ratios)),
            "mask_prune_ratio_mean": (
                float(np.mean(ratios)) if ratios else 0.0
            ),
        }
    if spec.workload == "chain":
        hits = sum(int(r.decisions.get("chain_plan_hits", 0)) for r in results)
        misses = sum(
            int(r.decisions.get("chain_plan_misses", 0)) for r in results
        )
        total = hits + misses
        return {
            "chain_multiplies": float(
                sum(int(r.decisions.get("chain_steps", 0)) for r in results)
            ),
            "chain_plan_hits": float(hits),
            "chain_plan_misses": float(misses),
            "chain_plan_hit_rate": hits / total if total else 0.0,
            "chain_seeded": float(
                sum(int(r.decisions.get("chain_seeded", 0)) for r in results)
            ),
        }
    # incremental
    recomputed = sum(
        int(r.decisions.get("rows_recomputed", 0)) for r in results
    )
    total_rows = sum(int(r.decisions.get("rows_total", 0)) for r in results)
    return {
        "incremental_rows_recomputed": float(recomputed),
        "incremental_rows_total": float(total_rows),
        "incremental_recompute_ratio": (
            recomputed / total_rows if total_rows else 0.0
        ),
        "incremental_full_recomputes": float(
            sum(1 for r in results if r.decisions.get("full_recompute"))
        ),
        "incremental_plans_patched": float(
            sum(1 for r in results if r.decisions.get("plan_patched"))
        ),
    }
