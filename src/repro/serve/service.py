"""The synchronous SpGEMM service core.

:class:`SpGEMMService` is what other layers call instead of constructing
engines by hand: one object owning a :class:`~repro.core.speck.SpeckEngine`,
a structural :class:`~repro.serve.plan_cache.PlanCache`, a host-side
context cache, and a :class:`~repro.serve.metrics.MetricsRegistry`.  Every
``multiply`` fingerprints the operands, finds a plan through the
plan-source ladder (cache, durable store, fleet peer) or captures one
cold, and records modelled-latency metrics; hit and miss counts are the
plan cache's own.

Concurrency model: the core is synchronous and thread-safe (the plan
cache and metrics lock internally; the engine itself is stateless per
call).  Queueing, batching, deadlines and admission control live one
layer up in :mod:`repro.serve.scheduler`.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import TYPE_CHECKING, Callable, Dict, Optional, Tuple

from ..core.context import MultiplyContext
from ..core.params import DEFAULT_PARAMS, SpeckParams
from ..core.speck import SpeckEngine
from ..estimate import RowEstimator
from ..estimate.sampler import MultiplyEstimate
from ..faults import FaultPlan
from ..gpu import DeviceSpec, TITAN_V
from ..gpu.trace import Trace
from ..matrices.csr import CSR
from ..result import SpGEMMResult
from .admission import BROWNOUT_MODES, BrownoutInfo
from .metrics import MetricHandles, MetricsRegistry
from .plan_cache import CachedPlan, PlanCache, plan_key, plan_transfer_s
from .plan_ir import compat_key, encode_plan, frame_checksum

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .plan_store import PlanStore

__all__ = ["PeerRung", "SpGEMMService", "multiply_via"]

#: The fleet's rung of the plan-source ladder: given a plan key and the
#: request's planning mode, adopt a peer's replica that serves that mode
#: into this service's cache and return it with its modelled transfer
#: seconds, or ``(None, 0.0)`` when no peer has one.
PeerRung = Callable[
    [Tuple[str, ...], str], Tuple[Optional[CachedPlan], float]
]

#: Per-rung planning overrides of the brownout ladder.  ``lb_fallback``
#: skips the binning decision entirely (both passes take the global-LB
#: fallback path the engine already uses after a failed attempt);
#: ``minimal`` plans dense-free with no load balancing and no block
#: merging — the cheapest plan that still multiplies correctly.
BROWNOUT_OVERRIDES = {
    "lb_fallback": dict(force_lb_symbolic=True, force_lb_numeric=True),
    "minimal": dict(
        force_lb_symbolic=False,
        force_lb_numeric=False,
        global_lb_mode="never",
        enable_dense=False,
        enable_block_merge=False,
    ),
}


class SpGEMMService:
    """A reusable, cache-backed SpGEMM entry point.

    Parameters
    ----------
    device, params:
        Forwarded to the owned :class:`~repro.core.speck.SpeckEngine`.
    plan_cache_bytes:
        Byte budget of the structural plan cache.
    context_cache_entries:
        How many exact :class:`~repro.core.context.MultiplyContext`
        objects to keep, keyed by *value* fingerprints.  This is a
        host-side simulation shortcut only (the exact product C that the
        model path reports has to come from somewhere); it never affects
        modelled times, which depend solely on the plan cache.
    speculative:
        Plan cold full-rung requests from a sampled estimate instead of
        exact analysis.  Results stay bit-identical (the engine verifies
        the bound at execute time and falls back to exact analysis if it
        was violated, charging the extra work into
        ``stage_times["fallback"]``); only the modelled latency and the
        allocation sizing change.  Brownout rungs below ``full`` are
        already cheaper than estimation, so they keep their own planning.
    estimator:
        Optional shared :class:`~repro.estimate.RowEstimator` (the
        scheduler passes its own so admission, ordering and speculation
        share one memo).  Auto-created when ``speculative`` is set and
        none is given.
    """

    def __init__(
        self,
        device: DeviceSpec = TITAN_V,
        params: SpeckParams = DEFAULT_PARAMS,
        *,
        plan_cache_bytes: int = 256 * 1024 * 1024,
        context_cache_entries: int = 32,
        plan_store: Optional["PlanStore"] = None,
        speculative: bool = False,
        estimator: Optional[RowEstimator] = None,
    ) -> None:
        self.device = device
        self.speculative = bool(speculative)
        self.estimator = estimator
        if self.speculative and self.estimator is None:
            self.estimator = RowEstimator(device)
        self.engine = SpeckEngine(device, params)
        #: Device/params compatibility key of every plan this service
        #: populates (stamped on plans for replication and persistence).
        self.compat = compat_key(device, params)
        # One engine per brownout rung; they share the device's kernel
        # configurations and the fault-scope name, only params differ.
        self._engines: Dict[str, SpeckEngine] = {"full": self.engine}
        for rung, overrides in BROWNOUT_OVERRIDES.items():
            self._engines[rung] = SpeckEngine(
                device, params.with_overrides(**overrides)
            )
        self.plans = PlanCache(max_bytes=plan_cache_bytes)
        #: The service's registry; a scheduler over this service records
        #: its queue metrics here too, so both land in one snapshot.
        self.metrics = MetricsRegistry()
        self._metric = MetricHandles(self.metrics)
        self._contexts: "OrderedDict[Tuple[str, str], MultiplyContext]" = (
            OrderedDict()
        )
        self._context_cache_entries = max(1, int(context_cache_entries))
        self._ctx_lock = threading.Lock()
        self.plan_store: Optional["PlanStore"] = None
        if plan_store is not None:
            self.attach_plan_store(plan_store)

    # ------------------------------------------------------------------
    def attach_plan_store(self, store: "PlanStore") -> int:
        """Bind a durable store: warm the cache from it now, persist every
        plan this service populates from here on, and read a plan the
        cache evicted back from it on a miss.  Returns the number of
        compatible plans adopted (the warm-restart win)."""
        self.plan_store = store
        return store.warm(self.plans, self.compat)

    def persist_plan(self, plan: CachedPlan) -> None:
        """Stamp a freshly populated plan's identity and persist it: one
        encode gives ``plan.checksum`` (the frame's digest) and the bytes
        the durable store appends, when one is attached and its current
        frame for the key is not this very plan already."""
        plan.compat = self.compat
        frame = encode_plan(plan)
        plan.checksum = frame_checksum(frame)
        store = self.plan_store
        if store is not None and not store.holds(plan.key, plan.checksum):
            store.put(frame)

    # ------------------------------------------------------------------
    def context_for(self, a: CSR, b: CSR) -> MultiplyContext:
        """The shared exact-facts context of ``(A, B)``, value-keyed.

        Unlike the plan cache this key includes the values — the exact
        product matrix C is value-dependent, so contexts may only be
        shared between *identical* operand pairs.
        """
        key = (a.fingerprint_values(), b.fingerprint_values())
        with self._ctx_lock:
            ctx = self._contexts.get(key)
            if ctx is not None:
                self._contexts.move_to_end(key)
                return ctx
            ctx = MultiplyContext(a, b)
            self._contexts[key] = ctx
            while len(self._contexts) > self._context_cache_entries:
                self._contexts.popitem(last=False)
            return ctx

    # ------------------------------------------------------------------
    def multiply(
        self,
        a: CSR,
        b: CSR,
        *,
        mode: str = "model",
        ctx: Optional[MultiplyContext] = None,
        trace: Optional[Trace] = None,
        faults: Optional[FaultPlan] = None,
        case_name: str = "",
        brownout: Optional[BrownoutInfo] = None,
        plan_tag: str = "",
        estimate: Optional[MultiplyEstimate] = None,
        peer: Optional[PeerRung] = None,
    ) -> SpGEMMResult:
        """Run ``C = A · B`` through the engine with plan reuse.

        Returns the engine's :class:`~repro.result.SpGEMMResult`; a failed
        run comes back invalid (never raises — the service is the boundary
        where structured failures stop propagating).

        ``brownout`` carries the dispatch-time degradation decision (see
        :meth:`~repro.serve.admission.AdmissionController.brownout_mode`).
        A cache hit is served from the stored plan regardless — reuse is
        already the cheap path — while a cold request plans through the
        rung's engine: progressively lighter pipelines whose output is
        bit-identical, only the modelled planning effort differs.

        A ``speculative`` service additionally plans cold *full*-rung
        requests from a sampled estimate (plans tagged ``"speculative"``;
        subsequent speculative requests hit them without refining).
        Brownout rungs keep their own, already-cheap planning.

        ``plan_tag`` namespaces the plan-cache key for workload variants
        whose plans are not interchangeable with the plain product's
        (see :func:`~repro.serve.plan_cache.plan_key`): masked multiplies
        pass ``"masked:<mask fingerprint>"`` so a masked plan can never
        be served to an unmasked request on the same operand structures.

        ``estimate`` optionally supplies a caller-built
        :class:`~repro.estimate.MultiplyEstimate` for a cold run —
        ``repro.graph.chain`` seeds iteration ``i+1`` from iteration
        ``i``'s exact row stats this way instead of resampling.  It is
        ignored on a plan hit (reuse is cheaper than any estimate) and
        takes precedence over the service's own sampling estimator.

        A plan the cache does not hold is looked up through the
        plan-source ladder before anything is planned: the attached
        store (:meth:`~repro.serve.plan_store.PlanStore.fetch`), then
        ``peer`` (a cluster node's :data:`PeerRung`), then a cold plan.
        ``decisions["plan_source"]`` records which rung served the
        request (``"cache"``, ``"store"``, ``"peer"`` or ``"cold"``).  A
        plan brought in by the store or a peer is charged
        :func:`~repro.serve.plan_cache.plan_transfer_s` of its bytes in
        ``decisions["plan_fetch_s"]``; the caller adds that to the
        request's service seconds, outside ``time_s``.
        """
        rung = brownout.mode if brownout is not None else "full"
        if rung not in self._engines:
            raise ValueError(
                f"unknown brownout mode {rung!r}; have {BROWNOUT_MODES}"
            )
        speculate = self.speculative and rung == "full"
        plan_mode = "speculative" if speculate else rung
        est_nbytes = (
            self.estimator.plan_nbytes(a)
            if self.estimator is not None
            else None
        )
        source, fetch_s = "cache", 0.0
        if (self.plan_store is not None or peer is not None) and (
            # A plan estimated past the whole budget is never retained
            # (``PlanCache.get_or_create``): no rung could make it resident.
            est_nbytes is None or est_nbytes <= self.plans.max_bytes
        ):
            source, fetch_s = self._fetch_plan(
                plan_key(a, b, plan_tag), plan_mode, peer
            )
        plan, hit = self.plans.get_or_create(
            a, b, mode=plan_mode, est_nbytes=est_nbytes, tag=plan_tag
        )
        if not hit:
            source = "cold"
        if estimate is not None:
            seeded = not hit
            estimate = estimate if seeded else None
        else:
            seeded = False
            estimate = (
                self.estimator.estimate(a, b) if speculate and not hit else None
            )
        if ctx is None:
            ctx = self.context_for(a, b)
        # Set unconditionally: cached contexts outlive requests, and a
        # fault plan from one request must not haunt the next.
        ctx.faults = faults
        if case_name:
            ctx.case_name = case_name
        engine = self.engine if hit else self._engines[rung]
        res = engine.multiply(
            a, b, ctx=ctx, mode=mode, trace=trace, plan=plan,
            estimate=estimate,
        )
        if not hit and plan.ready:
            # Stamp identity before anything persists or replicates it.
            self.persist_plan(plan)
            self.plans.note_populated(plan)

        res.decisions["plan_source"] = source
        if fetch_s:
            res.decisions["plan_fetch_s"] = fetch_s

        m = self._metric
        if estimate is not None and seeded:
            m(
                "counter",
                "service.seeded_estimates",
                "cold requests planned from a caller-seeded estimate "
                "(chain iteration refinement)",
            ).inc()
        elif estimate is not None:
            m(
                "counter",
                "service.speculative_cold",
                "cold requests planned from a sampled estimate",
            ).inc()
            if res.decisions.get("speculative_fallback"):
                m(
                    "counter",
                    "service.speculative_fallbacks",
                    "speculative runs whose bound was violated (exact "
                    "analysis re-run, charged to stage_times['fallback'])",
                ).inc()
        if brownout is not None and rung != "full":
            res.decisions["brownout"] = brownout.as_dict()
            m(
                "counter",
                f"service.brownout_{rung}",
                f"dispatches planned in {rung} mode",
            ).inc()
            if not hit:
                m(
                    "counter",
                    "service.brownout_cold_plans",
                    "cold plans computed degraded (refined later)",
                ).inc()
        if res.valid:
            m(
                "histogram",
                "service.latency_s", "modelled service time, all requests"
            ).observe(res.time_s)
            which = "hit" if hit else "cold"
            m(
                "histogram",
                f"service.latency_{which}_s",
                f"modelled service time, plan-cache {which} requests",
            ).observe(res.time_s)
        else:
            m("counter", "service.failures", "invalid results returned").inc()
        if res.retries:
            m("counter", "service.engine_retries", "engine fallback attempts").inc(
                res.retries
            )
            retry_s = float(res.stage_times.get("retry", 0.0))
            if retry_s > 0.0:
                m(
                    "histogram",
                    "service.retry_s",
                    "seconds charged to wasted attempts and backoff",
                ).observe(retry_s)
        m("gauge", "service.cache_bytes", "bytes held by the plan cache").set(
            self.plans.bytes_cached
        )
        m("gauge", "service.cache_entries", "plans cached").set(len(self.plans))
        return res

    def _fetch_plan(
        self, key: Tuple[str, ...], mode: str, peer: Optional[PeerRung]
    ) -> Tuple[str, float]:
        """Walk the ladder's middle rungs for a plan the cache lacks.

        Returns the rung that made the plan resident (``"store"`` or
        ``"peer"``) with its modelled transfer seconds; ``"cache"`` when
        the cache already holds a ready plan, ``"cold"`` when no rung
        has one.  The cache lookup that follows counts the request.
        """
        if self.plans.peek(key) is not None:
            return "cache", 0.0
        if self.plan_store is not None:
            plan = self.plan_store.fetch(key, self.plans, self.compat, mode)
            if plan is not None:
                return "store", plan_transfer_s(plan.nbytes())
        if peer is not None:
            plan, transfer_s = peer(key, mode)
            if plan is not None:
                return "peer", transfer_s
        return "cold", 0.0

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Combined metrics + plan-cache statistics.

        ``service.plan_hits``, ``service.plan_misses`` and
        ``service.requests`` (their sum) are read from the plan cache,
        and ``service.warm_plans`` from the attached store's ``warmed``:
        those layers own the facts.  Each appears once its event has
        happened; ``service.warm_plans`` whenever a store is attached.
        """
        snap = self.metrics.snapshot()
        stats = self.plans.stats()
        counters = snap["counters"]
        if stats.hits + stats.misses:
            counters["service.requests"] = stats.hits + stats.misses
        if stats.hits:
            counters["service.plan_hits"] = stats.hits
        if stats.misses:
            counters["service.plan_misses"] = stats.misses
        if self.plan_store is not None:
            counters["service.warm_plans"] = self.plan_store.warmed
        snap["plan_cache"] = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "inserts": stats.inserts,
            "rejects": stats.rejects,
            "refines": stats.refines,
            "bytes_cached": stats.bytes_cached,
            "entries": stats.entries,
            "hit_rate": stats.hit_rate,
            # Hottest structures first; bounded so snapshots stay small.
            "per_key_hits": dict(list(stats.per_key_hits.items())[:16]),
        }
        if self.plan_store is not None:
            snap["plan_store"] = self.plan_store.stats()
        return snap


def multiply_via(
    service: Optional[SpGEMMService],
    engine: Optional[SpeckEngine],
    a: CSR,
    b: CSR,
    *,
    ctx: Optional[MultiplyContext] = None,
    mode: str = "model",
    faults: Optional[FaultPlan] = None,
    case_name: str = "",
    brownout: Optional[BrownoutInfo] = None,
    plan_tag: str = "",
    estimate: Optional[MultiplyEstimate] = None,
) -> SpGEMMResult:
    """``service.multiply`` when a service is given, else one uncached
    run on ``engine`` (a default :class:`SpeckEngine` when ``None``).

    The graph workloads and applications call this once per product: the
    serving layer runs them cached, the differential oracle runs them on
    a bare engine.  ``brownout`` and ``plan_tag`` only steer the
    service's plan cache, so the engine path ignores them.
    """
    if service is not None:
        return service.multiply(
            a, b, mode=mode, ctx=ctx, faults=faults, case_name=case_name,
            brownout=brownout, plan_tag=plan_tag, estimate=estimate,
        )
    if ctx is None:
        ctx = MultiplyContext(a, b)
    ctx.faults = faults
    if case_name:
        ctx.case_name = case_name
    engine = engine if engine is not None else SpeckEngine()
    return engine.multiply(a, b, ctx=ctx, mode=mode, estimate=estimate)
