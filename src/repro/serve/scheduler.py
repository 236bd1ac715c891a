"""Request scheduling and the one virtual-time event loop.

A :class:`ServeScheduler` is one serving node.  It turns the synchronous
:class:`~repro.serve.service.SpGEMMService` into a *service under load*:
requests arrive on an open-loop timeline, an
:class:`~repro.serve.admission.AdmissionController` sheds what the queue
or the device cannot absorb, and a pool of simulated workers (device
streams) drains the queue in priority order, batching requests that share
the same A operand so one analysis serves N numerics (the plan cache makes
every request after the first in a structure group a hit).  A fleet node
(:class:`repro.cluster.node.ClusterNode`) is this scheduler plus fleet
state.

:func:`run_event_loop` is the only code that advances serving virtual
time.  It drives the nodes of a *router*: :meth:`ServeScheduler.run`
passes a :class:`LocalRouter` over the scheduler itself, and the fleet
(:func:`repro.cluster.bench._run_fleet`) passes its consistent-hash
router with crash failover and autoscaling.

Time is *virtual* and driven by the cost model: a worker that starts a
request at ``t`` is busy until ``t + result.time_s``.  This mirrors how
the whole repository treats the simulated device — host-side compute is
real, wall time is modelled — and makes every run exactly reproducible
from the workload seed.

Failure semantics reuse the PR-1 taxonomy end to end: engine failures
surface as invalid results with :class:`~repro.faults.FailureInfo`;
retryable ones are re-placed while the router allows; queue deadline
misses become ``kind="timeout"`` infos; sheds carry the admission
controller's :class:`~repro.serve.admission.ServiceReject`.  Nothing in
this module raises on a per-request basis.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Optional

from ..core.context import device_csr_bytes
from ..estimate import RowEstimator
from ..faults import FailureInfo, FaultPlan
from ..matrices.csr import CSR
from ..result import SpGEMMResult
from .admission import (
    AdmissionController,
    AdmissionPolicy,
    BrownoutInfo,
    ServiceReject,
)
from .metrics import MetricHandles
from .service import PeerRung, SpGEMMService

__all__ = [
    "InFlight",
    "LocalRouter",
    "Request",
    "RequestOutcome",
    "ServeScheduler",
    "record_outcome",
    "run_event_loop",
]

#: Re-queues of a retryable failed request on a lone scheduler, *on top
#: of* the engine's own internal fallback attempt.
MAX_RETRIES = 1


@dataclass
class Request:
    """One SpGEMM request on the service timeline.

    ``priority`` 0 is most urgent; ties break by arrival order.  A request
    whose queue wait exceeds ``timeout_s`` is dropped with a structured
    timeout instead of occupying a worker.
    """

    id: int
    a: CSR
    b: CSR
    arrival_s: float
    priority: int = 1
    timeout_s: Optional[float] = None
    case_name: str = ""
    #: Re-placements after failures consumed so far.
    attempts: int = 0
    #: Optional workload executor for non-plain requests (masked, chained,
    #: incremental — see :mod:`repro.graph`).  Called as
    #: ``workload(service, a, b, faults=..., case_name=..., brownout=...)``
    #: and must return an :class:`~repro.result.SpGEMMResult`; ``None``
    #: dispatches a plain ``service.multiply``.
    workload: Optional[Callable[..., SpGEMMResult]] = None
    #: ``input_bytes()``, computed on first use (A and B never change).
    _input_bytes: Optional[int] = field(
        default=None, init=False, repr=False, compare=False
    )

    def input_bytes(self) -> int:
        """Device bytes of A and B, computed once per request."""
        nbytes = self._input_bytes
        if nbytes is None:
            nbytes = self._input_bytes = device_csr_bytes(
                self.a.rows, self.a.nnz
            ) + device_csr_bytes(self.b.rows, self.b.nnz)
        return nbytes


@dataclass
class RequestOutcome:
    """Terminal state of one request: served, shed, timed out, or failed."""

    request_id: int
    case_name: str
    status: str  # "ok" | "shed" | "timeout" | "failed"
    arrival_s: float
    start_s: float = 0.0
    finish_s: float = 0.0
    cache_hit: bool = False
    attempts: int = 0
    #: Brownout rung the dispatch planned under ("full" when unloaded).
    brownout_mode: str = "full"
    result: Optional[SpGEMMResult] = None
    reject: Optional[ServiceReject] = None
    info: Optional[FailureInfo] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def latency_s(self) -> float:
        """Arrival-to-finish latency (0 for requests never served)."""
        return max(0.0, self.finish_s - self.arrival_s)

    @property
    def wait_s(self) -> float:
        return max(0.0, self.start_s - self.arrival_s)


@dataclass
class InFlight:
    """A request currently occupying one of a node's device streams."""

    request: Request
    worker: int
    start_s: float
    finish_s: float
    result: SpGEMMResult
    cache_hit: bool
    brownout_mode: str = "full"


def _arrival_order(req: Request):
    return (req.arrival_s, req.id)


#: Queue orders without a cost bucket: priority, then arrival.
_queue_order = attrgetter("priority", "arrival_s", "id")


#: In-flight lists stay sorted by completion: finish time, then id.
_finish_s = attrgetter("finish_s")
_finish_order = attrgetter("finish_s", "request.id")


class ServeScheduler:
    """One serving node: admission, a priority queue and device streams.

    Parameters
    ----------
    service:
        The synchronous core executing each multiply.
    n_workers:
        Concurrent device streams; each serves one (batched) dispatch at
        a time.
    policy:
        Admission thresholds (queue bound, memory headroom).
    max_batch:
        Most requests one dispatch may take from the queue when they
        share A's structural fingerprint (one analysis, N numerics).
    default_timeout_s:
        Queue deadline applied to requests that carry none.
    faults:
        Optional fault plan threaded into every multiply (CI smoke runs).
    estimator:
        Optional :class:`~repro.estimate.RowEstimator`.  When set, the
        admission memory-headroom check uses the sampled footprint bound
        instead of the blind ``OUTPUT_FACTOR`` heuristic, and queue
        ordering gains a coarse estimated-cost hint: within a priority
        class, cheaper requests dispatch first (bucketed shortest-job-
        first — the bucket is log2 of estimated products, so arrival
        order still breaks ties among similar-cost requests and nothing
        starves).  Absent an estimator, behaviour is bit-identical to
        before.
    """

    #: Node name in timeout messages; fleet nodes carry their own.
    name = "local"
    #: A lone scheduler is always up; fleet nodes track their health.
    alive = True

    def __init__(
        self,
        service: SpGEMMService,
        *,
        n_workers: int = 4,
        policy: Optional[AdmissionPolicy] = None,
        max_batch: int = 8,
        default_timeout_s: Optional[float] = None,
        faults: Optional[FaultPlan] = None,
        estimator: Optional[RowEstimator] = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError("need at least one worker")
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.service = service
        self.admission = AdmissionController(service.device, policy)
        self.max_batch = int(max_batch)
        self.default_timeout_s = default_timeout_s
        self.faults = faults
        self.estimator = estimator
        #: Estimated-cost queue ordering (see ``estimator``).
        self.order_by_cost = estimator is not None
        self.metrics = service.metrics
        self._metric = MetricHandles(self.metrics)
        self.workers: List[float] = [0.0] * int(n_workers)
        self.reset()

    def reset(self) -> None:
        """Free every stream and forget all queued and in-flight work."""
        self.workers = [0.0] * len(self.workers)
        self.queue: List[Request] = []
        self.inflight: List[InFlight] = []
        #: Conservative committed bytes of queued + in-flight requests.
        self.committed = 0
        self.inflight_bytes: Dict[int, int] = {}

    @property
    def n_workers(self) -> int:
        return len(self.workers)

    @property
    def queue_depth(self) -> int:
        return len(self.queue)

    # ------------------------------------------------------------------
    def _footprint(self, req: Request) -> Optional[int]:
        """Sampled footprint bound for admission; ``None`` without an
        estimator (the controller falls back to its blind heuristic)."""
        if self.estimator is None:
            return None
        return self.estimator.footprint_bound_bytes(req.a, req.b)

    def est_bytes_for(self, req: Request) -> int:
        """Admission/routing footprint of one request on this node."""
        footprint = self._footprint(req)
        return self.admission.estimate_bytes(req.input_bytes(), footprint)

    def _cost_bucket(self, req: Request) -> int:
        """Coarse estimated-cost class for queue ordering (0 = cheapest)."""
        if self.estimator is None:
            return 0
        hint = self.estimator.estimate(req.a, req.b).cost_hint
        return int(math.log2(hint + 1.0)) if hint > 0 else 0

    def admit(self, req: Request) -> Optional[ServiceReject]:
        """Shed ``req``, or queue it and commit its footprint bytes."""
        footprint = self._footprint(req)
        input_bytes = req.input_bytes()
        reject = self.admission.admit(
            req.id,
            queue_depth=len(self.queue),
            input_bytes=input_bytes,
            committed_bytes=self.committed,
            footprint=footprint,
        )
        if reject is None:
            self.enqueue(
                req, self.admission.estimate_bytes(input_bytes, footprint)
            )
        return reject

    def enqueue(self, req: Request, est_bytes: int) -> None:
        self.queue.append(req)
        self.inflight_bytes[req.id] = est_bytes
        self.committed += est_bytes

    def release(self, request_id: int) -> None:
        """Return a request's committed bytes (on any terminal state)."""
        self.committed -= self.inflight_bytes.pop(request_id, 0)

    def idle_workers(self, now: float) -> List[int]:
        return [w for w, busy in enumerate(self.workers) if busy <= now]

    def next_free_s(self, now: float) -> Optional[float]:
        """Earliest future worker-free time, ``None`` if all idle."""
        busy = [t for t in self.workers if t > now]
        return min(busy) if busy else None

    # ------------------------------------------------------------------
    def _take_batch(
        self,
        queue: List[Request],
        now: float,
        expired: Optional[List[Request]] = None,
    ) -> List[Request]:
        """Pop the best request plus queue-mates sharing A's structure.

        Best = lowest (priority, arrival, id) — with cost ordering, lowest
        (priority, cost bucket, arrival, id).  Same-A requests ride along
        regardless of their own priority — the whole point of batching is
        that their marginal cost is one numeric pass.  Requests past
        their deadline when they reach the head leave the queue into
        ``expired``.
        """
        if self.order_by_cost:
            queue.sort(
                key=lambda r: (r.priority, self._cost_bucket(r), r.arrival_s, r.id)
            )
        else:
            queue.sort(key=_queue_order)
        batch: List[Request] = []
        head_fp: Optional[str] = None
        kept: List[Request] = []
        for i, req in enumerate(queue):
            timeout = (
                req.timeout_s if req.timeout_s is not None else self.default_timeout_s
            )
            late = timeout is not None and now - req.arrival_s > timeout
            if not batch:
                if late:
                    if expired is not None:
                        expired.append(req)
                    continue
                batch.append(req)
                head_fp = req.a.fingerprint()
            elif not late and req.a.fingerprint() == head_fp:
                batch.append(req)
            else:
                kept.append(req)
                continue
            if len(batch) == self.max_batch:
                kept += queue[i + 1:]
                break
        queue[:] = kept
        if len(batch) > 1:
            m = self._metric
            m("counter", "scheduler.batches", "multi-request dispatches").inc()
            m(
                "counter", "scheduler.batched_requests",
                "requests served via batching",
            ).inc(len(batch) - 1)
        return batch

    def execute(
        self,
        req: Request,
        brownout: Optional[BrownoutInfo] = None,
        peer: Optional[PeerRung] = None,
    ) -> SpGEMMResult:
        """Run one request: its workload executor, or a plain multiply
        whose plan-source ladder may end in ``peer`` (a fleet's rung)."""
        if req.workload is not None:
            return req.workload(
                self.service,
                req.a,
                req.b,
                faults=self.faults,
                case_name=req.case_name,
                brownout=brownout,
            )
        return self.service.multiply(
            req.a,
            req.b,
            faults=self.faults,
            case_name=req.case_name,
            brownout=brownout,
            peer=peer,
        )

    # ------------------------------------------------------------------
    def run(self, requests: Iterable[Request]) -> List[RequestOutcome]:
        """Drain an arrival timeline; returns one outcome per request.

        Arrivals are processed in ``arrival_s`` order; after the last
        arrival the queue keeps draining until empty (open-loop workload,
        bounded by admission control, never by crashing).
        """
        self.reset()
        router = LocalRouter(self)
        run_event_loop(router, requests)
        return router.outcomes


#: Counter per non-ok terminal status, under a router's metric prefix.
_STATUS_COUNTERS = {"shed": "shed", "timeout": "timeouts", "failed": "failed"}


def record_outcome(
    metric: MetricHandles, prefix: str, out: RequestOutcome
) -> None:
    """Count one terminal outcome as ``<prefix>.completed|shed|timeouts|
    failed``; a served one also feeds ``<prefix>.latency_s``."""
    if not out.ok:
        metric("counter", f"{prefix}.{_STATUS_COUNTERS[out.status]}").inc()
        return
    metric("counter", f"{prefix}.completed", "requests served").inc()
    metric("histogram", f"{prefix}.latency_s", "arrival to completion").observe(
        out.latency_s
    )


class LocalRouter:
    """The router of a lone scheduler: every request lands on the node.

    :func:`run_event_loop` drives its nodes through these hooks, and the
    fleet's router (:class:`repro.cluster.bench._FleetRun`) implements
    them with placement, failover and autoscaling.  ``tick`` returns
    requests to re-place; ``route`` picks a node (``None`` when none is
    alive); ``before_dispatch`` returns the requests a crashed node
    stranded; ``execute`` runs one request and returns it with its
    modelled service seconds (``time_s`` plus the plan-source ladder's
    ``plan_fetch_s``); ``retry`` returns ``None`` to re-place a
    failed request, else its terminal failure; ``settled`` sees every
    outcome.  A router with no ticks or no crashes sets ``tick`` or
    ``before_dispatch`` to ``None`` and the loop skips it, as it does
    here.  Here a retry re-queues up to :data:`MAX_RETRIES` times (no
    budget, breaker or replica fetch) and the node's own registry
    records ``scheduler.*`` metrics, each handle bound on first use.
    """

    #: A local stream is never interrupted, so an outcome is final when
    #: its request starts, and settling it then keeps the metrics in
    #: dispatch order.  Fleet nodes can crash under in-flight work and
    #: settle at completion.
    settle_at_dispatch = True
    #: Virtual time of the next router tick.
    next_tick_s: Optional[float] = None
    #: A lone node re-places nothing on a tick and never crashes, so
    #: the loop calls neither hook.
    tick = None
    before_dispatch = None

    def __init__(self, node: ServeScheduler) -> None:
        self.node = node
        self.nodes = {node.name: node}
        self.outcomes: List[RequestOutcome] = []
        self._metric = node._metric

    def arrive(self, req: Request) -> None:
        self._metric("counter", "scheduler.arrivals", "requests offered").inc()

    def route(self, req: Request, now: float) -> Optional[ServeScheduler]:
        return self.node

    def execute(self, node, req: Request, brownout: BrownoutInfo, now: float):
        res = node.execute(req, brownout)
        return res, res.time_s + res.decisions.get("plan_fetch_s", 0.0)

    def retry(
        self, req: Request, reason: str, info: Optional[FailureInfo]
    ) -> Optional[FailureInfo]:
        if req.attempts >= MAX_RETRIES:
            return info
        req.attempts += 1
        self._metric(
            "counter", "scheduler.retries", "requests re-queued after failure"
        ).inc()
        return None

    def note_queue(self, node: ServeScheduler) -> None:
        self._metric("gauge", "scheduler.queue_depth", "requests waiting").set(
            len(node.queue)
        )

    def settled(self, node, out: RequestOutcome) -> None:
        record_outcome(self._metric, "scheduler", out)
        if out.ok:
            self._metric("histogram", "scheduler.wait_s", "queue wait").observe(
                out.wait_s
            )


def run_event_loop(router, requests: Iterable[Request]) -> None:
    """Replay an arrival timeline over ``router.nodes`` in virtual time.

    Each pass at time ``now``: the router's tick (if it has one), then
    completions due, then arrivals (admission on the routed node), then
    one dispatch per idle stream of every alive node in name order
    (fault checks, pop with deadline expiry and same-A batching,
    execution), then ``now`` advances to the next event: an arrival, a
    stream freeing under queued work, the router's next tick, or (for a
    router that settles outcomes at completion) a completion.  A pass
    that re-placed work runs again at the same ``now``.  Every request ends in exactly one
    outcome in ``router.outcomes``; the router's hooks (see
    :class:`LocalRouter`) decide placement, retries and metrics.
    """
    arrivals = sorted(requests, key=_arrival_order)
    now = 0.0
    i = 0
    tick, before_dispatch = router.tick, router.before_dispatch

    def settle(node, req: Request, status: str, finish_s: float, **kw) -> None:
        out = RequestOutcome(
            request_id=req.id,
            case_name=req.case_name,
            status=status,
            arrival_s=req.arrival_s,
            finish_s=finish_s,
            attempts=req.attempts,
            **kw,
        )
        router.outcomes.append(out)
        router.settled(node, out)

    def complete(node, inf: InFlight) -> None:
        settle(
            node,
            inf.request,
            "ok",
            inf.finish_s,
            start_s=inf.start_s,
            cache_hit=inf.cache_hit,
            brownout_mode=inf.brownout_mode,
            result=inf.result,
        )

    def place(req: Request) -> None:
        node = router.route(req, now)
        if node is None:
            info = FailureInfo(
                kind="crash",
                stage="routing",
                tag=req.case_name,
                message="no alive nodes to place the request on",
                retryable=False,
            )
            settle(None, req, "failed", now, info=info)
            return
        reject = node.admit(req)
        if reject is not None:
            settle(node, req, "shed", now, reject=reject, info=reject.info)
        else:
            router.note_queue(node)

    def retry(req: Request, reason: str, info: Optional[FailureInfo], t: float):
        final = router.retry(req, reason, info)
        if final is None:
            place(req)
        else:
            settle(None, req, "failed", t, info=final)

    nodes: List = []
    while True:
        if tick is not None:
            for req in tick(now):
                place(req)
        if len(nodes) != len(router.nodes):
            # Autoscaler joiners enter the map (drained nodes stay in it).
            nodes = [router.nodes[name] for name in sorted(router.nodes)]

        # 1. Completions due by `now` return their committed bytes.
        for node in nodes:
            if not node.inflight or node.inflight[0].finish_s > now:
                continue
            done = bisect_right(node.inflight, now, key=_finish_s)
            due = node.inflight[:done]
            del node.inflight[:done]
            for inf in due:
                node.release(inf.request.id)
                if not router.settle_at_dispatch:
                    complete(node, inf)

        # 2. Arrivals due by `now`.
        while i < len(arrivals) and arrivals[i].arrival_s <= now:
            router.arrive(arrivals[i])
            place(arrivals[i])
            i += 1

        # 3. Dispatch onto every idle stream of every alive node.
        progressed = False
        for node in nodes:
            if not node.alive:
                continue
            for w in node.idle_workers(now):
                if not node.queue:
                    break
                stranded = (
                    before_dispatch(node, now)
                    if before_dispatch is not None
                    else None
                )
                if stranded is not None:
                    for req in sorted(stranded, key=_arrival_order):
                        retry(req, "crash", None, now)
                    progressed = True
                    break
                expired: List[Request] = []
                batch = node._take_batch(node.queue, now, expired)
                for req in expired:
                    node.release(req.id)
                    info = FailureInfo(
                        kind="timeout",
                        stage="queue",
                        tag=req.case_name,
                        message=(
                            f"request {req.id} waited {now - req.arrival_s:.4f}s "
                            f"on {node.name}, over its deadline"
                        ),
                        retryable=True,
                    )
                    settle(node, req, "timeout", now, info=info)
                if not batch:
                    break
                # Pressure when the work starts, once it left the queue.
                brownout = node.admission.brownout_mode(
                    queue_depth=len(node.queue), committed_bytes=node.committed
                )
                t = now
                for req in batch:
                    res, service_s = router.execute(node, req, brownout, now)
                    if res.valid:
                        inf = InFlight(
                            request=req,
                            worker=w,
                            start_s=t,
                            finish_s=t + service_s,
                            result=res,
                            cache_hit=res.decisions.get("plan_cache") == "hit",
                            brownout_mode=brownout.mode,
                        )
                        insort(node.inflight, inf, key=_finish_order)
                        t = inf.finish_s
                        if router.settle_at_dispatch:
                            complete(node, inf)
                        continue
                    node.release(req.id)
                    info = res.failure_info
                    if info is not None and info.retryable:
                        retry(req, "fault", info, t)
                        progressed = True
                        continue
                    info = info or FailureInfo(
                        kind="crash", stage="execute", tag=req.case_name,
                        message=res.failure,
                    )
                    settle(node, req, "failed", t, start_s=t, info=info)
                node.workers[w] = max(t, now)
                router.note_queue(node)

        if progressed:
            continue  # re-placed work may land on nodes already visited

        # 4. Advance virtual time to the next event.
        candidates: List[float] = []
        if i < len(arrivals):
            candidates.append(arrivals[i].arrival_s)
        for node in nodes:
            if node.inflight and not router.settle_at_dispatch:
                # A completion settles an outcome.  Otherwise it only
                # returns bytes, which the next pass releases before
                # anything reads them, so it needs no event of its own.
                candidates.append(node.inflight[0].finish_s)
            if node.alive and node.queue:
                # A warm joiner's streams are busy until its hydration
                # transfer completes — without in-flight records.
                free_s = node.next_free_s(now)
                if free_s is not None:
                    candidates.append(free_s)
        if not candidates:
            break  # drained: no arrivals, nothing queued or in flight
        tick_s = router.next_tick_s
        if tick_s is not None:
            # Tick while work remains; never the *only* pending event,
            # so an idle fleet terminates instead of ticking forever.
            candidates.append(tick_s)
        now = max(now, min(candidates))
