"""The four workloads: inputs from the seed, objects under test, the timed call.

Each workload has the same life cycle, driven by ``run.py``:

* :meth:`Workload.setup` builds the inputs from the seed and the objects
  under test (timed as ``setup_s``, repeated and the median reported);
  :meth:`Workload.setup_steps` is the same work in steps, each timed on
  its own;
* :meth:`Workload.prepare` resets per-replay state, untimed;
* :meth:`Workload.calls` are the replay's timed calls into the program,
  each with the check of its output, run after its clock stops.  Most
  workloads make one call, :meth:`Workload.replay`, checked by
  :meth:`Workload.judge`; serve-churn and suite-sweep split a replay
  into calls of a second or so, so that host-speed calibration
  (``calibrate.py``) brackets each closely;
* :meth:`Workload.counts` reads the program's own counters after a
  replay's last call.

Popularity is Zipf over operands in their listed order, so the seed
decides arrival times, priorities and operand draws but never which
operand is hottest.  On serve-hot and suite-sweep the seed also
relabels the rows of each corpus operand (the same matrix, rows
permuted), so modeled times move a little from seed to seed while the
corpora stay the repository's.  serve-churn and fleet-elastic keep fixed
operands; see README.md for why.
"""

from __future__ import annotations

import os
import shutil
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import all_algorithms
from repro.cluster import bench as cluster_bench
from repro.cluster.bench import ClusterSpec, build_fleet
from repro.core.params import DEFAULT_PARAMS
from repro.estimate import RowEstimator
from repro.eval import harness
from repro.eval.suite import MatrixCase, full_corpus
from repro.gpu import TITAN_V
from repro.matrices import generators as gen
from repro.matrices.csr import CSR
from repro.serve import PlanStore, Request, ServeScheduler, SpGEMMService, serve_corpus

from .judge import Reference, Verdict, judge_requests, judge_suite

__all__ = ["WORKLOADS", "Workload", "arrivals"]

DEVICE = TITAN_V
Pair = Tuple[str, CSR, CSR]


def arrivals(
    pairs: Sequence[Pair],
    *,
    rate: float,
    duration_s: float,
    alpha: float,
    seed: int,
    high_priority_frac: float = 0.1,
    timeout_s: float = 1.0,
) -> List[Request]:
    """Open-loop Poisson arrivals at ``rate`` per virtual second, each
    drawing an operand pair from Zipf(``alpha``) over ``pairs`` in listed
    order (the first pair is the hottest)."""
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=int(rate * duration_s * 1.2) + 64)
    times = np.cumsum(gaps)
    if times[-1] < duration_s:
        raise ValueError("arrival draw too short for the window")
    times = times[times < duration_s]
    weights = 1.0 / np.arange(1, len(pairs) + 1) ** alpha
    picks = rng.choice(len(pairs), size=len(times), p=weights / weights.sum())
    urgent = rng.random(len(times)) < high_priority_frac
    return [
        Request(
            id=i,
            a=pairs[k][1],
            b=pairs[k][2],
            arrival_s=float(t),
            priority=0 if hp else 1,
            timeout_s=timeout_s,
            case_name=pairs[k][0],
        )
        for i, (t, k, hp) in enumerate(zip(times, picks, urgent))
    ]


def relabel_rows(a: CSR, seed: int, index: int) -> CSR:
    """``A`` with its rows in a seeded order (a relabelling of the same
    matrix: per-row work and column spans are unchanged)."""
    order = np.random.default_rng([seed, index]).permutation(a.rows)
    return a.select_rows(order)


def relabelled(cases: Sequence[MatrixCase], seed: int, first: int = 0) -> List[Pair]:
    """Each case as ``(name, A', B)``, ``A'`` its rows relabelled by the
    seed and the case's corpus index, ``first`` being the index of
    ``cases[0]`` (square cases multiply ``A'·A``)."""
    return [
        (c.name, relabel_rows(c.matrices()[0], seed, first + i), c.matrices()[1])
        for i, c in enumerate(cases)
    ]


class Workload:
    """Base class; subclasses set ``name``."""

    name = ""
    #: Fewest set-up repetitions per run; ``setup_s`` is their median.
    setup_repeats = 5
    store_dir: Optional[str] = None

    def __init__(self, work_dir: str) -> None:
        self.work_dir = work_dir
        self._stores = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def setup_steps(self, seed: int) -> Iterator[None]:
        """:meth:`setup` in steps: the work up to each ``yield``."""
        self.setup(seed)
        yield

    def prepare(self) -> None:
        pass

    def replay(self):
        raise NotImplementedError

    def calls(self) -> List[Tuple[Callable, Callable[..., Verdict]]]:
        return [(self.replay, self.judge)]

    def judge(self, out) -> Verdict:
        raise NotImplementedError

    def counts(self, out) -> Dict[str, float]:
        return {}

    def fresh_store_dir(self) -> str:
        """A new directory for this replay's plan stores; the previous
        replay's is removed."""
        self.close()
        self._stores += 1
        self.store_dir = os.path.join(self.work_dir, f"{self.name}-store-{self._stores}")
        return self.store_dir

    def close(self) -> None:
        """Remove the plan-store directory this workload last made."""
        if self.store_dir is not None:
            shutil.rmtree(self.store_dir, ignore_errors=True)


def _cache_counts(services: Sequence[SpGEMMService]) -> Dict[str, float]:
    """Plan-cache and speculation counters summed over services."""
    hits = misses = inserts = evictions = 0
    spec_cold = fallbacks = 0
    for svc in services:
        plans = svc.plans
        hits += plans.hits
        misses += plans.misses
        inserts += plans.inserts
        evictions += plans.evictions
        counters = svc.metrics.snapshot().get("counters", {})
        spec_cold += int(counters.get("service.speculative_cold", 0))
        fallbacks += int(counters.get("service.speculative_fallbacks", 0))
    return {
        "plan_cache.hits": hits,
        "plan_cache.misses": misses,
        "plan_cache.inserts": inserts,
        "plan_cache.evictions": evictions,
        "estimate.speculative_cold": spec_cold,
        "estimate.fallbacks": fallbacks,
    }


class _Serve(Workload):
    """A service plus scheduler replaying one arrival timeline."""

    requests: List[Request]
    reference: Reference
    scheduler: ServeScheduler

    def prepare(self) -> None:
        for req in self.requests:
            req.attempts = 0

    def replay(self):
        return self.scheduler.run(self.requests)

    def judge(self, out) -> Verdict:
        return judge_requests(self.requests, out, self.reference)


class ServeHot(_Serve):
    name = "serve-hot"
    RATE = 4000.0
    DURATION_S = 1.0
    ALPHA = 1.1

    def setup(self, seed: int) -> None:
        pairs = relabelled(serve_corpus(), seed)
        self.requests = arrivals(
            pairs, rate=self.RATE, duration_s=self.DURATION_S,
            alpha=self.ALPHA, seed=seed,
        )
        self.reference = Reference(pairs)
        self.service = SpGEMMService(
            DEVICE, DEFAULT_PARAMS, context_cache_entries=len(pairs)
        )
        self.scheduler = ServeScheduler(
            self.service, n_workers=2, default_timeout_s=1.0
        )

    def prepare(self) -> None:
        super().prepare()
        # The service lives across replays; counts are taken per replay.
        self._before = _cache_counts([self.service])

    def counts(self, out) -> Dict[str, float]:
        now = _cache_counts([self.service])
        return {k: now[k] - self._before[k] for k in now}


def slot_operands(slots: Sequence[Tuple[str, tuple]]) -> List[Pair]:
    """One square operand per ``(generator, args)`` slot, built with the
    slot index as its generator seed."""
    out: List[Pair] = []
    for i, (family, args) in enumerate(slots):
        a = getattr(gen, family)(*args, seed=1000 + i)
        out.append((f"op{i:02d}_{family}", a, a))
    return out


def _churn_slots(n: int) -> List[Tuple[str, tuple]]:
    """``n`` slots cycling five families, sizes spread over a range."""
    slots = []
    for i in range(n):
        k = i // 5
        slots.append([
            ("rmat", (7 + k % 2, 4 + k % 5)),
            ("random_uniform", (200 + 50 * k, 200 + 50 * k, 4.0 + k % 7)),
            ("banded", (300 + 100 * k, 2 + k % 7)),
            ("circuit", (300 + 100 * k,)),
            ("skew_single", (300 + 80 * k, 4, 60 + 20 * k)),
        ][i % 5])
    return slots


#: A lighter serve-like mix for the fleet: host time goes to the loop,
#: routing and the hit path, not to per-node exact products.
FLEET_SLOTS = [
    ("dense_stripe", (500, 128, 16)),
    ("poisson2d", (40,)),
    ("skew_single", (3000, 4, 800)),
    ("rmat", (9, 8)),
    ("block_dense", (2000, 32, 8)),
    ("random_uniform", (2000, 2000, 8.0)),
    ("rmat", (10, 8)),
    ("banded", (3000, 4)),
]


class ServeChurn(_Serve):
    name = "serve-churn"
    N_OPERANDS = 32
    #: One stream at 9000 req/s keeps it about 40% busy: modeled
    #: latencies include queue waits, so their percentiles are not the
    #: fixed service time of one operand.  Busier, the p99 depends more
    #: on the seed (quartile spread over eight seeds 0.17 at 12000 req/s,
    #: 0.09 at 9000).
    WORKERS = 1
    RATE = 9000.0
    DURATION_S = 0.32
    #: The timeline is replayed as consecutive windows on one service,
    #: each a call of about 720 requests.
    WINDOWS = 4
    ALPHA = 0.6
    #: Plan-cache budget as a share of the operands' estimated plan bytes.
    BUDGET_SHARE = 0.25

    def setup(self, seed: int) -> None:
        pairs = slot_operands(_churn_slots(self.N_OPERANDS))
        self.requests = arrivals(
            pairs, rate=self.RATE, duration_s=self.DURATION_S,
            alpha=self.ALPHA, seed=seed,
        )
        edges = np.linspace(0.0, self.DURATION_S, self.WINDOWS + 1)
        edges[-1] = np.inf
        self.windows = [
            [r for r in self.requests if lo <= r.arrival_s < hi]
            for lo, hi in zip(edges, edges[1:])
        ]
        self.reference = Reference(pairs)
        est = RowEstimator(DEVICE)
        self.budget = int(
            self.BUDGET_SHARE * sum(est.plan_nbytes(a) for _, a, _ in pairs)
        )
        self._build()

    def _build(self) -> None:
        estimator = RowEstimator(DEVICE)
        self.service = SpGEMMService(
            DEVICE,
            DEFAULT_PARAMS,
            plan_cache_bytes=self.budget,
            context_cache_entries=self.N_OPERANDS,
            plan_store=PlanStore(self.fresh_store_dir()),
            speculative=True,
            estimator=estimator,
        )
        self.scheduler = ServeScheduler(
            self.service, n_workers=self.WORKERS, default_timeout_s=1.0,
            estimator=estimator,
        )

    def prepare(self) -> None:
        super().prepare()
        self._build()

    def calls(self) -> List[Tuple[Callable, Callable[..., Verdict]]]:
        return [
            (lambda w=w: self.scheduler.run(w),
             lambda out, w=w: judge_requests(w, out, self.reference))
            for w in self.windows
        ]

    def counts(self, out) -> Dict[str, float]:
        return _cache_counts([self.service])


class SuiteSweep(Workload):
    name = "suite-sweep"
    setup_repeats = 3
    #: Cases per ``run_suite`` call: the sweep is timed call by call.
    CHUNK = 8

    def setup(self, seed: int) -> None:
        for _ in self.setup_steps(seed):
            pass

    def setup_steps(self, seed: int) -> Iterator[None]:
        # The operands are built CHUNK cases at a time, as they are swept.
        cases = full_corpus()
        self.families = [c.family for c in cases]
        self.algorithms = all_algorithms(DEVICE)
        self.pairs = []
        for lo in range(0, len(cases), self.CHUNK):
            self.pairs += relabelled(cases[lo:lo + self.CHUNK], seed, first=lo)
            yield
        self.reference = Reference(self.pairs)

    def prepare(self) -> None:
        # run_suite releases each case's operands as it finishes, so
        # every replay gets fresh case objects over the same operands.
        self.cases = [
            MatrixCase.from_matrices(name, family, a, b)
            for (name, a, b), family in zip(self.pairs, self.families)
        ]

    def calls(self) -> List[Tuple[Callable, Callable[..., Verdict]]]:
        return [
            (lambda chunk=self.cases[i:i + self.CHUNK]: harness.run_suite(
                chunk, self.algorithms, DEVICE, workers=1
            ), self.judge)
            for i in range(0, len(self.cases), self.CHUNK)
        ]

    def judge(self, out) -> Verdict:
        return judge_suite(out, self.reference)


class FleetElastic(Workload):
    name = "fleet-elastic"
    RATE = 80000.0
    DURATION_S = 0.08
    ALPHA = 1.1
    SCALE_INTERVAL_S = 0.005
    TARGET_P99_S = 0.0001

    def setup(self, seed: int) -> None:
        pairs = slot_operands(FLEET_SLOTS)
        self.requests = arrivals(
            pairs, rate=self.RATE, duration_s=self.DURATION_S,
            alpha=self.ALPHA, seed=seed, timeout_s=0.25,
        )
        self.reference = Reference(pairs)
        self.seed = seed
        self._build()

    def _build(self) -> None:
        self.spec = ClusterSpec(
            n_nodes=2,
            autoscale=True,
            min_nodes=2,
            max_nodes=4,
            target_p99_s=self.TARGET_P99_S,
            scale_interval_s=self.SCALE_INTERVAL_S,
            speculative=True,
            plan_store_dir=self.fresh_store_dir(),
            seed=self.seed,
        )
        self.nodes = build_fleet(self.spec, DEFAULT_PARAMS)

    def prepare(self) -> None:
        for req in self.requests:
            req.attempts = 0
        self._build()

    def replay(self):
        # Looked up on the module at call time, so the traced run's
        # wrapper is the one called.
        return cluster_bench._run_fleet(
            self.requests, self.nodes, self.spec, params=DEFAULT_PARAMS
        )

    def judge(self, out) -> Verdict:
        return judge_requests(self.requests, out.outcomes, self.reference)

    def counts(self, out) -> Dict[str, float]:
        nodes = [out.nodes[n] for n in sorted(out.nodes)]
        counts = _cache_counts([n.service for n in nodes])
        router = out.router
        placed = router.spills + router.home_placements
        counts.update({
            "cluster.spill_share": router.spills / placed if placed else 0.0,
            "cluster.plan_fetches": router.plan_index.fetches,
            "cluster.scale_events": len(out.scaler.events) if out.scaler else 0,
        })
        return counts


WORKLOADS = {w.name: w for w in (ServeHot, ServeChurn, SuiteSweep, FleetElastic)}
