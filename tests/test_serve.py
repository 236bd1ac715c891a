"""Tests for the serving layer: plan cache, metrics, admission, scheduler."""

import json

import numpy as np
import pytest

from repro.core.context import device_csr_bytes
from repro.core.params import DEFAULT_PARAMS
from repro.eval.suite import MatrixCase, small_corpus
from repro.faults import parse_fault_spec
from repro.gpu import TITAN_V
from repro.matrices import generators as gen
from repro.serve import (
    AdmissionController,
    AdmissionPolicy,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    PlanCache,
    Request,
    ServeScheduler,
    SpGEMMService,
    WorkloadSpec,
    build_requests,
    plan_key,
    run_serve_bench,
    serve_corpus,
)
from repro.serve import admission as admission_module
from repro.serve import scheduler as scheduler_module


def _mesh(n=16):
    return gen.poisson2d(n)


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------
class TestPlanCache:
    def test_first_lookup_is_miss_second_is_hit_after_populate(self):
        a = _mesh()
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        res = svc.multiply(a, a)
        assert res.decisions["plan_cache"] == "hit"
        stats = svc.plans.stats()
        assert stats.hits == 1 and stats.misses == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_unready_plan_is_not_a_hit(self):
        cache = PlanCache()
        a = _mesh()
        plan1, hit1 = cache.get_or_create(a, a)
        plan2, hit2 = cache.get_or_create(a, a)
        assert not hit1 and not hit2
        assert plan1 is plan2  # same registered in-flight plan

    def test_key_is_structural(self):
        a = _mesh()
        b = a.copy()
        b.data = b.data * 3.0  # same structure, different values
        assert plan_key(a, a) == plan_key(b, b)

    def test_byte_budget_evicts_lru(self):
        # Three equally-sized but structurally distinct operands.
        a, b, c = (
            gen.random_uniform(400, 400, 6.0, seed=s) for s in (1, 2, 3)
        )
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        one_plan_bytes = svc.plans.bytes_cached
        assert one_plan_bytes > 0
        # Budget fits roughly two of these plans.
        svc = SpGEMMService(
            TITAN_V, DEFAULT_PARAMS, plan_cache_bytes=int(2.5 * one_plan_bytes)
        )
        for m in (a, b, c):
            svc.multiply(m, m)
        stats = svc.plans.stats()
        assert stats.evictions >= 1
        assert stats.bytes_cached <= svc.plans.max_bytes
        # The oldest (a) was evicted: multiplying it again is a miss...
        assert svc.multiply(a, a).decisions["plan_cache"] == "miss"
        # ...while the most recent (c) still hits.
        assert svc.multiply(c, c).decisions["plan_cache"] == "hit"

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(ValueError):
            PlanCache(max_bytes=0)

    def test_clear_empties_cache(self):
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        a = _mesh()
        svc.multiply(a, a)
        assert len(svc.plans) == 1
        svc.plans.clear()
        assert len(svc.plans) == 0
        assert svc.multiply(a, a).decisions["plan_cache"] == "miss"


# ---------------------------------------------------------------------------
# Engine plan semantics
# ---------------------------------------------------------------------------
class TestPlanSemantics:
    def test_hit_charges_nothing_for_structural_stages(self):
        a = _mesh(20)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        cold = svc.multiply(a, a)
        hit = svc.multiply(a, a)
        for stage in ("analysis", "symbolic_lb", "symbolic", "numeric_lb"):
            assert hit.stage_times[stage] == 0.0
        assert cold.stage_times["analysis"] > 0.0
        # Numeric + sorting are still charged identically.
        assert hit.stage_times["numeric"] == cold.stage_times["numeric"]
        assert hit.stage_times["sorting"] == cold.stage_times["sorting"]
        assert hit.time_s < cold.time_s

    def test_hit_with_different_values_same_structure(self):
        a = _mesh(16)
        b = a.copy()
        b.data = b.data * 0.5
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        res = svc.multiply(b, b, mode="execute")
        assert res.decisions["plan_cache"] == "hit"
        # C must reflect b's values, not a's.
        expect = svc.multiply(a, a, mode="execute")
        np.testing.assert_allclose(res.c.data, expect.c.data * 0.25)

    def test_forced_spill_does_not_corrupt_cached_plan(self):
        # A fault-injected spill on a hit request must not leak into the
        # cached pass records served to later requests (copy-on-write).
        a = _mesh(16)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        clean = svc.multiply(a, a)
        assert clean.decisions["global_hash_blocks"] == 0
        spilled = svc.multiply(
            a, a, faults=parse_fault_spec("spill:tag=numeric"), case_name="x"
        )
        assert spilled.decisions.get("forced_spill_numeric")
        after = svc.multiply(a, a)
        assert after.decisions["global_hash_blocks"] == 0
        assert after.time_s == clean.time_s

    def test_cold_run_under_forced_spill_caches_pristine_records(self):
        a = _mesh(16)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        cold = svc.multiply(
            a, a, faults=parse_fault_spec("spill:tag=numeric"), case_name="x"
        )
        assert cold.decisions.get("forced_spill_numeric")
        hit = svc.multiply(a, a)
        assert hit.decisions["plan_cache"] == "hit"
        assert hit.decisions["global_hash_blocks"] == 0


class _UfuncSpy(np.ndarray):
    """An array view that logs every ufunc call made on it (``.sum()``
    runs as ``add.reduce``), then computes on the plain array."""

    calls: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        _UfuncSpy.calls.append((ufunc.__name__, method))
        plain = [x.view(np.ndarray) if isinstance(x, _UfuncSpy) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestHitPath:
    """A hit is served from its plan: per-plan constants, per-request
    copies, and the same fault sites as the pipeline's tail."""

    def test_hits_return_independent_dicts(self):
        a = _mesh(20)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        first, second = svc.multiply(a, a), svc.multiply(a, a)
        assert first.decisions == second.decisions
        assert first.stage_times == second.stage_times
        expected = (dict(second.decisions), dict(second.stage_times))
        first.decisions["plan_cache"] = "tampered"
        first.decisions["extra"] = 1
        first.stage_times["numeric"] = -1.0
        first.stage_times.clear()
        third = svc.multiply(a, a)
        assert (second.decisions, second.stage_times) == expected
        assert (third.decisions, third.stage_times) == expected
        assert third.time_s == second.time_s

    def test_row_sizes_are_summed_once_per_plan(self):
        a = _mesh(20)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        cold = svc.multiply(a, a)
        plan = svc.plans.peek(plan_key(a, a))
        c_nnz = int(plan.c_row_nnz.sum())
        plan.c_row_nnz = plan.c_row_nnz.view(_UfuncSpy)
        _UfuncSpy.calls = []
        hits = [svc.multiply(a, a) for _ in range(5)]
        # One add.reduce for the plan, none per request, none for the
        # seeded context's c_nnz.
        assert _UfuncSpy.calls == [("add", "reduce")]
        assert svc.context_for(a, a).c_nnz == c_nnz
        assert _UfuncSpy.calls == [("add", "reduce")]
        assert all(h.peak_mem_bytes == hits[0].peak_mem_bytes for h in hits)
        assert hits[0].peak_mem_bytes <= cold.peak_mem_bytes

    def test_alloc_fault_on_c_fails_and_retries_cold(self):
        a = _mesh(20)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        clean = svc.multiply(a, a)
        faults = parse_fault_spec("alloc:tag=C")
        fired = []
        faults.observer = fired.append
        failed = svc.multiply(a, a, faults=faults, case_name="m")
        assert not failed.valid and failed.retries == 1
        # The hit allocates C in the numeric_lb stage; the cold retry
        # allocates it after the symbolic pass.
        assert [(e["attempt"], e["stage"]) for e in fired] == [
            (1, "numeric_lb"), (2, "symbolic"),
        ]
        retried = svc.multiply(
            a, a, faults=parse_fault_spec("alloc:tag=C:transient"), case_name="m"
        )
        assert retried.valid and retried.retries == 1
        assert retried.decisions["retry_cause"] == "injected"
        # The failed hit charged the call overhead only (nothing ran yet),
        # and the retry re-ran the pipeline cold.
        assert retried.stage_times["retry"] == (
            TITAN_V.call_overhead_s + TITAN_V.malloc_s
        )
        assert retried.stage_times["analysis"] > 0.0
        after = svc.multiply(a, a)
        assert (after.time_s, after.decisions) == (clean.time_s, clean.decisions)

    def test_sorting_launch_fault_charges_the_numeric_pass(self):
        case = next(c for c in serve_corpus() if c.name == "rmat_s11")
        a, b = case.matrices()
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, b)
        clean = svc.multiply(a, b)
        assert clean.stage_times["sorting"] > 0.0
        retried = svc.multiply(
            a, b, faults=parse_fault_spec("launch:tag=sorting:transient"),
            case_name="m",
        )
        assert retried.valid and retried.retries == 1
        assert retried.stage_times["retry"] == (
            TITAN_V.call_overhead_s + clean.stage_times["numeric"]
            + TITAN_V.malloc_s
        )

    def test_forced_numeric_spill_on_a_hit_charges_a_global_map(self):
        a = _mesh(20)
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        svc.multiply(a, a)
        clean = svc.multiply(a, a)
        spilled = svc.multiply(
            a, a, faults=parse_fault_spec("spill:tag=numeric"), case_name="x"
        )
        assert spilled.valid and spilled.retries == 0
        assert spilled.decisions["plan_cache"] == "hit"
        assert spilled.decisions["forced_spill_numeric"] is True
        assert list(spilled.decisions)[:2] == ["plan_cache", "forced_spill_numeric"]
        assert spilled.decisions["global_hash_blocks"] == (
            clean.decisions["global_hash_blocks"] + 1
        )
        assert spilled.peak_mem_bytes > clean.peak_mem_bytes
        assert spilled.stage_times == clean.stage_times
        assert spilled.time_s == clean.time_s
        faults = parse_fault_spec("spill:tag=numeric;alloc:tag=numeric global maps")
        fired = []
        faults.observer = fired.append
        failed = svc.multiply(a, a, faults=faults, case_name="x")
        assert not failed.valid and failed.retries == 1
        assert [(e["attempt"], e["site"], e["stage"]) for e in fired] == [
            (1, "spill", "numeric"), (1, "alloc", "numeric"),
            (2, "spill", "numeric"), (2, "alloc", "numeric"),
        ]


# ---------------------------------------------------------------------------
# Satellite: cache-hit correctness + cost across the suite
# ---------------------------------------------------------------------------
def _property_cases():
    cases = list(small_corpus())
    cases.append(
        MatrixCase(name="mesh3d_extra", family="mesh", build_a=lambda: gen.poisson3d(7))
    )
    cases.append(
        MatrixCase(
            name="blocks_extra",
            family="blocks",
            build_a=lambda: gen.block_dense(400, 16, 6, seed=44),
        )
    )
    return cases


@pytest.mark.parametrize("case", _property_cases(), ids=lambda c: c.name)
def test_cache_hit_bit_identical_and_cheaper_across_suite(case):
    """Across ≥10 suite matrices: a plan-cache-hit multiply returns C
    bit-identical to the cold run and models a strictly lower analysis
    stage (and total) time."""
    a, b = case.matrices()
    svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
    cold = svc.multiply(a, b, mode="execute", case_name=case.name)
    hit = svc.multiply(a, b, mode="execute", case_name=case.name)
    assert hit.decisions["plan_cache"] == "hit"
    assert np.array_equal(cold.c.indptr, hit.c.indptr)
    assert np.array_equal(cold.c.indices, hit.c.indices)
    assert np.array_equal(cold.c.data, hit.c.data)
    assert hit.stage_times["analysis"] < cold.stage_times["analysis"]
    assert hit.time_s < cold.time_s


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        c = Counter("x", "help")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_tracks_max(self):
        g = Gauge("q", "help")
        g.set(3)
        g.inc(2)
        g.set(1)
        assert g.value == 1
        assert g.max_seen == 5

    def test_histogram_percentiles_bracket_observations(self):
        h = Histogram("lat", "help")
        for v in np.linspace(1e-4, 1e-2, 500):
            h.observe(float(v))
        snap = h.snapshot()
        assert snap["count"] == 500
        assert snap["min"] <= snap["p50"] <= snap["p95"] <= snap["p99"] <= snap["max"]
        assert snap["p50"] == pytest.approx(5e-3, rel=0.25)

    def test_histogram_buckets_match_the_linear_search(self):
        """``observe`` buckets every value where the hand-written binary
        search it replaced did: at the first bound >= the value."""

        def old_bucket(bounds, v):
            lo, hi = 0, len(bounds)
            while lo < hi:
                mid = (lo + hi) // 2
                if bounds[mid] >= v:
                    hi = mid
                else:
                    lo = mid + 1
            return lo

        h = Histogram("lat", "help", lo=1e-4, hi=1.0, growth=1.5)
        bounds = list(h._bounds)
        values = [0.0, -1.0, 1e-9, 1e-4 / 2, 2.0, 1e6]
        values += bounds
        values += [(x + y) / 2 for x, y in zip(bounds, bounds[1:])]
        values += [np.nextafter(b, np.inf) for b in bounds]
        for v in values:
            before = list(h._counts)
            h.observe(float(v))
            changed = [i for i, (x, y) in enumerate(zip(before, h._counts)) if x != y]
            assert changed == [old_bucket(bounds, max(0.0, float(v)))], v
        # 0, the clamped negative, two values below lo, and lo itself
        assert h._counts[0] == 5
        # two values above hi, and the one just past it
        assert h._counts[-1] == 3

    def test_histogram_rejects_non_finite(self):
        h = Histogram("lat", "help")
        with pytest.raises(ValueError):
            h.observe(float("nan"))
        with pytest.raises(ValueError):
            h.observe(float("inf"))

    def test_registry_snapshot_and_json(self):
        m = MetricsRegistry()
        m.counter("a", "ca").inc(2)
        m.gauge("b", "gb").set(7)
        m.histogram("c", "hc").observe(0.5)
        snap = m.snapshot()
        assert snap["counters"]["a"] == 2
        assert snap["gauges"]["b"]["value"] == 7
        assert snap["histograms"]["c"]["count"] == 1
        parsed = json.loads(m.to_json())
        assert parsed["counters"]["a"] == 2

    def test_registry_get_or_create_is_idempotent(self):
        m = MetricsRegistry()
        assert m.counter("a", "x") is m.counter("a", "x")

    def test_service_looks_each_metric_up_once(self, monkeypatch):
        """The service binds a metric on first use: later requests skip
        the registry, and the snapshot lists only what requests touched."""
        svc = SpGEMMService()
        registry = svc.metrics
        lookups = []
        for kind in ("counter", "gauge", "histogram"):
            original = getattr(registry, kind)

            def counted(name, help="", _original=original, **kw):
                lookups.append(name)
                return _original(name, help, **kw)

            monkeypatch.setattr(registry, kind, counted)
        a = _mesh()
        for _ in range(4):
            svc.multiply(a, a)
        assert sorted(lookups) == sorted(set(lookups))
        snap = svc.snapshot()
        assert snap["counters"]["service.requests"] == 4
        assert snap["counters"]["service.plan_hits"] == 3
        assert snap["counters"]["service.plan_misses"] == 1
        assert "service.failures" not in snap["counters"]
        assert snap["histograms"]["service.latency_hit_s"]["count"] == 3


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class TestAdmission:
    def _ctl(self, **kw):
        return AdmissionController(TITAN_V, AdmissionPolicy(**kw))

    def test_admits_when_unloaded(self):
        ctl = self._ctl()
        assert ctl.admit(1, queue_depth=0, input_bytes=1000, committed_bytes=0) is None

    def test_sheds_on_queue_depth(self):
        ctl = self._ctl(max_queue_depth=4)
        rej = ctl.admit(1, queue_depth=4, input_bytes=1000, committed_bytes=0)
        assert rej is not None and rej.reason == "queue_full"
        assert rej.retryable
        assert rej.info.kind == "shed" and rej.info.stage == "admission"

    def test_sheds_on_memory_pressure(self):
        ctl = self._ctl()
        rej = ctl.admit(
            1, queue_depth=0, input_bytes=1000, committed_bytes=ctl.memory_limit
        )
        assert rej is not None and rej.reason == "memory_pressure"
        assert rej.retryable

    def test_rejects_oversized_permanently(self):
        ctl = self._ctl()
        rej = ctl.admit(
            1, queue_depth=0, input_bytes=ctl.memory_limit + 1, committed_bytes=0
        )
        assert rej is not None and rej.reason == "oversized"
        assert not rej.retryable

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            AdmissionPolicy(max_queue_depth=0)

    def test_reject_as_dict(self):
        ctl = self._ctl(max_queue_depth=1)
        rej = ctl.admit(7, queue_depth=1, input_bytes=10, committed_bytes=0)
        d = rej.as_dict()
        assert d["request_id"] == 7 and d["reason"] == "queue_full"


# ---------------------------------------------------------------------------
# Service failure semantics
# ---------------------------------------------------------------------------
class TestServiceFailures:
    def test_injected_persistent_fault_returns_invalid_never_raises(self):
        a = _mesh()
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        res = svc.multiply(
            a, a, faults=parse_fault_spec("alloc:n=1"), case_name="m"
        )
        assert not res.valid
        assert res.failure_info is not None
        snap = svc.snapshot()
        assert snap["counters"]["service.failures"] == 1

    def test_transient_fault_recovers_via_engine_retry(self):
        a = _mesh()
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        res = svc.multiply(
            a, a, faults=parse_fault_spec("alloc:n=1:transient"), case_name="m"
        )
        assert res.valid
        assert res.retries == 1
        assert svc.snapshot()["counters"]["service.engine_retries"] == 1


# ---------------------------------------------------------------------------
# Scheduler
# ---------------------------------------------------------------------------
def _requests(case_matrix, times, **kw):
    a = case_matrix
    return [
        Request(id=i, a=a, b=a, arrival_s=t, **kw) for i, t in enumerate(times)
    ]


class TestScheduler:
    def _sched(self, **kw):
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        return ServeScheduler(svc, **kw)

    def test_serves_everything_when_unloaded(self):
        a = _mesh()
        sched = self._sched(n_workers=2)
        outs = sched.run(_requests(a, [0.0, 0.01, 0.02, 0.03]))
        assert len(outs) == 4
        assert all(o.ok for o in outs)
        # First request is the cold one; the rest hit the plan cache.
        assert sum(o.cache_hit for o in outs) == 3

    def test_high_priority_served_before_earlier_low_priority(self):
        a, b = _mesh(12), gen.banded(300, 4, seed=9)
        # One worker, three distinct-structure requests queued at once.
        reqs = [
            Request(id=0, a=a, b=a, arrival_s=0.0, priority=1),
            Request(id=1, a=b, b=b, arrival_s=0.0, priority=1),
            Request(id=2, a=b, b=b, arrival_s=0.0, priority=0),
        ]
        sched = self._sched(n_workers=1, max_batch=1)
        outs = {o.request_id: o for o in sched.run(reqs)}
        # The priority-0 request must start no later than request 1 even
        # though it carries a higher id and equal arrival time.
        assert outs[2].start_s <= outs[1].start_s

    def test_same_structure_requests_batch(self):
        a = _mesh()
        sched = self._sched(n_workers=1, max_batch=8)
        outs = sched.run(_requests(a, [0.0] * 5))
        assert all(o.ok for o in outs)
        snap = sched.service.snapshot()
        assert snap["counters"]["scheduler.batched_requests"] >= 4

    def test_deadline_miss_times_out_with_structured_info(self):
        a = _mesh(40)  # service time >> the deadline below
        reqs = _requests(a, [0.0, 0.0, 0.0], timeout_s=1e-7)
        sched = self._sched(n_workers=1, max_batch=1)
        outs = sched.run(reqs)
        timeouts = [o for o in outs if o.status == "timeout"]
        assert timeouts
        assert all(o.info is not None and o.info.kind == "timeout" for o in timeouts)

    def test_retryable_failure_is_requeued_and_recovers(self, monkeypatch):
        a = _mesh()
        # Transient launch fault: fires once per (matrix, method) scope.
        # The engine's internal fallback handles it, so force a terminal
        # failure first via a persistent plan restricted to attempt flow:
        monkeypatch.setattr(scheduler_module, "MAX_RETRIES", 2)
        sched = self._sched(n_workers=1)
        sched.faults = parse_fault_spec("launch:tag=numeric:p=0.3;seed=1")
        outs = sched.run(_requests(a, [i * 1e-4 for i in range(20)], case_name="m"))
        assert len(outs) == 20
        # Nothing crashes; every outcome is terminal.
        assert all(o.status in ("ok", "failed", "timeout") for o in outs)

    def test_overload_sheds_instead_of_crashing(self):
        a = gen.dense_stripe(2000, 512, 24, seed=2000)
        reqs = _requests(a, list(np.linspace(0.0, 0.01, 2000)))
        sched = self._sched(
            n_workers=1, policy=AdmissionPolicy(max_queue_depth=16)
        )
        outs = sched.run(reqs)
        assert len(outs) == 2000
        shed = [o for o in outs if o.status == "shed"]
        assert shed
        assert all(o.reject is not None for o in shed)
        assert sched.service.snapshot()["counters"]["scheduler.shed"] == len(shed)

    def test_inflight_bytes_stay_committed_until_completion(self, monkeypatch):
        # Memory for one request's footprint but not two: a second
        # arrival while the first still runs fits only if the running
        # request's bytes were (wrongly) released at dispatch.
        a = _mesh(40)
        first = Request(id=0, a=a, b=a, arrival_s=0.0)
        limit = AdmissionController(TITAN_V).memory_limit
        monkeypatch.setattr(
            admission_module, "OUTPUT_FACTOR", 0.6 * limit / first.input_bytes()
        )
        service_s = SpGEMMService(TITAN_V, DEFAULT_PARAMS).multiply(a, a).time_s
        second = Request(id=1, a=a, b=a, arrival_s=0.5 * service_s)
        outs = self._sched(n_workers=1).run([first, second])
        by_id = {o.request_id: o for o in outs}
        assert by_id[0].ok and by_id[0].finish_s > second.arrival_s
        assert by_id[1].status == "shed"
        assert by_id[1].reject.reason == "memory_pressure"

    def test_input_bytes_survive_a_retry(self):
        a = gen.random_uniform(30, 40, 4.0, seed=5)
        b = gen.random_uniform(40, 20, 3.0, seed=6)
        req = Request(id=0, a=a, b=b, arrival_s=0.0, case_name="m")
        sched = self._sched(n_workers=1)
        sched.faults = parse_fault_spec("launch:tag=numeric")
        (out,) = sched.run([req])
        assert out.status == "failed" and req.attempts == 1
        assert req.input_bytes() == (
            device_csr_bytes(a.rows, a.nnz) + device_csr_bytes(b.rows, b.nnz)
        )
        assert sched.committed == 0

    def test_rejects_bad_config(self):
        svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS)
        with pytest.raises(ValueError):
            ServeScheduler(svc, n_workers=0)
        with pytest.raises(ValueError):
            ServeScheduler(svc, max_batch=0)


# ---------------------------------------------------------------------------
# Workload + bench
# ---------------------------------------------------------------------------
class TestWorkload:
    def test_build_requests_deterministic(self):
        cases = small_corpus()[:3]
        spec = WorkloadSpec(rate=500, duration_s=0.2, seed=3)
        r1 = build_requests(cases, spec)
        r2 = build_requests(cases, spec)
        assert [r.arrival_s for r in r1] == [r.arrival_s for r in r2]
        assert [r.case_name for r in r1] == [r.case_name for r in r2]

    def test_build_requests_zipf_skew(self):
        cases = small_corpus()
        spec = WorkloadSpec(rate=5000, duration_s=0.5, seed=0)
        reqs = build_requests(cases, spec)
        counts = {}
        for r in reqs:
            counts[r.case_name] = counts.get(r.case_name, 0) + 1
        top = max(counts.values())
        assert top / len(reqs) > 0.25  # hottest operand dominates

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(rate=0)
        with pytest.raises(ValueError):
            WorkloadSpec(duration_s=-1)

    def test_serve_corpus_has_distinct_structures(self):
        fps = set()
        for case in serve_corpus():
            a, _ = case.matrices()
            fps.add(a.fingerprint())
        assert len(fps) == len(serve_corpus())


class TestServeBench:
    @pytest.fixture(scope="class")
    def report(self):
        return run_serve_bench(
            cases=small_corpus()[:4],
            spec=WorkloadSpec(rate=2000, duration_s=0.25, seed=0),
            n_workers=2,
        )

    def test_report_meets_service_criteria(self, report):
        assert report.offered > 0
        assert report.completed > 0
        assert report.hit_rate >= 0.5
        assert report.hit_speedup >= 1.2
        assert report.bit_identical

    def test_report_json_roundtrip(self, report):
        d = json.loads(report.to_json())
        assert d["offered"] == report.offered
        assert "hit_rate" in d and "metrics" in d

    def test_report_render_mentions_key_stats(self, report):
        text = report.render()
        assert "hit rate" in text and "speedup" in text and "shed" in text
