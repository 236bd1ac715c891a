"""Tests for repro.estimate: sampler bounds, speculative planning, consumers.

The contract under test (docs/ESTIMATION.md):

* estimates are deterministic per (structure fingerprints, seed);
* hard bounds (per-row product/output maxima) always hold, statistical
  bounds hold at roughly their stated confidence, and a full sample
  degenerates to the exact value with bound == value;
* speculative execution — with or without a bound-violation fallback —
  is bit-identical to the exact pipeline;
* the `estimate_skew` fault site deterministically exercises fallback;
* the serving-layer consumers (admission, scheduler, plan cache,
  service) degrade to their historical behaviour without an estimator.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiplyContext, SpeckEngine
from repro.check.generator import generate_case, generate_cases
from repro.estimate import (
    RowEstimator,
    estimate_multiply,
    estimated_plan_nbytes,
)
from repro.estimate.sampler import _norm_quantile
from repro.faults import FaultPlan, FaultRule, FaultSpecError, parse_fault_spec
from repro.gpu import TITAN_V
from repro.matrices import generators as gen
from repro.matrices.csr import CSR
from repro.serve import SpGEMMService
from repro.serve.admission import AdmissionController
from repro.serve.plan_ir import compat_key, decode_plan, encode_plan
from repro.serve.plan_cache import PlanCache
from repro.serve.scheduler import Request, ServeScheduler
from repro.serve.workload import WorkloadSpec, run_serve_bench


def _row_products(a: CSR, b: CSR) -> np.ndarray:
    """Exact per-row intermediate-product counts of A @ B."""
    per_entry = b.row_nnz()[a.indices]
    cs = np.zeros(per_entry.size + 1, dtype=np.int64)
    np.cumsum(per_entry, out=cs[1:])
    return cs[a.indptr[1:]] - cs[a.indptr[:-1]]


# ---------------------------------------------------------------------------
# The normal quantile
# ---------------------------------------------------------------------------
def test_norm_quantile():
    assert _norm_quantile(0.5) == pytest.approx(0.0, abs=1e-9)
    assert _norm_quantile(0.9) == pytest.approx(1.2815515655, abs=1e-6)
    assert _norm_quantile(0.975) == pytest.approx(1.9599639845, abs=1e-6)
    # symmetric tails, including the far-tail branches of the approximation
    for p in (0.001, 0.01, 0.2, 0.8, 0.99, 0.999):
        assert _norm_quantile(p) == pytest.approx(-_norm_quantile(1 - p), abs=1e-6)
    for bad in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            _norm_quantile(bad)


# ---------------------------------------------------------------------------
# Sampler invariants across the fuzz families
# ---------------------------------------------------------------------------
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(0, 63))
def test_estimate_invariants_on_fuzz_cases(seed, index):
    """Hard bounds always hold; full samples are exact; seeds determine."""
    case = generate_case(seed, index)
    a, b = case.a, case.b
    est = estimate_multiply(a, b, seed=7)

    # Determinism: same (fingerprints, seed) => bit-identical estimate.
    assert est == estimate_multiply(a, b, seed=7)
    assert est.key == (a.fingerprint(), b.fingerprint())

    # Every Estimate carries bound >= value and the sampling metadata.
    for e in (est.products, est.prod_max, est.c_nnz, est.c_row_max,
              est.footprint_bytes):
        assert e.bound >= e.value >= 0.0
        assert e.sample_size == est.sample_size
        assert e.seed == 7
        assert e.confidence == pytest.approx(0.9)

    prods = _row_products(a, b)
    c = MultiplyContext(a, b).c
    # Hard caps: the per-row maxima bounds hold unconditionally.
    realized_pmax = int(prods.max()) if prods.size else 0
    realized_cmax = int(c.row_nnz().max()) if c.rows else 0
    assert est.prod_max.bound >= realized_pmax
    assert est.c_row_max.bound >= realized_cmax
    # The products bound can never exceed its own hard cap either.
    b_rn = b.row_nnz()
    bmax = int(b_rn.max()) if b.rows else 0
    assert est.products.bound <= a.nnz * bmax + 1e-9

    if est.sample_size >= est.rows:
        # Full sample: exact values, bounds degenerate to equality.
        assert est.products.value == pytest.approx(float(int(prods.sum())))
        assert est.products.bound == est.products.value
        assert est.c_nnz.value == pytest.approx(float(c.nnz))
        assert est.c_nnz.bound == est.c_nnz.value
        assert est.prod_max.value == pytest.approx(float(realized_pmax))
        assert est.c_row_max.value == pytest.approx(float(realized_cmax))


def test_estimate_seed_and_structure_keying():
    a = gen.random_uniform(400, 400, 4.0, seed=1)
    b = gen.random_uniform(400, 400, 4.0, seed=2)
    e0 = estimate_multiply(a, b, seed=0)
    assert 0 < e0.sample_size < a.rows  # genuinely sampled, not exact
    assert e0 == estimate_multiply(a, b, seed=0)
    e1 = estimate_multiply(a, b, seed=1)
    assert e1.key == e0.key
    # Values are never read: same structure, new values, same estimate.
    a2 = CSR(a.indptr.copy(), a.indices.copy(), a.data * 3.0, a.shape)
    assert estimate_multiply(a2, b, seed=0) == e0
    with pytest.raises(ValueError):
        estimate_multiply(a, gen.diagonal(7), seed=0)


def test_confidence_bound_holds_at_stated_rate():
    """The nominal-90% one-sided bounds hold at >= 80% of trials.

    Deterministic loop (not hypothesis): fixed matrix seeds, fixed
    sampler seeds, partial samples (rows >> min_sample).  The slack
    below the stated confidence is the CLT approximation error at
    k=64 on right-skewed count distributions (docs/ESTIMATION.md
    documents the coverage as nominal, not guaranteed — the engine
    verifies at execute time precisely because of this).
    """
    trials, c_holds, p_holds = 120, 0, 0
    for t in range(trials):
        a = gen.random_uniform(320, 320, 4.0, seed=t)
        b = gen.random_uniform(320, 320, 4.0, seed=10_000 + t)
        est = estimate_multiply(a, b, seed=t)
        assert est.sample_size < est.rows
        exact_c = MultiplyContext(a, b).c.nnz
        exact_p = int(_row_products(a, b).sum())
        c_holds += est.c_nnz.bound >= exact_c
        p_holds += est.products.bound >= exact_p
    assert c_holds / trials >= 0.80
    assert p_holds / trials >= 0.80


# ---------------------------------------------------------------------------
# Speculative execution: bit-identity, with and without fallback
# ---------------------------------------------------------------------------
def test_speculative_execute_bit_identical_to_exact():
    engine = SpeckEngine()
    for case in generate_cases(3, 6):
        a, b = case.a, case.b
        exact = engine.multiply(a, b, mode="execute")
        est = estimate_multiply(a, b, seed=0, device=TITAN_V)

        spec = engine.multiply(a, b, mode="execute", estimate=est)
        assert spec.decisions.get("speculative") is True
        assert spec.decisions.get("estimate_sample_size") == est.sample_size
        assert "estimate" in spec.stage_times

        # Deflate every bound so the execute-time verification trips and
        # the engine re-runs the exact pipeline.
        fb = engine.multiply(a, b, mode="execute", estimate=est.skewed(1e-3))
        assert fb.decisions.get("speculative_fallback") is True
        assert fb.stage_times.get("fallback", 0.0) > 0.0

        for res in (spec, fb):
            assert np.array_equal(exact.c.indptr, res.c.indptr)
            assert np.array_equal(exact.c.indices, res.c.indices)
            assert np.array_equal(exact.c.data, res.c.data)


# ---------------------------------------------------------------------------
# The estimate_skew fault site
# ---------------------------------------------------------------------------
def test_estimate_skew_parse_and_validation():
    plan = parse_fault_spec("estimate_skew@skew_*:factor=0.2")
    (rule,) = plan.rules
    assert rule.site == "estimate_skew"
    assert rule.method == "skew_*"
    assert rule.factor == pytest.approx(0.2)
    for bad in (0.0, -1.0):
        with pytest.raises(FaultSpecError):
            FaultRule(site="estimate_skew", factor=bad)


def test_estimate_skew_scope_glob_and_default_factor():
    plan = FaultPlan([FaultRule(site="estimate_skew", method="skew_*", factor=0.5)])
    assert plan.scope("spECK", "skew_20000").estimate_skew() == pytest.approx(0.5)
    # The glob matches the *case* name, not the algorithm name.
    assert plan.scope("spECK", "rmat_s10").estimate_skew() is None
    default = FaultPlan([FaultRule(site="estimate_skew")])
    assert default.scope("spECK", "anything").estimate_skew() == pytest.approx(0.25)


def test_estimate_skew_forces_fallback_through_service():
    a = gen.poisson2d(24)
    skew = FaultPlan([FaultRule(site="estimate_skew", factor=0.01)])
    svc = SpGEMMService(speculative=True)
    res = svc.multiply(a, a, mode="execute", faults=skew, case_name="mesh_24")
    assert res.decisions.get("speculative_fallback") is True
    assert res.decisions.get("estimate_skew") == pytest.approx(0.01)
    exact = SpGEMMService().multiply(a, a, mode="execute")
    assert np.array_equal(exact.c.data, res.c.data)
    assert np.array_equal(exact.c.indices, res.c.indices)


# ---------------------------------------------------------------------------
# RowEstimator memo + consumers
# ---------------------------------------------------------------------------
def test_row_estimator_memo_and_helpers():
    est = RowEstimator(TITAN_V, max_entries=2)
    a = gen.poisson2d(16)
    b = gen.banded(256, 3)
    first = est.estimate(a, a)
    assert est.estimate(a, a) is first
    assert (est.hits, est.misses) == (1, 1)
    assert est.footprint_bound_bytes(a, a) == int(first.footprint_bytes.bound)
    assert est.plan_nbytes(b) == estimated_plan_nbytes(256) == 80 * 256 + 4096
    # LRU bound: filling past max_entries evicts the oldest.
    est.estimate(b, b)
    est.estimate(gen.diagonal(8), gen.diagonal(8))
    assert len(est._memo) == 2


def test_admission_footprint_override():
    ctrl = AdmissionController(TITAN_V)
    assert ctrl.estimate_bytes(100) == 300  # blind output_factor heuristic
    assert ctrl.estimate_bytes(100, footprint=1000) == 1000
    assert ctrl.estimate_bytes(100, footprint=40) == 100  # inputs floor
    reject = ctrl.admit(
        1, queue_depth=0, input_bytes=100, committed_bytes=0,
        footprint=2 * TITAN_V.global_mem_bytes,
    )
    assert reject is not None and not reject.info.retryable


def test_scheduler_cost_bucket_ordering():
    cheap_a = gen.diagonal(16)
    costly_a = gen.random_uniform(256, 256, 8.0, seed=5)
    reqs = lambda: [
        Request(id=0, a=costly_a, b=costly_a, arrival_s=0.0),
        Request(id=1, a=cheap_a, b=cheap_a, arrival_s=0.1),
    ]
    svc = SpGEMMService()
    plain = ServeScheduler(svc)
    q = reqs()
    assert plain._take_batch(q, 0.0)[0].id == 0  # historical arrival order
    est = RowEstimator(TITAN_V)
    informed = ServeScheduler(SpGEMMService(), estimator=est)
    assert informed._cost_bucket(reqs()[1]) < informed._cost_bucket(reqs()[0])
    q = reqs()
    assert informed._take_batch(q, 0.0)[0].id == 1  # cheap request first


def test_plan_cache_est_nbytes_budget_reject():
    a = gen.poisson2d(8)
    cache = PlanCache(max_bytes=10_000)
    plan, hit = cache.get_or_create(a, a, mode="full", est_nbytes=20_000)
    assert not hit and plan is not None
    stats = cache.stats()
    assert stats.entries == 0  # refused up front, never made resident
    assert stats.extra.get("budget_rejects") == 1
    plan2, hit2 = cache.get_or_create(a, a, mode="full", est_nbytes=500)
    assert not hit2 and cache.stats().entries == 1


def test_speculative_plan_mode_roundtrip_and_hits():
    a = gen.poisson2d(12)
    svc = SpGEMMService(speculative=True)
    cold = svc.multiply(a, a, case_name="mesh_12")
    assert cold.decisions.get("speculative") is True
    plan = svc.plans._plans[(a.fingerprint(), a.fingerprint())]
    assert plan.ready and plan.mode == "speculative"
    # The Plan IR round-trips the speculative tag verbatim.
    decoded, compat = decode_plan(encode_plan(plan, svc.compat))
    assert decoded.mode == "speculative"
    assert compat == compat_key(svc.device, svc.engine.params)
    # A speculative service hits its own speculative plans (no refine).
    hot = svc.multiply(a, a, case_name="mesh_12")
    assert hot.decisions.get("plan_cache") == "hit"
    assert svc.plans.refines == 0
    counters = svc.snapshot()["counters"]
    assert counters.get("service.speculative_cold") == 1
    assert "service.speculative_fallbacks" not in counters or (
        counters["service.speculative_fallbacks"] == 0
    )


# ---------------------------------------------------------------------------
# serve-bench smoke: zero wrong results, fallback accounting
# ---------------------------------------------------------------------------
def test_run_serve_bench_speculative_smoke():
    spec = WorkloadSpec(rate=1000.0, duration_s=0.5, seed=0)
    report = run_serve_bench(spec=spec, speculative=True)
    assert report.config["speculative"] is True
    assert report.config["estimate"] is True
    assert report.bit_identical
    assert report.wrong_results == 0
    assert report.speculative_cold > 0
    assert 0.0 <= report.fallback_rate <= 1.0
    assert report.fallbacks <= report.speculative_cold
    # Same seed => same report (the CI job asserts byte-identical JSON).
    again = run_serve_bench(spec=spec, speculative=True)
    assert again.to_json() == report.to_json()


# ---------------------------------------------------------------------------
# CSR value-cache invalidation (satellite API)
# ---------------------------------------------------------------------------
def test_invalidate_values_cache_after_inplace_mutation():
    m = gen.poisson2d(8)
    struct = m.fingerprint()
    stale = m.fingerprint_values()
    m.data[0] += 1.0
    # Documented misuse: in-place writes are not observable...
    assert m.fingerprint_values() == stale
    # ...until the cache is explicitly dropped.
    m.invalidate_values_cache()
    fresh = m.fingerprint_values()
    assert fresh != stale
    ref = CSR(m.indptr.copy(), m.indices.copy(), m.data.copy(), m.shape)
    assert fresh == ref.fingerprint_values()
    assert m.fingerprint() == struct  # structure untouched either way
