"""Tests for :mod:`repro.graph`: masked, chained, incremental SpGEMM.

Covers the three engines' differential laws (masked = post-filtered full
product; chain = sequential multiplies; incremental = full recompute,
all bit-identical), the plan-cache tag keying that keeps masked plans
from colliding with plain ones, the ``mask_drop`` fault site and its
oracle/ddmin pipeline, the planted graph mutations, the serve-bench
workload modes, and the MCL migration onto :class:`ChainRunner`.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import csr_matrices
from repro.apps.mcl import markov_clustering
from repro.check.generator import generate_case
from repro.check.graph_checks import GRAPH_MUTATIONS, delta_for, mask_for
from repro.check.runner import run_check
from repro.core.params import DEFAULT_PARAMS
from repro.core.speck import SpeckEngine
from repro.eval.suite import MatrixCase
from repro.faults import parse_fault_spec
from repro.gpu import TITAN_V
from repro.graph.chain import ChainRunner, chain, chain_apply
from repro.graph.delta import (
    apply_delta,
    blast_radius,
    incremental_multiply,
    invert_delta,
    random_delta,
)
from repro.graph.masked import (
    MaskedContext,
    mask_plan_tag,
    multiply_masked,
    triangle_count,
)
from repro.kernels.reference import esc_multiply
from repro.matrices import generators as gen
from repro.matrices import ops
from repro.matrices.csr import CSR
from repro.serve.admission import BrownoutInfo
from repro.serve.plan_cache import plan_key
from repro.serve.service import SpGEMMService
from repro.serve.workload import WorkloadSpec, run_serve_bench


def bitwise_equal(x: CSR, y: CSR) -> bool:
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data, y.data)
    )


def random_mask(rng, rows, cols, density=0.3) -> CSR:
    k = max(1, int(round(rows * cols * density)))
    r = rng.integers(0, rows, size=k)
    c = rng.integers(0, cols, size=k)
    return CSR.from_coo(
        r, c, np.ones(k), (rows, cols), sum_duplicates=False
    )


def small_service() -> SpGEMMService:
    return SpGEMMService(TITAN_V, DEFAULT_PARAMS)


# ---------------------------------------------------------------------------
# Masked SpGEMM
# ---------------------------------------------------------------------------
class TestMasked:
    def test_model_equals_postfiltered_esc(self, rng, small_pairs):
        for a, b in small_pairs:
            m = random_mask(rng, a.rows, b.cols)
            res = multiply_masked(a, b, m)
            assert res.valid
            want = ops.mask(esc_multiply(a, b), ops.pattern(m))
            assert bitwise_equal(res.c, want)
            assert res.decisions["masked"] is True
            assert 0.0 <= res.decisions["mask_prune_ratio"] <= 1.0

    def test_execute_equals_postfiltered_execute(self, rng):
        a = gen.poisson2d(10)
        m = random_mask(rng, a.rows, a.cols)
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        full = engine.multiply(a, a, mode="execute")
        res = multiply_masked(a, a, m, mode="execute", engine=engine)
        assert res.valid
        assert bitwise_equal(res.c, ops.mask(full.c, ops.pattern(m)))

    def test_pruning_shrinks_modelled_work(self, rng):
        a = gen.banded(80, 4, seed=9)
        m = random_mask(rng, a.rows, a.cols, density=0.05)
        ctx = MaskedContext(a, a, m)
        from repro.core.context import MultiplyContext

        full = MultiplyContext(a, a)
        assert ctx.analysis.prod_total < full.analysis.prod_total
        assert ctx.prune_ratio > 0.0

    def test_mask_shape_mismatch_raises(self):
        a = gen.poisson2d(4)
        bad = gen.poisson2d(5)
        with pytest.raises(ValueError):
            MaskedContext(a, a, bad)

    def test_triangle_count_matches_dense(self):
        rng = np.random.default_rng(77)
        n = 40
        d = (rng.random((n, n)) < 0.15).astype(float)
        d = np.triu(d, 1)
        d = d + d.T
        r, c = np.nonzero(d)
        a = CSR.from_coo(r, c, d[r, c], (n, n))
        want = int(round(np.trace(d @ d @ d) / 6.0))
        assert triangle_count(a) == want
        assert triangle_count(a, mode="execute") == want


# ---------------------------------------------------------------------------
# Plan-cache keying: mask tags must never collide with plain plans
# ---------------------------------------------------------------------------
class TestPlanKeying:
    def test_tagged_key_is_distinct(self):
        a = gen.poisson2d(6)
        assert plan_key(a, a) == plan_key(a, a, "")
        assert plan_key(a, a, "masked:x") != plan_key(a, a)
        assert plan_key(a, a, "masked:x") != plan_key(a, a, "masked:y")

    def test_masked_and_plain_plans_coexist(self, rng):
        a = gen.poisson2d(8)
        m = random_mask(rng, a.rows, a.cols)
        svc = small_service()
        masked = multiply_masked(a, a, m, service=svc, mode="execute")
        assert masked.valid
        plain = svc.multiply(a, a, mode="execute")
        # The masked plan must NOT be served to the unmasked request.
        assert plain.decisions["plan_cache"] == "miss"
        assert bitwise_equal(
            masked.c, ops.mask(plain.c, ops.pattern(m))
        )
        # Both plans live side by side under distinct keys.
        assert svc.plans.peek(plan_key(a, a)) is not None
        assert svc.plans.peek(plan_key(a, a, mask_plan_tag(m))) is not None

    def test_untagged_masked_caching_poisons_plain_key(self, rng):
        """The planted bug the tag fixes: caching a masked plan without
        its tag parks mask-pruned facts under the plain key, where the
        next unmasked request would pick them up."""
        a = gen.poisson2d(8)
        m = random_mask(rng, a.rows, a.cols, density=0.1)
        svc = small_service()
        ctx = MaskedContext(a, a, m)
        svc.multiply(a, a, ctx=ctx, plan_tag="")  # the bug: no tag
        poisoned = svc.plans.peek(plan_key(a, a))
        assert poisoned is not None and poisoned.ready
        true_nnz = int(esc_multiply(a, a).nnz)
        # The cached facts are pruned — served to a plain request they
        # would under-size every allocation and misdrive binning.
        assert int(poisoned.c_row_nnz.sum()) < true_nnz


# ---------------------------------------------------------------------------
# Chained products
# ---------------------------------------------------------------------------
class TestChain:
    def test_chain_matches_sequential(self):
        a = gen.rmat(6, 4, seed=11)
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        for k in (2, 3, 4):
            cr = chain(a, k, engine=engine, mode="execute")
            assert cr.valid and cr.method == "chain"
            assert cr.decisions["chain_steps"] == k - 1
            ref = a
            for _ in range(k - 1):
                ref = engine.multiply(ref, a, mode="execute").c
            assert bitwise_equal(cr.c, ref)

    def test_chain_power_one_is_identity(self):
        a = gen.poisson2d(5)
        cr = chain(a, 1)
        assert cr.valid and cr.decisions["chain_steps"] == 0
        assert cr.c is a and cr.time_s == 0.0

    def test_chain_validation(self):
        with pytest.raises(ValueError):
            chain(gen.rect_lp(10, 30, 3, seed=1), 2)
        with pytest.raises(ValueError):
            chain(gen.poisson2d(4), 0)

    def test_chain_seeds_estimates_after_first_step(self):
        a = gen.banded(100, 3, seed=4)
        cr = chain(a, 4)
        assert cr.valid
        # Step one plans exactly; later cold steps plan speculatively
        # from the previous iteration's exact stats.
        assert cr.decisions["chain_seeded"] >= 1

    def test_chain_reuses_plans_across_runs(self):
        a = gen.poisson2d(9)
        svc = small_service()
        first = chain_apply(a, [a, a], service=svc)
        again = chain_apply(a, [a, a], service=svc)
        assert first.valid and again.valid
        assert again.decisions["chain_plan_hits"] == 2
        assert again.decisions["chain_plan_misses"] == 0
        assert bitwise_equal(first.c, again.c)

    def test_failed_step_stops_chain(self):
        a = gen.poisson2d(6)
        faults = parse_fault_spec("alloc@*")
        cr = chain_apply(a, [a, a], faults=faults, case_name="x")
        assert not cr.valid and cr.method == "chain"
        assert cr.failure_info is not None
        assert cr.decisions["chain_steps"] == 1

    def test_chain_result_sums_its_steps(self):
        a = gen.poisson2d(7)
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        runner = ChainRunner(engine=engine)
        first = runner.step(a, a)
        steps = [first, runner.step(first.c, a)]
        cr = chain(a, 3, engine=engine)
        assert cr.time_s == steps[0].time_s + steps[1].time_s
        assert cr.peak_mem_bytes == max(r.peak_mem_bytes for r in steps)
        assert cr.retries == 0
        for name, t in cr.stage_times.items():
            assert t == steps[0].stage_times.get(name, 0.0) + steps[
                1
            ].stage_times.get(name, 0.0)


# ---------------------------------------------------------------------------
# Incremental SpGEMM
# ---------------------------------------------------------------------------
class TestDelta:
    def test_roundtrip_restores_bits(self, rng):
        a = gen.rmat(6, 5, seed=3)
        delta = random_delta(a, rng=rng, frac=0.3)
        a_new = apply_delta(a, delta)
        back = apply_delta(a_new, invert_delta(a, delta))
        assert bitwise_equal(a, back)

    def test_random_delta_deterministic(self):
        a = gen.poisson2d(7)
        d1 = random_delta(a, rng=42)
        d2 = random_delta(a, rng=42)
        assert np.array_equal(d1.rows, d2.rows)
        assert bitwise_equal(d1.payload, d2.payload)

    def test_blast_radius_widens_for_self_product(self, rng):
        a = gen.banded(60, 2, seed=8)
        delta = random_delta(a, rng=rng, frac=0.05)
        a_new = apply_delta(a, delta)
        narrow = blast_radius(a_new, delta, self_product=False)
        wide = blast_radius(a_new, delta, self_product=True)
        assert set(narrow) <= set(wide)
        assert np.array_equal(narrow, delta.rows)

    def test_incremental_matches_full_independent_b(self, rng):
        a = gen.rmat(6, 4, seed=21)
        b = gen.random_uniform(a.cols, a.cols, 3.0, seed=5)
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        c_old = engine.multiply(a, b, mode="execute").c
        delta = random_delta(a, rng=rng, frac=0.1)
        inc = incremental_multiply(
            a, b, c_old, delta, engine=engine, mode="execute"
        )
        assert inc.valid and inc.method == "incremental"
        assert inc.decisions["full_recompute"] is False
        assert inc.decisions["rows_recomputed"] < inc.decisions["rows_total"]
        assert inc.decisions["recompute_ratio"] < 1.0
        a_new = apply_delta(a, delta)
        ref = engine.multiply(a_new, b, mode="execute").c
        assert bitwise_equal(inc.c, ref)

    def test_incremental_matches_full_self_product(self, rng):
        a = gen.poisson2d(9)
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        c_old = engine.multiply(a, a, mode="execute").c
        delta = random_delta(a, rng=rng, frac=0.03)
        inc = incremental_multiply(
            a, a, c_old, delta, engine=engine, mode="execute"
        )
        assert inc.valid
        assert inc.decisions["self_product"] is True
        a_new = apply_delta(a, delta)
        ref = engine.multiply(a_new, a_new, mode="execute").c
        assert bitwise_equal(inc.c, ref)

    def test_threshold_forces_full_recompute(self, rng):
        a = gen.poisson2d(6)
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        c_old = engine.multiply(a, a).c
        delta = random_delta(a, rng=rng, frac=0.9)
        inc = incremental_multiply(a, a, c_old, delta, engine=engine)
        assert inc.valid and inc.decisions["full_recompute"] is True
        assert inc.decisions["recompute_ratio"] == 1.0
        assert inc.decisions["rows_recomputed"] == inc.decisions["rows_total"]

    def test_full_recompute_plans_at_the_dispatch_rung(self, rng):
        a = gen.poisson2d(20)
        svc = small_service()
        c_old = svc.multiply(a, a).c
        delta = random_delta(a, rng=rng, frac=0.9)
        rung = BrownoutInfo(
            mode="lb_fallback", pressure=0.6, queue_frac=0.6, memory_frac=0.0
        )
        inc = incremental_multiply(a, a, c_old, delta, service=svc, brownout=rung)
        assert inc.valid and inc.decisions["full_recompute"] is True
        assert inc.decisions["brownout"]["mode"] == "lb_fallback"
        counters = svc.snapshot()["counters"]
        assert counters["service.brownout_lb_fallback"] == 1
        assert counters["service.brownout_cold_plans"] == 1

    def test_plan_patching_yields_hit_for_new_structure(self, rng):
        a = gen.banded(80, 3, seed=13)
        b = gen.random_uniform(a.cols, a.cols, 2.0, seed=6)
        svc = small_service()
        c_old = svc.multiply(a, b).c
        delta = random_delta(a, rng=rng, frac=0.05)
        inc = incremental_multiply(a, b, c_old, delta, service=svc)
        assert inc.valid and inc.decisions["plan_patched"] is True
        a_new = apply_delta(a, delta)
        after = svc.multiply(a_new, b, mode="execute")
        assert after.decisions["plan_cache"] == "hit"
        cold = SpeckEngine(TITAN_V, DEFAULT_PARAMS).multiply(
            a_new, b, mode="execute"
        )
        assert bitwise_equal(after.c, cold.c)


    def test_patched_plan_equals_cold_plan(self):
        a = gen.banded(80, 3, seed=13)
        b = gen.random_uniform(a.cols, a.cols, 2.0, seed=6)
        svc = small_service()
        c_old = svc.multiply(a, b).c
        delta = random_delta(a, rng=np.random.default_rng(0), frac=0.05)
        inc = incremental_multiply(a, b, c_old, delta, service=svc)
        assert inc.decisions["plan_patched"] is True
        a_new = apply_delta(a, delta)
        cold_svc = small_service()
        cold_svc.multiply(a_new, b)
        key = plan_key(a_new, b)
        patched, cold = svc.plans.peek(key), cold_svc.plans.peek(key)

        def same(x, y, what):
            if isinstance(x, np.ndarray):
                assert x.dtype == y.dtype and np.array_equal(x, y), what
            else:
                assert x == y, what

        for name in (
            "products", "max_ref_row", "col_min", "col_max", "a_row_nnz",
            "adjacency",
        ):
            same(getattr(patched.analysis, name), getattr(cold.analysis, name), name)
        for name in (
            "c_row_nnz", "use_lb_symbolic", "use_lb_numeric", "ratio_symbolic",
            "ratio_numeric", "checksum",
        ):
            same(getattr(patched, name), getattr(cold, name), name)
        for name in ("plan_sym", "plan_num", "sym", "num"):
            x, y = getattr(patched, name), getattr(cold, name)
            for f in dataclasses.fields(x):
                same(getattr(x, f.name), getattr(y, f.name), f"{name}.{f.name}")


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------
class TestProperties:
    @given(csr_matrices(max_rows=20, max_cols=16), st.integers(0, 2**31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_apply_invert_roundtrip(self, a, seed):
        delta = random_delta(a, rng=seed, frac=0.4)
        a_new = apply_delta(a, delta)
        assert bitwise_equal(a, apply_delta(a_new, invert_delta(a, delta)))

    @given(st.integers(0, 10_000), st.integers(0, 200))
    @settings(max_examples=25, deadline=None)
    def test_incremental_matches_full_across_families(self, seed, index):
        """Across the fuzz generator's families (banded, blocks, power-law,
        …, including ``b_mode="same"`` self-products), an incremental
        update is bit-identical to recomputing from scratch."""
        case = generate_case(seed, index)
        a, b = case.a, case.b
        engine = SpeckEngine(TITAN_V, DEFAULT_PARAMS)
        full_old = engine.multiply(a, b, mode="execute")
        if not full_old.valid:
            return
        delta = delta_for(seed, index, a)
        inc = incremental_multiply(
            a, b, full_old.c, delta, engine=engine, mode="execute"
        )
        assert inc.valid
        a_new = apply_delta(a, delta)
        b_new = a_new if b is a else b
        ref = engine.multiply(a_new, b_new, mode="execute")
        assert ref.valid
        assert bitwise_equal(inc.c, ref.c)


# ---------------------------------------------------------------------------
# Oracle integration: planted mutations, mask_drop faults, ddmin
# ---------------------------------------------------------------------------
class TestOracle:
    def test_clean_run_passes_graph_checks(self):
        report = run_check(0, 6, laws=False)
        assert report.ok, report.render()

    @pytest.mark.parametrize("mutation", sorted(GRAPH_MUTATIONS))
    def test_planted_graph_bugs_are_caught(self, mutation):
        report = run_check(3, 6, mutation=mutation, laws=False)
        assert not report.ok
        workload = GRAPH_MUTATIONS[mutation]
        checks = {
            f["check"] for v in report.failures for f in v.failures
        }
        assert any(workload in c for c in checks), checks

    def test_unknown_mutation_lists_graph_names(self):
        with pytest.raises(KeyError, match="mask-overprune"):
            run_check(0, 1, mutation="no-such-bug", laws=False)

    def test_mask_drop_fault_caught_and_minimized(self, tmp_path):
        faults = parse_fault_spec("mask_drop@*")
        report = run_check(
            3, 6, faults=faults, laws=False,
            artifact_dir=str(tmp_path), max_minimize=1,
        )
        assert not report.ok
        assert report.injections > 0
        checks = {
            f["check"] for v in report.failures for f in v.failures
        }
        assert "differential:masked" in checks
        # ddmin shrank at least one failing case into a reproducer.
        assert report.artifacts

    def test_workload_generators_are_deterministic(self):
        m1 = mask_for(5, 9, (12, 14))
        m2 = mask_for(5, 9, (12, 14))
        assert bitwise_equal(m1, m2)
        a = gen.poisson2d(5)
        d1 = delta_for(5, 9, a)
        d2 = delta_for(5, 9, a)
        assert np.array_equal(d1.rows, d2.rows)
        assert bitwise_equal(d1.payload, d2.payload)


# ---------------------------------------------------------------------------
# Serving integration: serve-bench workload modes
# ---------------------------------------------------------------------------
def _tiny_corpus():
    return [
        MatrixCase("mesh_20", "mesh", lambda: gen.poisson2d(20)),
        MatrixCase("rmat_s6", "powerlaw", lambda: gen.rmat(6, 4, seed=12)),
        MatrixCase("band_200", "banded", lambda: gen.banded(200, 3, seed=7)),
    ]


def _bench(workload, **kwargs):
    spec = WorkloadSpec(
        rate=250.0, duration_s=0.4, seed=5, workload=workload, **kwargs
    )
    return run_serve_bench(cases=_tiny_corpus(), spec=spec)


class TestServeWorkloads:
    def test_masked_bench_clean(self):
        report = _bench("masked")
        assert report.completed > 0
        assert report.wrong_results == 0
        assert report.config["workload"] == "masked"
        assert 0.0 < report.workload_stats["mask_prune_ratio_mean"] <= 1.0

    def test_chain_bench_reuses_plans(self):
        report = _bench("chain", chain_length=3)
        assert report.completed > 0
        assert report.wrong_results == 0
        assert report.workload_stats["chain_plan_hit_rate"] > 0.0

    def test_incremental_bench_partial_recompute(self):
        report = _bench("incremental")
        assert report.completed > 0
        assert report.wrong_results == 0
        stats = report.workload_stats
        assert 0.0 < stats["incremental_recompute_ratio"] < 1.0
        assert stats["incremental_plans_patched"] > 0

    def test_same_seed_reports_are_byte_identical(self):
        r1 = _bench("incremental")
        r2 = _bench("incremental")
        assert r1.to_json() == r2.to_json()

    def test_workload_with_faults_keeps_results_right(self):
        spec = WorkloadSpec(
            rate=250.0, duration_s=0.4, seed=5, workload="masked",
        )
        report = run_serve_bench(
            cases=_tiny_corpus(), spec=spec,
            faults=parse_fault_spec("alloc@*:n=10"),
        )
        # Transient faults may fail/retry requests, but every completed
        # result is still the exact masked product.
        assert report.wrong_results == 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            WorkloadSpec(workload="bogus")
        with pytest.raises(ValueError):
            WorkloadSpec(workload="chain", chain_length=1)
        with pytest.raises(ValueError):
            WorkloadSpec(workload="masked", mask_density=0.0)
        with pytest.raises(ValueError):
            WorkloadSpec(workload="incremental", delta_frac=1.5)


# ---------------------------------------------------------------------------
# MCL on ChainRunner
# ---------------------------------------------------------------------------
class TestMclChain:
    def test_mcl_reports_chain_counters(self):
        adj = gen.poisson2d(12)
        svc = small_service()
        first = markov_clustering(adj, service=svc)
        again = markov_clustering(adj, service=svc)
        assert np.array_equal(first.labels, again.labels)
        # Same flow trajectory the second time: every expansion's plan is
        # already cached, so the re-run hits from iteration one.
        assert again.plan_hits > 0
        # Later cold iterations plan from seeded estimates.
        assert first.seeded > 0

    def test_mcl_engine_and_service_agree(self):
        adj = gen.rmat(5, 4, seed=17)
        r1 = markov_clustering(adj)
        r2 = markov_clustering(adj, service=small_service())
        assert np.array_equal(r1.labels, r2.labels)
        assert r1.n_clusters == r2.n_clusters


class TestChainRunnerUnit:
    def test_runner_counts_hits_and_misses(self):
        a = gen.poisson2d(8)
        svc = small_service()
        runner = ChainRunner(service=svc)
        runner.step(a, a)
        runner.step(a, a)
        counters = runner.counters()
        assert counters["chain_steps"] == 2
        assert counters["chain_plan_misses"] == 1
        assert counters["chain_plan_hits"] == 1

    def test_runner_requires_service_or_engine_default(self):
        runner = ChainRunner()
        a = gen.poisson2d(5)
        res = runner.step(a, a)
        assert res.valid
