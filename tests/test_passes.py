"""Tests for the symbolic/numeric pass cost engine."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import MultiplyContext, SpeckEngine, SpeckParams, build_configs
from repro.core.analysis import RowAnalysis
from repro.core.config import KernelConfig
from repro.core.global_lb import BlockPlan, balanced_plan, uniform_plan
from repro.core.passes import (
    PassResult, block_aggregates, radix_sort_time_s, run_pass,
)
from repro.estimate import estimate_multiply
from repro.gpu import TITAN_V
from repro.matrices.generators import (
    banded,
    circuit,
    diagonal,
    rmat,
    skew_single,
)
from repro.serve.plan_cache import PlanCache

_INT64_MAX = np.iinfo(np.int64).max


@pytest.fixture(scope="module")
def mesh_ctx():
    a = banded(3000, 6, seed=1)
    return MultiplyContext(a, a)


def _run(ctx, stage, plan=None, params=None):
    configs = build_configs(TITAN_V)
    params = params or SpeckParams()
    if plan is None:
        entries = (
            ctx.analysis.products
            if stage == "symbolic"
            else np.ceil(ctx.c_row_nnz / 0.66).astype(np.int64)
        )
        plan = balanced_plan(entries, configs, stage)
    return run_pass(
        stage, ctx.analysis, plan, ctx.c_row_nnz, configs, params, TITAN_V
    )


def _rows(products, max_ref, col_min, col_max, a_nnz, adjacency):
    return RowAnalysis(
        products=np.asarray(products, dtype=np.int64),
        max_ref_row=np.asarray(max_ref, dtype=np.int64),
        col_min=np.asarray(col_min, dtype=np.int64),
        col_max=np.asarray(col_max, dtype=np.int64),
        a_row_nnz=np.asarray(a_nnz, dtype=np.int64),
        adjacency=np.asarray(adjacency, dtype=np.int64),
    )


def _plan(order, ptr):
    ptr = np.asarray(ptr, dtype=np.int64)
    return BlockPlan(
        row_order=np.asarray(order, dtype=np.int64),
        block_ptr=ptr,
        block_config=np.zeros(ptr.size - 1, dtype=np.int64),
        used_global_lb=True,
    )


class TestSegmentHelpers:
    """``block_aggregates``: the stacked per-block sums and extrema."""

    @given(
        st.lists(st.integers(min_value=0, max_value=1000), min_size=0, max_size=50),
        st.data(),
    )
    @settings(max_examples=40)
    def test_seg_sum_matches_numpy(self, values, data):
        n = len(values)
        vals = np.array(values, dtype=np.int64)
        order = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)
        n_seg = data.draw(st.integers(min_value=1, max_value=8))
        cuts = sorted(
            data.draw(
                st.lists(
                    st.integers(min_value=0, max_value=n),
                    min_size=n_seg - 1,
                    max_size=n_seg - 1,
                )
            )
        )
        ptr = np.array([0] + cuts + [n], dtype=np.int64)
        analysis = _rows(vals, vals, vals, vals, vals + 1, vals // 2)
        sums, extrema = block_aggregates(analysis, vals * 3, _plan(order, ptr))
        assert sums.dtype == np.float64 and sums.shape == (5, n_seg)
        assert extrema.dtype == np.int64 and extrema.shape == (4, n_seg)
        for i in range(n_seg):
            seg = vals[order[ptr[i]:ptr[i + 1]]]
            c = seg * 3
            expected = [seg.sum(), (seg + 1).sum(), c.sum(), (c * c).sum(), (seg // 2).sum()]
            assert list(sums[:, i]) == expected
            if seg.size:
                assert list(extrema[:, i]) == [seg.max(), seg.max() + 1, seg.min(), seg.max()]
            else:
                assert list(extrema[:, i]) == [0, 0, _INT64_MAX, 0]

    def test_seg_max_min_empty_segments(self):
        analysis = _rows([4, 9], [3, 7], [5, 2], [8, 6], [1, 2], [0, 1])
        sums, extrema = block_aggregates(
            analysis, np.array([2, 3]), _plan([0, 1], [0, 0, 2, 2])
        )
        assert list(sums[0]) == [0.0, 13.0, 0.0]
        assert list(sums[3]) == [0.0, 13.0, 0.0]  # 2² + 3²
        assert list(extrema[0]) == [0, 7, 0]
        assert list(extrema[1]) == [0, 2, 0]
        # Empty blocks take col_min's int64-max sentinel, never a true 0.
        assert list(extrema[2]) == [_INT64_MAX, 2, _INT64_MAX]
        assert list(extrema[3]) == [0, 8, 0]

    def test_seg_min_sentinel_and_fill(self):
        # A true minimum column of 0 is preserved, not confused with
        # "empty"; the fills hold for leading, inner and trailing blocks.
        analysis = _rows([1, 1, 1], [1, 1, 1], [0, 4, 7], [3, 9, 9], [1, 1, 1], [0, 0, 0])
        _, extrema = block_aggregates(
            analysis, np.ones(3, dtype=np.int64), _plan([2, 0, 1], [0, 0, 2, 2, 3, 3])
        )
        assert list(extrema[2]) == [_INT64_MAX, 0, _INT64_MAX, 4, _INT64_MAX]
        assert list(extrema[3]) == [0, 9, 0, 9, 0]
        # No rows at all: every block is empty.
        empty = _rows([], [], [], [], [], [])
        sums, extrema = block_aggregates(
            empty, np.zeros(0, dtype=np.int64), _plan([], [0, 0])
        )
        assert sums.tolist() == [[0.0]] * 5
        assert extrema[:, 0].tolist() == [0, 0, _INT64_MAX, 0]


class TestRunPass:
    def test_symbolic_and_numeric_positive(self, mesh_ctx):
        for stage in ("symbolic", "numeric"):
            res = _run(mesh_ctx, stage)
            assert res.time_s > 0
            assert sum(res.accum_blocks.values()) > 0

    def test_invalid_stage_rejected(self, mesh_ctx):
        with pytest.raises(ValueError):
            _run(mesh_ctx, "quantum")

    def test_accumulator_counts_cover_all_blocks(self, mesh_ctx):
        configs = build_configs(TITAN_V)
        plan = balanced_plan(mesh_ctx.analysis.products, configs, "symbolic")
        res = _run(mesh_ctx, "symbolic", plan=plan)
        assert sum(res.accum_blocks.values()) == plan.n_blocks

    def test_direct_blocks_for_diagonal(self):
        a = diagonal(500, seed=1)
        ctx = MultiplyContext(a, a)
        res = _run(ctx, "numeric")
        assert res.accum_blocks["direct"] > 0
        assert res.accum_blocks["hash"] == 0

    def test_dense_blocks_for_long_rows(self):
        a = skew_single(10_000, 4, 4000, seed=2)
        ctx = MultiplyContext(a, a)
        res = _run(ctx, "numeric")
        assert res.accum_blocks["dense"] > 0

    def test_hash_disabled_features(self):
        a = skew_single(10_000, 4, 4000, seed=2)
        ctx = MultiplyContext(a, a)
        params = SpeckParams(enable_dense=False, enable_direct=False)
        res = _run(ctx, "numeric", params=params)
        assert res.accum_blocks["dense"] == 0
        assert res.accum_blocks["direct"] == 0
        assert res.accum_blocks["hash"] > 0

    def test_spill_to_global_hash_when_dense_disabled(self):
        # a row far beyond the largest numeric map, with hashing forced
        a = skew_single(40_000, 4, 20_000, seed=3)
        ctx = MultiplyContext(a, a)
        params = SpeckParams(enable_dense=False, enable_direct=False)
        res = _run(ctx, "numeric", params=params)
        assert res.global_hash_blocks > 0
        assert res.global_hash_max_entries > 0

    def test_no_spill_with_dense_enabled(self):
        a = skew_single(40_000, 4, 20_000, seed=3)
        ctx = MultiplyContext(a, a)
        res = _run(ctx, "numeric")
        assert res.global_hash_blocks == 0

    def test_radix_entries_only_in_numeric(self, mesh_ctx):
        sym = _run(mesh_ctx, "symbolic")
        assert sym.radix_entries == 0

    def test_group_sizes_are_powers_of_two(self):
        a = rmat(10, 8, seed=4)
        ctx = MultiplyContext(a, a)
        res = _run(ctx, "numeric")
        g = res.group_sizes
        assert np.all(g >= 1)
        assert np.all(np.log2(g) % 1 == 0)

    def test_fixed_group_size_respected(self, mesh_ctx):
        res = _run(mesh_ctx, "numeric", params=SpeckParams(fixed_group_size=16))
        assert np.all(res.group_sizes == 16)

    def test_empty_plan(self):
        from repro.matrices.csr import csr_zeros

        z = csr_zeros((5, 5))
        ctx = MultiplyContext(z, z)
        configs = build_configs(TITAN_V)
        plan = balanced_plan(np.zeros(0, dtype=np.int64), configs, "numeric")
        res = run_pass(
            "numeric", ctx.analysis, plan, ctx.c_row_nnz, configs,
            SpeckParams(), TITAN_V,
        )
        assert res.time_s >= 0

    def test_uniform_vs_balanced_same_accumulator_totals(self, mesh_ctx):
        # the plan changes grouping, not the amount of real work
        configs = build_configs(TITAN_V)
        ent = np.ceil(mesh_ctx.c_row_nnz / 0.66).astype(np.int64)
        balanced = _run(mesh_ctx, "numeric", plan=balanced_plan(ent, configs, "numeric"))
        uniform = _run(mesh_ctx, "numeric", plan=uniform_plan(ent, configs, "numeric"))
        assert balanced.time_s > 0 and uniform.time_s > 0


    @pytest.mark.parametrize(
        "threads, scratch",
        [
            (TITAN_V.max_threads_per_block * 2, 1024),
            (256, TITAN_V.scratchpad_large + 1),
            (0, 1024),
        ],
    )
    def test_config_over_device_limits_rejected(self, mesh_ctx, threads, scratch):
        configs = build_configs(TITAN_V)
        configs[1] = KernelConfig(index=1, threads=threads, scratch_bytes=scratch)
        plan = uniform_plan(mesh_ctx.analysis.products, configs, "symbolic")
        with pytest.raises(ValueError):
            run_pass(
                "symbolic", mesh_ctx.analysis, plan, mesh_ctx.c_row_nnz,
                configs, SpeckParams(), TITAN_V,
            )


def _same_record(x, y):
    return (
        x.time_s == y.time_s
        and x.kernel_times == y.kernel_times
        and x.accum_blocks == y.accum_blocks
        and x.radix_entries == y.radix_entries
        and x.global_hash_blocks == y.global_hash_blocks
        and x.global_hash_max_entries == y.global_hash_max_entries
        and np.array_equal(x.group_sizes, y.group_sizes)
        and x.mean_utilization == y.mean_utilization
    )


class TestSpeculativeSymbolicRecord:
    """A speculative cold multiply prices its symbolic record once, on the
    symbolic plan it keeps: after the bound check, never before it."""

    @pytest.fixture
    def symbolic_calls(self, monkeypatch):
        import repro.core.speck as speck

        stages = []

        def counting(stage, *args):
            stages.append(stage)
            return run_pass(stage, *args)

        monkeypatch.setattr(speck, "run_pass", counting)
        return stages

    @staticmethod
    def _cold(a, estimate=None):
        plan, hit = PlanCache().get_or_create(
            a, a, mode="full" if estimate is None else "speculative"
        )
        assert not hit
        res = SpeckEngine().multiply(a, a, plan=plan, estimate=estimate)
        assert plan.ready
        return res, plan

    @pytest.mark.parametrize("fallback", [False, True])
    def test_one_symbolic_record(self, symbolic_calls, fallback):
        a = banded(400, 3, seed=2)
        est = estimate_multiply(a, a, seed=0, device=TITAN_V)
        res, plan = self._cold(a, est.skewed(1e-3) if fallback else est)
        assert res.decisions.get("speculative_fallback", False) is fallback
        assert symbolic_calls.count("symbolic") == 1
        assert symbolic_calls.count("numeric") == 1
        # The record is the one of the symbolic plan the multiply kept.
        ctx = MultiplyContext(a, a)
        kept = run_pass(
            "symbolic", ctx.analysis, plan.plan_sym, ctx.c_row_nnz,
            build_configs(TITAN_V), SpeckParams(), TITAN_V,
        )
        assert _same_record(plan.sym, kept)
        # ... and the exact path's record on the same plan.
        symbolic_calls.clear()
        _, exact = self._cold(a)
        assert symbolic_calls.count("symbolic") == 1
        assert np.array_equal(plan.plan_sym.row_order, exact.plan_sym.row_order)
        assert np.array_equal(plan.plan_sym.block_ptr, exact.plan_sym.block_ptr)
        assert _same_record(plan.sym, exact.sym)


class TestMeanGroupSize:
    @given(
        st.lists(st.integers(min_value=0, max_value=2**31 - 1), max_size=300),
        st.sampled_from([np.int64, np.int32]),
    )
    @example([], np.int64)
    @example([], np.int32)
    @example([0], np.int64)
    @example([32, 32, 16], np.int32)
    @example([2**44 - 1, 3, 7], np.int64)
    @settings(max_examples=200)
    def test_equals_numpy_mean(self, values, dtype):
        """The integer-sum mean is bit-identical to ``np.mean`` (0 for no
        blocks) while the sum stays below 2**53."""
        g = np.array(values, dtype=dtype)
        expected = float(g.mean()) if g.size else 0.0
        assert PassResult(time_s=0.0, group_sizes=g).mean_group_size == expected


class TestRadixSortCost:
    def test_zero_entries_free(self):
        assert radix_sort_time_s(0, TITAN_V) == 0.0

    def test_scales_linearly(self):
        t1 = radix_sort_time_s(1_000_000, TITAN_V)
        t2 = radix_sort_time_s(2_000_000, TITAN_V)
        fixed = 4 * TITAN_V.kernel_launch_s
        assert (t2 - fixed) == pytest.approx(2 * (t1 - fixed), rel=1e-6)

    def test_includes_launches(self):
        assert radix_sort_time_s(1, TITAN_V) > 4 * TITAN_V.kernel_launch_s


class TestCostMonotonicity:
    """Qualitative invariants of the pass cost model."""

    def test_more_products_cost_more(self):
        small = MultiplyContext(banded(2000, 4, seed=5), banded(2000, 4, seed=5))
        large = MultiplyContext(banded(2000, 16, seed=5), banded(2000, 16, seed=5))
        assert _run(large, "numeric").time_s > _run(small, "numeric").time_s

    def test_scattered_costs_more_than_banded(self):
        # same nnz scale, worse locality
        b = banded(4000, 8, seed=6)
        from repro.matrices.generators import random_uniform

        r = random_uniform(4000, 4000, 17.0, seed=6)
        t_b = _run(MultiplyContext(b, b), "numeric").time_s
        t_r = _run(MultiplyContext(r, r), "numeric").time_s
        assert t_r > t_b
