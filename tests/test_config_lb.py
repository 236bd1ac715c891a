"""Tests for kernel configurations, thresholds, local & global load balancing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import (
    MAX_ROWS_PER_BLOCK,
    NUMERIC_ENTRY_BYTES,
    SYMBOLIC_ENTRY_BYTES,
    build_configs,
    config_index_for_entries,
)
from repro.core.global_lb import (
    balanced_plan,
    block_merge,
    largest_config,
    uniform_plan,
)
from repro.core.local_lb import choose_group_size, round_pow2
from repro.core.params import DEFAULT_PARAMS, LbThresholds
from repro.gpu import TITAN_V


class TestKernelConfigs:
    def test_six_configurations(self):
        cfgs = build_configs(TITAN_V)
        assert len(cfgs) == 6

    def test_halving_ladder(self):
        cfgs = build_configs(TITAN_V)
        specs = [(c.threads, c.scratch_bytes) for c in cfgs]
        assert specs == [
            (64, 3072),
            (128, 6144),
            (256, 12288),
            (512, 24576),
            (1024, 49152),
            (1024, 98304),
        ]

    def test_symbolic_stores_three_times_numeric(self):
        cfg = build_configs(TITAN_V)[-1]
        assert cfg.hash_entries("symbolic") == 3 * cfg.hash_entries("numeric")

    def test_paper_capacity_claims(self):
        # §4.3: bitmask symbolic dense holds >500k entries vs ~24k hashed.
        cfg = build_configs(TITAN_V)[-1]
        assert cfg.dense_entries("symbolic") > 500_000
        assert cfg.hash_entries("symbolic") == 98304 // SYMBOLIC_ENTRY_BYTES == 24576
        assert cfg.hash_entries("numeric") == 98304 // NUMERIC_ENTRY_BYTES

    def test_config_index_selection(self):
        cfgs = build_configs(TITAN_V)
        req = np.array([0, 1, 768, 769, 24576, 10**9])
        idx = config_index_for_entries(req, cfgs, "symbolic")
        assert list(idx) == [0, 0, 0, 1, 5, 5]

    def test_config_index_numeric_differs(self):
        cfgs = build_configs(TITAN_V)
        idx = config_index_for_entries(np.array([300]), cfgs, "numeric")
        assert idx[0] == 1  # 256 entries in cfg0 numeric, 512 in cfg1


class TestThresholds:
    def test_default_set_used_for_small_kernels(self):
        t = LbThresholds(10.0, 1000, 2.0, 100, 2)
        assert not t.decide(ratio=5.0, rows=5000, largest_config=0, n_configs=6)
        assert t.decide(ratio=15.0, rows=5000, largest_config=0, n_configs=6)

    def test_starred_set_used_for_large_kernels(self):
        t = LbThresholds(10.0, 1000, 2.0, 100, 2)
        assert t.decide(ratio=5.0, rows=500, largest_config=5, n_configs=6)
        assert not t.decide(ratio=1.5, rows=500, largest_config=5, n_configs=6)

    def test_row_gate(self):
        t = LbThresholds(1.0, 1000, 1.0, 1000, 2)
        assert not t.decide(ratio=100.0, rows=500, largest_config=0, n_configs=6)

    def test_paper_table2_values_preserved(self):
        from repro.core.params import PAPER_PARAMS

        assert PAPER_PARAMS.symbolic_lb.ratio == pytest.approx(39.2)
        assert PAPER_PARAMS.numeric_lb.min_rows == 23006
        assert PAPER_PARAMS.symbolic_lb.n_large_kernels == 3
        assert PAPER_PARAMS.numeric_lb.n_large_kernels == 2

    def test_default_thresholds_device_tuned(self):
        assert DEFAULT_PARAMS.symbolic_lb.ratio > 0
        assert DEFAULT_PARAMS.numeric_lb.n_large_kernels == 2


class TestLocalLb:
    def test_round_pow2(self):
        assert list(round_pow2(np.array([1, 2, 3, 5, 6, 100]))) == [
            1,
            2,
            4,
            4,
            8,
            128,
        ]

    def test_g_is_power_of_two_and_bounded(self):
        rng = np.random.default_rng(0)
        avg = rng.uniform(1, 200, 50)
        mx = avg * rng.uniform(1, 10, 50)
        nnz = rng.uniform(1, 5000, 50)
        g = choose_group_size(avg, mx, nnz, 256)
        assert np.all(g >= 1) and np.all(g <= 256)
        assert np.all(np.log2(g) % 1 == 0)

    def test_uniform_rows_get_avg_pow2(self):
        # Long uniform rows with plenty of parallel work: g tracks avg len.
        g = choose_group_size(
            np.array([32.0]), np.array([32.0]), np.array([10000.0]), 1024
        )
        assert g[0] == 32

    def test_one_long_row_grows_g(self):
        g_uniform = choose_group_size(
            np.array([4.0]), np.array([4.0]), np.array([64.0]), 256
        )
        g_skewed = choose_group_size(
            np.array([4.0]), np.array([4000.0]), np.array([64.0]), 256
        )
        assert g_skewed[0] > g_uniform[0]

    def test_never_more_groups_than_nnz(self):
        g = choose_group_size(np.array([1.0]), np.array([1.0]), np.array([2.0]), 1024)
        assert 1024 / g[0] <= 2.0 + 1e-9


class TestBlockMerge:
    def test_merges_small_neighbours(self):
        ptr = block_merge(np.array([1.0, 1, 1, 1]), limit=10)
        assert list(ptr) == [0, 4]

    def test_respects_limit(self):
        sizes = np.array([6.0, 6, 6, 6])
        ptr = block_merge(sizes, limit=10)
        # no pair fits: every row is its own block
        assert list(ptr) == [0, 1, 2, 3, 4]

    def test_paper_figure3_example(self):
        sizes = np.array([7.0, 8, 3, 0, 1, 5, 4, 3, 5, 2, 2, 3, 0, 0, 1, 2])
        ptr = block_merge(sizes, limit=16, max_rows=32)
        # Fig. 3: aligned merging yields blocks [15, 3, 13, 15] (4 blocks).
        sums = [sizes[ptr[i]:ptr[i + 1]].sum() for i in range(len(ptr) - 1)]
        assert sums == [15.0, 3.0, 13.0, 15.0]

    def test_max_rows_cap(self):
        ptr = block_merge(np.zeros(100), limit=1e9, max_rows=32)
        assert np.all(np.diff(ptr) <= 32)

    def test_empty_input(self):
        assert list(block_merge(np.array([]), limit=10)) == [0]

    def test_single_oversized_row_kept_alone(self):
        ptr = block_merge(np.array([100.0, 1.0]), limit=10)
        assert list(ptr) == [0, 1, 2]

    @given(
        st.lists(st.floats(min_value=0, max_value=20), min_size=1, max_size=64),
        st.floats(min_value=1, max_value=50),
    )
    @settings(max_examples=60)
    def test_partition_properties(self, sizes, limit):
        sizes = np.array(sizes)
        ptr = block_merge(sizes, limit=limit)
        # covers everything exactly once
        assert ptr[0] == 0 and ptr[-1] == sizes.size
        assert np.all(np.diff(ptr) >= 1)
        assert np.all(np.diff(ptr) <= MAX_ROWS_PER_BLOCK)
        # multi-row blocks never exceed the limit
        for i in range(len(ptr) - 1):
            if ptr[i + 1] - ptr[i] > 1:
                assert sizes[ptr[i]:ptr[i + 1]].sum() <= limit + 1e-9


class TestPlans:
    def _entries(self, n=100, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(1, 5000, size=n).astype(np.int64)

    def test_uniform_plan_valid(self):
        cfgs = build_configs(TITAN_V)
        entries = self._entries()
        plan = uniform_plan(entries, cfgs, "symbolic")
        plan.validate(entries.size)
        assert not plan.used_global_lb
        assert len(set(plan.block_config.tolist())) == 1

    def test_uniform_plan_fits_longest_row(self):
        cfgs = build_configs(TITAN_V)
        entries = self._entries()
        plan = uniform_plan(entries, cfgs, "symbolic")
        cap = cfgs[int(plan.block_config[0])].hash_entries("symbolic")
        assert cap >= entries.max() or plan.block_config[0] == 5

    @pytest.mark.parametrize("stage", ["symbolic", "numeric"])
    def test_largest_config_matches_array_search(self, stage):
        # The scalar search picks what config_index_for_entries picks, on
        # each side of every capacity and past the largest one.
        cfgs = build_configs(TITAN_V)
        caps = [c.hash_entries(stage) for c in cfgs]
        for entries in [0, 1] + [c + d for c in caps for d in (-1, 0, 1)] + [10**9]:
            expected = int(config_index_for_entries(np.array([entries]), cfgs, stage)[0])
            assert largest_config(entries, cfgs, stage) == expected

    def test_uniform_plan_keeps_row_order(self):
        cfgs = build_configs(TITAN_V)
        plan = uniform_plan(self._entries(), cfgs, "numeric")
        assert np.array_equal(plan.row_order, np.arange(100))

    def test_balanced_plan_valid(self):
        cfgs = build_configs(TITAN_V)
        entries = self._entries(500, seed=3)
        plan = balanced_plan(entries, cfgs, "symbolic")
        plan.validate(entries.size)
        assert plan.used_global_lb

    def test_balanced_plan_bin_capacities(self):
        cfgs = build_configs(TITAN_V)
        entries = self._entries(500, seed=4)
        plan = balanced_plan(entries, cfgs, "numeric")
        caps = np.array([c.hash_entries("numeric") for c in cfgs])
        for b in range(plan.n_blocks):
            lo, hi = plan.block_ptr[b], plan.block_ptr[b + 1]
            rows = plan.row_order[lo:hi]
            cfg = int(plan.block_config[b])
            if hi - lo == 1:
                # single-row block: the row fits its bin (or is in the top bin)
                assert entries[rows[0]] <= caps[cfg] or cfg == len(cfgs) - 1
            else:
                assert entries[rows].sum() <= caps[cfg]

    def test_balanced_plan_order_within_bins(self):
        cfgs = build_configs(TITAN_V)
        entries = self._entries(300, seed=5)
        plan = balanced_plan(entries, cfgs, "symbolic")
        cfg_of_row = np.empty(300, dtype=int)
        for b in range(plan.n_blocks):
            cfg_of_row[plan.row_order[plan.block_ptr[b]:plan.block_ptr[b + 1]]] = (
                plan.block_config[b]
            )
        # rows within each bin appear in ascending row id order
        for c in np.unique(cfg_of_row):
            rows_in_bin = plan.row_order[cfg_of_row[plan.row_order] == c]
            assert np.all(np.diff(rows_in_bin) > 0)

    def test_balanced_plan_empty(self):
        cfgs = build_configs(TITAN_V)
        plan = balanced_plan(np.empty(0, dtype=np.int64), cfgs, "symbolic")
        assert plan.n_blocks == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=200)
    )
    @settings(max_examples=40)
    def test_balanced_plan_property(self, entries):
        cfgs = build_configs(TITAN_V)
        entries = np.array(entries, dtype=np.int64)
        plan = balanced_plan(entries, cfgs, "symbolic")
        plan.validate(entries.size)


class TestMergeQualityBound:
    """The paper's §4.2 claim: aligned merging lands within 50% of the
    optimal utilisation — equivalently, it creates at most ~2x the blocks
    a sequential first-fit packer would."""

    @given(
        st.lists(st.floats(min_value=0.0, max_value=30.0), min_size=1, max_size=120),
        st.floats(min_value=10.0, max_value=64.0),
    )
    @settings(max_examples=60)
    def test_within_factor_two_of_first_fit(self, sizes, limit):
        sizes = np.array(sizes)
        ptr = block_merge(sizes, limit=limit)
        n_merged = len(ptr) - 1

        # sequential first-fit packing (order-preserving, same 32-row cap)
        n_ff, acc, count = 0, 0.0, 0
        for s in sizes:
            if count and (acc + s > limit or count >= MAX_ROWS_PER_BLOCK):
                n_ff += 1
                acc, count = 0.0, 0
            acc += s
            count += 1
        n_ff += 1

        # Alg. 2's aligned pairing can miss unaligned merges, but stays
        # within the paper's 2x bound of the order-preserving optimum
        # (plus one block of slack for tiny inputs).
        assert n_merged <= 2 * n_ff + 1

    def test_adversarial_alignment(self):
        # sizes chosen so every aligned pair overflows but offset pairs fit
        sizes = np.array([6.0, 6.0, 3.0, 6.0, 6.0, 3.0])
        ptr = block_merge(sizes, limit=10)
        n_ff = 4  # first-fit: [6], [6,3], [6], [6,3]
        assert len(ptr) - 1 <= 2 * n_ff


class TestLocalLbZeroCorners:
    """Exact-zero statistics are legal inputs (empty blocks, empty rows of
    B); the single clamp at the top of choose_group_size must make them
    behave exactly like ones, with no epsilon fuzz and no float warnings."""

    def test_zero_stats_equal_one_stats(self):
        zeros = np.zeros(5)
        ones = np.ones(5)
        g_zero = choose_group_size(zeros, zeros, zeros, 256)
        g_one = choose_group_size(ones, ones, ones, 256)
        assert np.array_equal(g_zero, g_one)
        # One (floored) non-zero per block: a single group spans the block.
        assert np.all(g_zero == 256)

    def test_empty_blocks_give_empty_result(self):
        empty = np.empty(0)
        g = choose_group_size(empty, empty, empty, 128)
        assert g.shape == (0,)
        assert g.dtype == np.int64

    def test_zero_rows_with_long_max_row(self):
        # nnz_a == 0 but a long referenced row: floors apply, the result
        # is still a bounded power of two.
        g = choose_group_size(np.array([0.0]), np.array([512.0]),
                              np.array([0.0]), 256)
        assert g.shape == (1,)
        assert 1 <= g[0] <= 256
        assert (int(g[0]) & (int(g[0]) - 1)) == 0

    @pytest.mark.parametrize("threads", [0, -1, -256])
    def test_nonpositive_threads_rejected(self, threads):
        with pytest.raises(ValueError):
            choose_group_size(np.ones(3), np.ones(3), np.ones(3), threads)

    def test_no_float_warnings_on_zero_inputs(self):
        with np.errstate(all="raise"):
            choose_group_size(np.zeros(4), np.zeros(4), np.zeros(4), 1024)
            choose_group_size(np.array([0.0, 3.0]), np.array([0.0, 900.0]),
                              np.array([0.0, 1.0]), 512)
