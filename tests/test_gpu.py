"""Tests for the GPU simulator substrate: device, cost, scheduler, memory."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu import (
    TITAN_V,
    BlockWork,
    DeviceOOM,
    DeviceSpec,
    MemoryLedger,
    block_cycles,
    coalescing_efficiency,
    kernel_time_s,
    makespan_cycles,
)


class TestDeviceSpec:
    def test_titan_v_headline_numbers(self):
        assert TITAN_V.num_sms == 80
        assert TITAN_V.scratchpad_default == 48 * 1024
        assert TITAN_V.scratchpad_large == 96 * 1024
        assert TITAN_V.max_threads_per_block == 1024

    def test_occupancy_halves_with_large_scratchpad(self):
        # The paper: 96 KB config halves concurrently active blocks.
        assert TITAN_V.blocks_per_sm(1024, 49152) == 2
        assert TITAN_V.blocks_per_sm(1024, 98304) == 1

    def test_blocks_per_sm_thread_limited(self):
        assert TITAN_V.blocks_per_sm(1024, 0) == 2
        assert TITAN_V.blocks_per_sm(512, 0) == 4

    def test_blocks_per_sm_block_cap(self):
        assert TITAN_V.blocks_per_sm(32, 1024) == TITAN_V.max_blocks_per_sm

    def test_rejects_oversized_block(self):
        with pytest.raises(ValueError):
            TITAN_V.blocks_per_sm(2048, 0)

    def test_rejects_oversized_scratchpad(self):
        with pytest.raises(ValueError):
            TITAN_V.blocks_per_sm(256, 200_000)

    def test_rejects_nonpositive_threads(self):
        with pytest.raises(ValueError):
            TITAN_V.blocks_per_sm(0, 0)

    def test_concurrency(self):
        assert TITAN_V.concurrency(1024, 49152) == 160

    def test_occupancy_fraction(self):
        assert TITAN_V.occupancy(1024, 49152) == 1.0
        assert TITAN_V.occupancy(1024, 98304) == 0.5

    def test_seconds_conversion(self):
        assert TITAN_V.seconds(TITAN_V.clock_hz) == pytest.approx(1.0)


class TestCoalescing:
    def test_bounds(self):
        g = np.array([1, 2, 4, 8, 16, 32])
        eff = coalescing_efficiency(g)
        assert np.all(eff > 0) and np.all(eff <= 1)

    def test_monotone_in_group_size(self):
        eff = coalescing_efficiency(np.array([1, 4, 16, 32]))
        assert np.all(np.diff(eff) >= -1e-12)

    def test_full_warp_saturates(self):
        assert coalescing_efficiency(np.array([32]))[0] == pytest.approx(1.0, abs=0.01)


class TestBlockCycles:
    def test_more_bytes_cost_more(self):
        w1 = BlockWork(mem_bytes=np.array([1e5]))
        w2 = BlockWork(mem_bytes=np.array([2e5]))
        c1 = block_cycles(TITAN_V, 256, 0, w1)
        c2 = block_cycles(TITAN_V, 256, 0, w2)
        assert c2[0] > c1[0]

    def test_poor_coalescing_costs_more(self):
        good = BlockWork(mem_bytes=np.array([1e5]), coalescing=1.0)
        bad = BlockWork(mem_bytes=np.array([1e5]), coalescing=0.25)
        assert block_cycles(TITAN_V, 256, 0, bad)[0] > block_cycles(
            TITAN_V, 256, 0, good
        )[0]

    def test_low_utilization_costs_more(self):
        busy = BlockWork(iops=np.array([1e5]), utilization=1.0)
        idle = BlockWork(iops=np.array([1e5]), utilization=0.1)
        assert block_cycles(TITAN_V, 256, 0, idle)[0] > block_cycles(
            TITAN_V, 256, 0, busy
        )[0]

    def test_atomics_cost_more_than_plain_scratch(self):
        plain = BlockWork(scratch_ops=np.array([1e4]))
        atomic = BlockWork(scratch_atomics=np.array([1e4]))
        assert block_cycles(TITAN_V, 256, 0, atomic)[0] > block_cycles(
            TITAN_V, 256, 0, plain
        )[0]

    def test_global_atomics_expensive(self):
        ga = BlockWork(global_atomics=np.array([1e4]))
        stream = BlockWork(mem_bytes=np.array([1e4 * 12]))
        assert block_cycles(TITAN_V, 256, 0, ga)[0] > block_cycles(
            TITAN_V, 256, 0, stream
        )[0]

    def test_block_overhead_floor(self):
        c = block_cycles(TITAN_V, 64, 0, BlockWork())
        assert c >= TITAN_V.block_overhead_cycles

    def test_small_grid_gets_full_bandwidth_share(self):
        # One resident block should see more bandwidth than a saturated grid.
        w_small = BlockWork(mem_bytes=np.array([1e6]))
        w_big = BlockWork(mem_bytes=np.full(10_000, 1e6))
        c_small = block_cycles(TITAN_V, 64, 3072, w_small)[0]
        c_big = block_cycles(TITAN_V, 64, 3072, w_big)[0]
        assert c_small < c_big


def _list_schedule(costs, m):
    """Greedy list scheduling in O(n * m), independent of the heap: each
    block in order goes to the first slot with the smallest finish time."""
    finish = [0.0] * m
    for c in costs:
        slot = finish.index(min(finish))
        finish[slot] += c
    return max(finish)


class TestMakespan:
    @pytest.mark.parametrize(
        "costs, m",
        [
            ([7.0] * 10, 3),  # every dispatch ties
            ([2.0, 2.0, 1.0, 1.0, 3.0, 3.0, 1.0], 2),
            ([0.0, 5.0, 0.0, 2.5, 0.1, 0.2], 3),  # zero-cost blocks tie at 0
            ([0.1, 0.2, 0.3, 1e16, 1.0, -0.0, 3.3], 1),  # one slot: a running sum
            ([1.5, 2.5, 3.5, 0.5], 4),  # size == concurrency
            ([1.5, 2.5, 3.5, 0.5, 0.25], 4),  # size == concurrency + 1
            ([0.1] * 9 + [0.7], 4),
        ],
    )
    def test_matches_list_schedule_oracle(self, costs, m):
        assert makespan_cycles(np.array(costs), m) == _list_schedule(costs, m)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e12, allow_subnormal=False),
            max_size=120,
        ),
        st.integers(min_value=1, max_value=24),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_list_schedule_oracle_on_drawn_costs(self, costs, m):
        assert makespan_cycles(np.array(costs), m) == _list_schedule(costs, m)

    def test_empty(self):
        assert makespan_cycles(np.array([]), 10) == 0.0

    def test_fits_in_one_wave(self):
        assert makespan_cycles(np.array([5.0, 3.0, 8.0]), 4) == 8.0

    def test_uniform_waves(self):
        assert makespan_cycles(np.ones(100), 10) == pytest.approx(10.0)

    def test_single_long_block_dominates(self):
        cycles = np.ones(50)
        cycles[0] = 1000.0
        assert makespan_cycles(cycles, 10) >= 1000.0

    def test_rejects_bad_concurrency(self):
        with pytest.raises(ValueError):
            makespan_cycles(np.ones(3), 0)

    def test_large_launch_analytic_bound(self):
        cycles = np.ones(300_000)
        assert makespan_cycles(cycles, 100) == pytest.approx(3000.0)

    @given(
        st.lists(st.floats(min_value=0.1, max_value=100.0), min_size=1, max_size=60),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=50)
    def test_bounds_property(self, costs, m):
        costs = np.array(costs)
        ms = makespan_cycles(costs, m)
        # Greedy list scheduling lies between the trivial lower bounds and
        # the classic (2 - 1/m) upper bound.
        lower = max(costs.sum() / m, costs.max())
        assert ms >= lower - 1e-9
        assert ms <= (2 - 1 / m) * lower + 1e-9

    def test_kernel_time_includes_launch(self):
        t = kernel_time_s(np.array([1000.0]), 256, 0, TITAN_V)
        assert t > TITAN_V.kernel_launch_s

    def test_kernel_time_without_launch(self):
        t = kernel_time_s(np.array([1455.0]), 256, 0, TITAN_V, include_launch=False)
        assert t == pytest.approx(1e-6)


class TestMemoryLedger:
    def test_peak_tracks_high_water(self):
        led = MemoryLedger(TITAN_V)
        led.alloc(100, "a")
        led.alloc(50, "b")
        led.free("a")
        led.alloc(20, "c")
        assert led.peak == 150
        assert led.current == 70

    def test_oom_raised(self):
        led = MemoryLedger(TITAN_V)
        with pytest.raises(DeviceOOM):
            led.alloc(TITAN_V.global_mem_bytes + 1, "huge")

    def test_resident_counts_against_capacity(self):
        led = MemoryLedger(TITAN_V, resident_bytes=TITAN_V.global_mem_bytes - 10)
        with pytest.raises(DeviceOOM):
            led.alloc(100, "x")

    def test_resident_exceeding_capacity_fails_immediately(self):
        with pytest.raises(DeviceOOM):
            MemoryLedger(TITAN_V, resident_bytes=TITAN_V.global_mem_bytes + 1)

    def test_duplicate_tag_rejected(self):
        led = MemoryLedger(TITAN_V)
        led.alloc(10, "x")
        with pytest.raises(ValueError):
            led.alloc(10, "x")

    def test_negative_alloc_rejected(self):
        led = MemoryLedger(TITAN_V)
        with pytest.raises(ValueError):
            led.alloc(-5, "x")

    def test_free_unknown_tag_raises(self):
        led = MemoryLedger(TITAN_V)
        with pytest.raises(KeyError):
            led.free("nope")

    def test_free_all(self):
        led = MemoryLedger(TITAN_V)
        led.alloc(10, "a")
        led.alloc(20, "b")
        led.free_all()
        assert led.current == 0
        led.alloc(10, "a")  # tags reusable after free_all

    def test_oom_message_contains_tag(self):
        led = MemoryLedger(TITAN_V)
        with pytest.raises(DeviceOOM, match="mybuf"):
            led.alloc(TITAN_V.global_mem_bytes * 2, "mybuf")

    def test_peak_total_includes_resident(self):
        led = MemoryLedger(TITAN_V, resident_bytes=1000)
        led.alloc(500, "a")
        assert led.peak_total == 1500
