"""Tests for the §7 future-work extensions: partitioned and multi-GPU SpGEMM."""

import numpy as np
import pytest

from repro.core import MultiplyContext, device_csr_bytes, speck_multiply
from repro.extensions import (
    multigpu_multiply,
    partition_rows,
    partitioned_multiply,
    plan_slabs,
)
from repro.matrices import CSR
from repro.matrices.generators import banded, rmat, skew_single

from conftest import random_csr


def oracle(a, b):
    return (a.to_scipy() @ b.to_scipy()).toarray()


class TestSlabPlanning:
    def test_single_slab_when_budget_large(self):
        a = banded(500, 4, seed=1)
        plan = plan_slabs(a, a, budget_bytes=1 << 30)
        assert plan.n_slabs == 1

    def test_many_slabs_when_budget_tight(self):
        a = banded(2000, 4, seed=1)
        budget = device_csr_bytes(a.rows, a.nnz) * 2
        plan = plan_slabs(a, a, budget)
        assert plan.n_slabs > 2
        # slabs tile the rows exactly
        assert plan.boundaries[0] == 0 and plan.boundaries[-1] == a.rows
        assert np.all(np.diff(plan.boundaries) > 0)

    def test_rejects_budget_smaller_than_b(self):
        a = banded(1000, 4, seed=1)
        with pytest.raises(ValueError):
            plan_slabs(a, a, budget_bytes=1000)

    def test_rejects_nonpositive_budget(self):
        a = banded(10, 1, seed=1)
        with pytest.raises(ValueError):
            plan_slabs(a, a, 0)


class TestPartitionedMultiply:
    def test_correct_result(self, rng):
        a = random_csr(rng, 300, 300, 0.03)
        budget = device_csr_bytes(a.rows, a.nnz) * 3
        res = partitioned_multiply(a, a, budget_bytes=budget)
        assert res.valid
        assert res.n_slabs >= 1
        assert np.allclose(res.c.to_dense(), oracle(a, a))
        res.c.validate()

    def test_peak_memory_respects_budget(self):
        a = banded(4000, 8, seed=2)
        budget = device_csr_bytes(a.rows, a.nnz) * 3
        res = partitioned_multiply(a, a, budget_bytes=budget)
        # The conservative product bound means actual peaks stay below it.
        assert res.peak_mem_bytes <= budget * 1.1

    def test_more_slabs_cost_more_time(self):
        a = banded(4000, 8, seed=2)
        roomy = partitioned_multiply(a, a, budget_bytes=1 << 30)
        tight = partitioned_multiply(
            a, a, budget_bytes=device_csr_bytes(a.rows, a.nnz) * 3
        )
        assert tight.n_slabs > roomy.n_slabs
        assert tight.time_s > roomy.time_s

    def test_transfer_accounted(self):
        a = banded(3000, 6, seed=3)
        res = partitioned_multiply(a, a, budget_bytes=1 << 30)
        assert res.transfer_s > 0
        assert res.time_s == pytest.approx(res.transfer_s + res.compute_s)

    def test_failure_reported_when_b_too_large(self):
        a = banded(1000, 4, seed=1)
        res = partitioned_multiply(a, a, budget_bytes=10_000)
        assert not res.valid
        assert "budget" in res.failure

    def test_skewed_matrix_slabs_correctly(self):
        a = skew_single(1500, 3, 500, seed=4)
        budget = device_csr_bytes(a.rows, a.nnz) * 4
        res = partitioned_multiply(a, a, budget_bytes=budget)
        assert res.valid
        assert np.allclose(res.c.to_dense(), oracle(a, a))


class TestPartitionRows:
    def test_rows_mode_equal_counts(self):
        a = banded(1000, 4, seed=1)
        bounds = partition_rows(a, a, 4, balance="rows")
        assert list(np.diff(bounds)) == [250, 250, 250, 250]

    def test_products_mode_balances_work(self):
        a = skew_single(4000, 4, 1500, seed=5)
        from repro.kernels import row_products

        prods = row_products(a, a)
        bounds = partition_rows(a, a, 4, balance="products")
        shares = [
            prods[bounds[i]:bounds[i + 1]].sum() for i in range(4)
        ]
        # product balancing beats naive row balancing on skew
        bounds_naive = partition_rows(a, a, 4, balance="rows")
        shares_naive = [
            prods[bounds_naive[i]:bounds_naive[i + 1]].sum() for i in range(4)
        ]
        assert max(shares) <= max(shares_naive)

    def test_boundaries_monotone(self):
        a = rmat(9, 6, seed=6)
        bounds = partition_rows(a, a, 8)
        assert bounds[0] == 0 and bounds[-1] == a.rows
        assert np.all(np.diff(bounds) >= 0)

    def test_rejects_zero_devices(self):
        a = banded(10, 1, seed=1)
        with pytest.raises(ValueError):
            partition_rows(a, a, 0)

    def test_rejects_unknown_mode(self):
        a = banded(10, 1, seed=1)
        with pytest.raises(ValueError):
            partition_rows(a, a, 2, balance="banana")


class TestMultiGpu:
    def test_correct_result(self, rng):
        a = random_csr(rng, 400, 400, 0.02)
        res = multigpu_multiply(a, a, 4)
        assert res.valid
        assert np.allclose(res.c.to_dense(), oracle(a, a))

    def test_single_device_matches_speck(self):
        a = banded(2000, 6, seed=7)
        ctx = MultiplyContext(a, a)
        single = speck_multiply(a, a, ctx=ctx)
        multi = multigpu_multiply(a, a, 1)
        assert multi.broadcast_s == 0.0
        assert multi.time_s == pytest.approx(single.time_s, rel=1e-6)

    def test_large_matrix_scales(self):
        a = banded(60_000, 8, seed=8)
        ctx = MultiplyContext(a, a)
        single = speck_multiply(a, a, ctx=ctx)
        multi = multigpu_multiply(a, a, 4, compute_result=False)
        assert multi.speedup_vs(single.time_s) > 1.3

    def test_broadcast_and_gather_accounted(self):
        a = banded(5000, 6, seed=9)
        res = multigpu_multiply(a, a, 2, compute_result=False, gather=True)
        assert res.broadcast_s > 0 and res.gather_s > 0
        assert res.time_s == pytest.approx(
            res.broadcast_s + res.compute_s + res.gather_s
        )

    def test_gather_off_by_default(self):
        a = banded(5000, 6, seed=9)
        res = multigpu_multiply(a, a, 2, compute_result=False)
        assert res.gather_s == 0.0

    def test_product_balance_beats_row_balance_on_skew(self):
        a = skew_single(20_000, 8, 4000, seed=10)
        by_rows = multigpu_multiply(a, a, 4, balance="rows", compute_result=False)
        by_prods = multigpu_multiply(a, a, 4, balance="products", compute_result=False)
        assert by_prods.imbalance() <= by_rows.imbalance() + 0.05

    def test_device_times_reported(self):
        a = banded(3000, 4, seed=11)
        res = multigpu_multiply(a, a, 3, compute_result=False)
        assert len(res.device_times) == 3
        assert all(t >= 0 for t in res.device_times)

    def test_more_devices_than_rows(self):
        """Devices left without rows stack nothing into C."""
        from repro.kernels import esc_multiply

        a = banded(3, 1, seed=12)
        res = multigpu_multiply(a, a, 6)
        want = esc_multiply(a, a)
        assert res.valid and res.device_times.count(0.0) == 3
        assert np.array_equal(res.c.indptr, want.indptr)
        assert np.array_equal(res.c.indices, want.indices)
        assert res.c.data.tobytes() == want.data.tobytes()
