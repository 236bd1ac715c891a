"""Tests for MultiplyContext and SpGEMMResult."""

import numpy as np
import pytest

from repro.baselines import all_algorithms, registry
from repro.core import MultiplyContext, SpeckEngine, device_csr_bytes
from repro.core import context as context_mod
from repro.eval import run_suite, small_corpus
from repro.kernels.reference import esc_multiply
from repro.matrices.csr import csr_zeros
from repro.matrices.generators import banded, rect_lp, rmat
from repro.result import SpGEMMResult

from conftest import random_csr


class TestMultiplyContext:
    def test_lazy_caching(self, rng):
        a = random_csr(rng, 40, 40, 0.1)
        ctx = MultiplyContext(a, a)
        assert ctx._c is None
        c1 = ctx.c
        assert ctx.c is c1  # cached

    def test_c_row_nnz_matches_c(self, rng):
        a = random_csr(rng, 30, 30, 0.15)
        ctx = MultiplyContext(a, a)
        assert np.array_equal(ctx.c_row_nnz, ctx.c.row_nnz())
        assert ctx.c_nnz == ctx.c.nnz

    def test_c_row_nnz_sized_without_building_c(self, rng):
        a = random_csr(rng, 30, 30, 0.15)
        ctx = MultiplyContext(a, a)
        assert ctx.c_nnz == esc_multiply(a, a).nnz
        assert ctx._c is None

    def test_c_nnz_summed_once_and_reset_by_seeding(self, rng):
        a = random_csr(rng, 30, 30, 0.15)
        ctx = MultiplyContext(a, a)
        nnz = ctx.c_nnz
        ctx._c_row_nnz = np.zeros_like(ctx.c_row_nnz)  # not re-read
        assert ctx.c_nnz == nnz
        seeded = np.array([2, 3] + [0] * 28, dtype=np.int64)
        ctx.seed_structure(ctx.analysis, seeded)
        assert ctx.c_nnz == 5

    @pytest.mark.parametrize("built_first", [False, True])
    def test_c_row_nnz_is_read_only(self, rng, built_first):
        # A plan that captures the array must not be poisoned by an
        # in-place write, whichever path sized the rows.
        a = random_csr(rng, 30, 30, 0.15)
        ctx = MultiplyContext(a, a)
        if built_first:
            ctx.c
        with pytest.raises(ValueError):
            ctx.c_row_nnz[0] = 99

    def test_flops_definition(self, rng):
        a = random_csr(rng, 20, 20, 0.2)
        ctx = MultiplyContext(a, a)
        assert ctx.flops == 2 * ctx.total_products

    def test_compaction_at_least_one(self, rng):
        a = random_csr(rng, 25, 25, 0.2)
        ctx = MultiplyContext(a, a)
        if ctx.c_nnz:
            assert ctx.compaction >= 1.0

    def test_rectangular(self):
        a = rect_lp(20, 100, 4, seed=1)
        b = a.transpose()
        ctx = MultiplyContext(a, b)
        assert ctx.c.shape == (20, 20)

    def test_shape_mismatch_rejected(self, rng):
        a = random_csr(rng, 4, 5, 0.5)
        b = random_csr(rng, 4, 5, 0.5)
        with pytest.raises(ValueError):
            MultiplyContext(a, b)

    def test_byte_accounting(self):
        a = banded(100, 2, seed=1)
        ctx = MultiplyContext(a, a)
        assert ctx.input_bytes == 2 * device_csr_bytes(a.rows, a.nnz)
        assert ctx.output_bytes == device_csr_bytes(a.rows, ctx.c_nnz)

    def test_empty_matrix_context(self):
        z = csr_zeros((6, 6))
        ctx = MultiplyContext(z, z)
        assert ctx.total_products == 0
        assert ctx.c_nnz == 0
        assert ctx.compaction == 0.0

    def test_device_csr_bytes_formula(self):
        # 32-bit offsets + (32-bit index + 64-bit value) per entry
        assert device_csr_bytes(10, 100) == 4 * 11 + 12 * 100


class TestSpGEMMResult:
    def test_gflops(self):
        r = SpGEMMResult(method="x", c=None, time_s=1e-3, peak_mem_bytes=1)
        assert r.gflops(2_000_000) == pytest.approx(2.0)

    def test_gflops_invalid_is_zero(self):
        r = SpGEMMResult.failed("x", "boom")
        assert r.gflops(10**9) == 0.0

    def test_failed_constructor(self):
        r = SpGEMMResult.failed("m", "out of memory")
        assert not r.valid
        assert r.failure == "out of memory"
        assert r.time_s == float("inf")
        assert r.c is None

    def test_default_flags(self):
        r = SpGEMMResult(method="x", c=None, time_s=1.0, peak_mem_bytes=0)
        assert r.valid and r.sorted_output
        assert r.stage_times == {} and r.decisions == {}


class _CountingESC:
    """Stand-in for ``esc_multiply`` at its binding in ``repro.core.context``."""

    def __init__(self):
        self.calls = 0

    def __call__(self, a, b):
        self.calls += 1
        return esc_multiply(a, b)


@pytest.fixture
def esc_counter(monkeypatch):
    counter = _CountingESC()
    monkeypatch.setattr(context_mod, "esc_multiply", counter)
    return counter


class TestDeferredProduct:
    """Costing a multiply never builds C; reading ``result.c`` does, once,
    bit-identical to an eager exact product."""

    def test_model_mode_sweep_builds_no_product(self, esc_counter):
        res = run_suite(small_corpus())
        assert res.runs and esc_counter.calls == 0

    def test_execute_mode_builds_no_reference_product(self, esc_counter):
        a = rmat(9, 8, seed=3)
        res = SpeckEngine().multiply(a, a, mode="execute")
        assert esc_counter.calls == 0
        assert res.c.nnz == esc_multiply(a, a).nnz

    # Every registered method: spECK, the paper's seven baselines and cuSP.
    @pytest.mark.parametrize("method", sorted(registry()))
    def test_result_c_is_bit_identical_to_eager(self, method, esc_counter):
        a = rmat(8, 6, seed=5)
        expected = esc_multiply(a, a)
        ctx = MultiplyContext(a, a)
        (algo,) = all_algorithms(names=[method])
        res = algo.run(ctx)
        assert res.valid
        assert esc_counter.calls == 0
        c = res.c
        assert esc_counter.calls == 1
        assert c.shape == expected.shape
        for name in ("indptr", "indices", "data"):
            got, want = getattr(c, name), getattr(expected, name)
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert res.c is c
        assert esc_counter.calls == 1
