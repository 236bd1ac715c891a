"""Tests for element-wise sparse operations."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.matrices import CSR
from repro.matrices.csr import csr_zeros
from repro.matrices.ops import (
    add,
    diag_vector,
    frobenius_norm,
    hadamard,
    keep_entries,
    mask,
    pattern,
    prune,
    scale,
    subtract,
)

from conftest import csr_matrices, random_csr


class TestAdd:
    def test_matches_dense(self, rng):
        a = random_csr(rng, 10, 12, 0.3)
        b = random_csr(rng, 10, 12, 0.3)
        out = add(a, b)
        assert np.allclose(out.to_dense(), a.to_dense() + b.to_dense())
        out.validate()

    def test_scaled(self, rng):
        a = random_csr(rng, 8, 8, 0.4)
        b = random_csr(rng, 8, 8, 0.4)
        out = add(a, b, alpha=2.0, beta=-0.5)
        assert np.allclose(out.to_dense(), 2 * a.to_dense() - 0.5 * b.to_dense())

    def test_subtract_self_keeps_structure(self, rng):
        a = random_csr(rng, 6, 6, 0.5)
        out = subtract(a, a)
        assert out.nnz == a.nnz  # structural union keeps cancelled entries
        assert np.allclose(out.data, 0.0)

    def test_empty_operands(self):
        z = csr_zeros((4, 4))
        assert add(z, z).nnz == 0

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            add(random_csr(rng, 3, 3, 0.5), random_csr(rng, 3, 4, 0.5))

    @given(csr_matrices(max_rows=10, max_cols=10, max_nnz=30))
    @settings(max_examples=30)
    def test_add_commutes(self, a):
        b = a.transpose().transpose()  # same shape, same matrix
        assert np.allclose(add(a, b).to_dense(), 2 * a.to_dense())


class TestHadamardMask:
    def test_matches_dense(self, rng):
        a = random_csr(rng, 9, 9, 0.4)
        b = random_csr(rng, 9, 9, 0.4)
        out = hadamard(a, b)
        assert np.allclose(out.to_dense(), a.to_dense() * b.to_dense())
        out.validate()

    def test_disjoint_structures(self):
        a = CSR.from_coo([0], [0], [2.0], (2, 2))
        b = CSR.from_coo([1], [1], [3.0], (2, 2))
        assert hadamard(a, b).nnz == 0

    def test_mask_keeps_values(self, rng):
        a = random_csr(rng, 8, 8, 0.5)
        m = random_csr(rng, 8, 8, 0.3)
        out = mask(a, m)
        d = a.to_dense().copy()
        d[m.to_dense() == 0] = 0.0
        assert np.allclose(out.to_dense(), d)

    def test_pattern(self, rng):
        a = random_csr(rng, 5, 5, 0.5)
        p = pattern(a)
        assert np.array_equal(p.indices, a.indices)
        assert np.all(p.data == 1.0)

    def test_empty(self):
        z = csr_zeros((3, 3))
        assert hadamard(z, z).nnz == 0


class TestScalePrune:
    def test_scale(self, rng):
        a = random_csr(rng, 6, 6, 0.5)
        assert np.allclose(scale(a, -3.0).to_dense(), -3.0 * a.to_dense())

    def test_prune_tolerance(self):
        a = CSR.from_coo([0, 0, 0], [0, 1, 2], [1e-12, 0.5, -2.0], (1, 3))
        out = prune(a, tol=1e-9)
        assert out.nnz == 2

    def test_prune_predicate(self, rng):
        a = random_csr(rng, 6, 6, 0.5)
        out = prune(a, predicate=lambda v: v > 0)
        assert np.all(out.data > 0)
        out.validate()

    @settings(max_examples=50, deadline=None)
    @given(csr_matrices())
    def test_keep_entries_matches_from_coo(self, a):
        keep = np.arange(a.nnz) % 3 != 1
        rows, cols, vals = a.row_ids()[keep], a.indices[keep], a.data[keep]
        for data in (None, -vals):
            got = keep_entries(a, keep, data)
            want = CSR.from_coo(rows, cols, vals if data is None else data, a.shape)
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
            assert got.data.tobytes() == want.data.tobytes()

    def test_prune_bad_predicate(self, rng):
        a = random_csr(rng, 4, 4, 0.5)
        with pytest.raises(ValueError):
            prune(a, predicate=lambda v: np.ones(max(1, v.size // 2), dtype=bool))

    def test_frobenius(self, rng):
        a = random_csr(rng, 7, 7, 0.4)
        assert frobenius_norm(a) == pytest.approx(np.linalg.norm(a.to_dense()))

    def test_diag_vector(self):
        a = CSR.from_coo([0, 1, 1], [0, 1, 0], [5.0, 7.0, 1.0], (2, 3))
        assert list(diag_vector(a)) == [5.0, 7.0]


class TestAlgebraicIdentities:
    """Cross-validate SpGEMM via element-wise identities."""

    def test_distributive_law(self, rng):
        from repro.kernels import esc_multiply

        a = random_csr(rng, 8, 8, 0.3)
        b = random_csr(rng, 8, 8, 0.3)
        c = random_csr(rng, 8, 8, 0.3)
        lhs = esc_multiply(a, add(b, c))
        rhs = add(esc_multiply(a, b), esc_multiply(a, c))
        assert np.allclose(lhs.to_dense(), rhs.to_dense())

    def test_scalar_commutes_with_multiply(self, rng):
        from repro.kernels import esc_multiply

        a = random_csr(rng, 7, 7, 0.4)
        b = random_csr(rng, 7, 7, 0.4)
        lhs = esc_multiply(scale(a, 2.0), b)
        rhs = scale(esc_multiply(a, b), 2.0)
        assert np.allclose(lhs.to_dense(), rhs.to_dense())

    def test_masked_multiply_identity(self, rng):
        from repro.kernels import esc_multiply

        a = random_csr(rng, 8, 8, 0.4)
        m = random_csr(rng, 8, 8, 0.3)
        full = esc_multiply(a, a)
        masked = mask(full, m)
        dense = a.to_dense() @ a.to_dense()
        dense[m.to_dense() == 0] = 0.0
        assert np.allclose(masked.to_dense(), dense)
