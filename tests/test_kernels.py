"""Tests for the exact reference kernels against independent oracles."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels import (
    count_flops,
    esc_multiply,
    expand_products,
    gustavson_multiply,
    row_products,
    symbolic_row_nnz,
)
from repro.matrices import generators
from repro.matrices.csr import CSR, csr_identity, csr_zeros

from conftest import csr_matrices, random_csr


def scipy_product(a: CSR, b: CSR) -> np.ndarray:
    return (a.to_scipy() @ b.to_scipy()).toarray()


class TestEscMultiply:
    def test_matches_scipy(self, small_pairs):
        for a, b in small_pairs:
            c = esc_multiply(a, b)
            c.validate()
            assert np.allclose(c.to_dense(), scipy_product(a, b))

    def test_matches_gustavson(self, small_pairs):
        for a, b in small_pairs:
            c1 = esc_multiply(a, b)
            c2 = gustavson_multiply(a, b)
            assert np.allclose(c1.to_dense(), c2.to_dense())

    def test_identity_is_neutral(self, rng):
        a = random_csr(rng, 15, 15, 0.2)
        c = esc_multiply(a, csr_identity(15))
        assert np.allclose(c.to_dense(), a.to_dense())

    def test_zero_matrix(self):
        c = esc_multiply(csr_zeros((4, 5)), csr_zeros((5, 3)))
        assert c.nnz == 0 and c.shape == (4, 3)

    def test_rectangular_shapes(self, rng):
        a = random_csr(rng, 7, 11, 0.3)
        b = random_csr(rng, 11, 4, 0.3)
        c = esc_multiply(a, b)
        assert c.shape == (7, 4)
        assert np.allclose(c.to_dense(), scipy_product(a, b))

    def test_dimension_mismatch_raises(self, rng):
        a = random_csr(rng, 4, 5, 0.5)
        b = random_csr(rng, 6, 4, 0.5)
        with pytest.raises(ValueError):
            esc_multiply(a, b)

    def test_keeps_cancelled_zeros(self):
        # a row that produces +1 and -1 on the same output column keeps the
        # structural entry (symbolic structure is value-independent).
        a = CSR.from_coo([0, 0], [0, 1], [1.0, -1.0], (1, 2))
        b = CSR.from_coo([0, 1], [0, 0], [1.0, 1.0], (2, 1))
        c = esc_multiply(a, b)
        assert c.nnz == 1 and c.data[0] == 0.0

    @given(csr_matrices(max_rows=12, max_cols=12, max_nnz=40))
    @settings(max_examples=40, deadline=None)
    def test_square_products_match_scipy(self, a):
        b = a.transpose()
        c = esc_multiply(a, b)
        c.validate()
        assert np.allclose(c.to_dense(), scipy_product(a, b), atol=1e-9)


class TestGustavson:
    @given(csr_matrices(max_rows=10, max_cols=10, max_nnz=30))
    @settings(max_examples=30, deadline=None)
    def test_matches_scipy_property(self, a):
        b = a.transpose()
        c = gustavson_multiply(a, b)
        assert np.allclose(c.to_dense(), scipy_product(a, b), atol=1e-9)

    def test_output_sorted(self, rng):
        a = random_csr(rng, 20, 20, 0.2)
        gustavson_multiply(a, a).validate()


class TestStructuralKernels:
    def test_row_products_definition(self, small_pairs):
        for a, b in small_pairs:
            rp = row_products(a, b)
            b_nnz = b.row_nnz()
            expected = np.array(
                [int(b_nnz[a.row(i)[0]].sum()) for i in range(a.rows)]
            )
            assert np.array_equal(rp, expected)

    def test_row_products_empty(self):
        assert row_products(csr_zeros((3, 3)), csr_zeros((3, 3))).sum() == 0

    def test_count_flops_is_twice_products(self, small_pairs):
        a, b = small_pairs[0]
        assert count_flops(a, b) == 2 * int(row_products(a, b).sum())

    def test_symbolic_matches_actual(self, small_pairs):
        for a, b in small_pairs:
            c = esc_multiply(a, b)
            assert np.array_equal(symbolic_row_nnz(a, b), c.row_nnz())

    def test_symbolic_empty(self):
        out = symbolic_row_nnz(csr_zeros((4, 4)), csr_zeros((4, 4)))
        assert np.array_equal(out, np.zeros(4, dtype=np.int64))

    def test_expand_products_count(self, small_pairs):
        for a, b in small_pairs:
            rows, cols, vals = expand_products(a, b)
            total = int(row_products(a, b).sum())
            assert rows.size == cols.size == vals.size == total

    def test_expand_products_values(self):
        a = CSR.from_coo([0, 0], [0, 1], [2.0, 3.0], (1, 2))
        b = CSR.from_coo([0, 1], [0, 0], [5.0, 7.0], (2, 1))
        rows, cols, vals = expand_products(a, b)
        assert sorted(vals) == [10.0, 21.0]
        assert np.all(rows == 0) and np.all(cols == 0)

    def test_shape_mismatch_raises(self, rng):
        a = random_csr(rng, 3, 4, 0.5)
        with pytest.raises(ValueError):
            row_products(a, a)


#: One small instance of every generator family, as ``(size, seed) -> CSR``.
_FAMILIES = {
    "banded": lambda n, s: generators.banded(n, 3, 0.7, seed=s),
    "poisson2d": lambda n, s: generators.poisson2d(max(2, n // 8), seed=s),
    "poisson3d": lambda n, s: generators.poisson3d(max(2, n // 24), seed=s),
    "circuit": lambda n, s: generators.circuit(n, seed=s),
    "rmat": lambda n, s: generators.rmat(max(2, n.bit_length()), 4, seed=s),
    "random_uniform": lambda n, s: generators.random_uniform(n, n, 3.0, seed=s),
    "rect_lp": lambda n, s: generators.rect_lp(n, 3 * n, 5, seed=s),
    "dense_stripe": lambda n, s: generators.dense_stripe(n, 24, 6, seed=s),
    "skew_single": lambda n, s: generators.skew_single(n, 2, n // 2, seed=s),
    "diagonal": lambda n, s: generators.diagonal(n, seed=s),
    "block_dense": lambda n, s: generators.block_dense(n, 8, 3, 0.5, seed=s),
}


def _sparse_corner(rows: int, inner: int, cols: int) -> tuple:
    """Very sparse ``rows x inner`` and ``inner x cols`` operands whose
    product has entries in its last row and last column, so the largest
    composite key ``rows * cols - 1`` occurs."""
    rng = np.random.default_rng(rows * cols)
    ar = np.concatenate([rng.integers(0, rows, 40), [rows - 1, rows - 1]])
    ac = np.concatenate([rng.integers(0, inner, 40), [0, inner - 1]])
    br = np.concatenate([rng.integers(0, inner, 40), [0, inner - 1, inner - 1]])
    bc = np.concatenate([rng.integers(0, cols, 40), [cols - 1, cols - 1, 0]])
    a = CSR.from_coo(ar, ac, np.ones(ar.size), (rows, inner))
    b = CSR.from_coo(br, bc, np.ones(br.size), (inner, cols))
    return a, b


class TestSymbolicRowNnz:
    """``symbolic_row_nnz`` against the row sizes of the exact product."""

    def test_covers_every_generator_family(self):
        assert sorted(_FAMILIES) == sorted(generators.__all__)

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(sorted(_FAMILIES)),
        n=st.integers(min_value=4, max_value=90),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_matches_exact_product_on_generator_families(self, family, n, seed):
        a = _FAMILIES[family](n, seed)
        b = a.transpose() if a.rows != a.cols else a
        out = symbolic_row_nnz(a, b)
        expected = esc_multiply(a, b).row_nnz()
        assert out.dtype == expected.dtype
        assert np.array_equal(out, expected)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (2**16, 2**15 - 1),  # rows * cols just under 2**31: int32 keys
            (2**16, 2**15),  # exactly 2**31: the int64 fallback
            (2**16, 2**15 + 1),  # just over: the top keys overflow int32
        ],
    )
    def test_key_width_boundary(self, rows, cols):
        a, b = _sparse_corner(rows, 64, cols)
        out = symbolic_row_nnz(a, b)
        expected = esc_multiply(a, b).row_nnz()
        assert out[-1] >= 2
        assert np.array_equal(out, expected)

    def test_result_is_read_only(self, small_pairs):
        a, b = small_pairs[0]
        with pytest.raises(ValueError):
            symbolic_row_nnz(a, b)[0] = 1
        with pytest.raises(ValueError):
            symbolic_row_nnz(csr_zeros((3, 3)), csr_zeros((3, 3)))[0] = 1
