"""Tests for the exact reference kernels against independent oracles."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.kernels import (
    count_flops,
    esc_multiply,
    expand_products,
    gustavson_multiply,
    row_products,
    symbolic_row_nnz,
)
from repro.kernels import reference
from repro.kernels.reference import (
    composite_keys,
    compress,
    distinct_per_segment,
    key_dtype,
    position_dtype,
    row_positions,
    sort_keys,
)
from repro.matrices import generators, ops
from repro.matrices.csr import CSR, csr_identity, csr_zeros, expand_ranges

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


def _assert_same_csr(got: CSR, want: CSR) -> None:
    """Bit-for-bit equality of two CSR matrices, dtypes included."""
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        g, w = getattr(got, name), getattr(want, name)
        assert g.dtype == w.dtype, name
        assert g.tobytes() == w.tobytes(), name


class TestSharedKernels:
    """The sort-and-compress kernels every exact product goes through,
    against oracles that do not use them."""

    @pytest.mark.parametrize(
        "rows, width, dtype",
        [
            (1, 2**31 - 1, np.int32),
            (2**16, 2**15, np.int64),  # 2**31
            (2, 2**62, np.int64),  # 2**63: the largest key is 2**63 - 1
        ],
    )
    def test_key_dtype_boundaries(self, rows, width, dtype):
        assert key_dtype(rows, width) is dtype

    @pytest.mark.parametrize(
        "rows, width", [(2, 2**62 + 1), (5, 2**62), (2**32, 2**32)]
    )
    def test_key_dtype_refuses_keys_beyond_int64(self, rows, width):
        with pytest.raises(ValueError):
            key_dtype(rows, width)

    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.integers(min_value=0, max_value=12),
        cols=st.sampled_from([0, 1, 2, 7, 40]),
        nnz=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_compress_matches_from_coo(self, rows, cols, nnz, seed):
        """Random COO input with duplicate keys and empty rows; the values
        are signed so a different fold order would change their sums."""
        if rows == 0 or cols == 0:
            nnz = 0
        rng = np.random.default_rng(seed)
        r = 2 * rng.integers(0, max((rows + 1) // 2, 1), nnz)  # odd rows stay empty
        c = rng.integers(0, max(min(cols, 3), 1), nnz)  # few columns: keys repeat
        v = rng.standard_normal(nnz) * 10.0 ** rng.integers(-8, 8, nnz)
        shape = (rows, cols)
        got = compress(composite_keys(r, c, shape), v, shape)
        _assert_same_csr(got, CSR.from_coo(r, c, v, shape))

    @settings(max_examples=60, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=0, max_value=9), max_size=8),
        width=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @example(sizes=[], width=3, seed=0)
    @example(sizes=[0, 0, 0], width=3, seed=0)
    @example(sizes=[0, 4, 0, 0, 5, 0], width=2, seed=1)
    def test_distinct_per_segment_matches_unique(self, sizes, width, seed):
        """Empty segments included, offsets in both position widths."""
        rng = np.random.default_rng(seed)
        segments = [rng.integers(0, width, n) for n in sizes]
        want = [len(np.unique(seg)) for seg in segments]
        offsets = np.concatenate([[0], np.cumsum(sizes, dtype=np.int64)])
        for pd in (np.int32, np.int64):
            keys = np.concatenate(
                [np.empty(0, dtype=np.int64)]
                + [seg + i * width for i, seg in enumerate(segments)]
            ).astype(key_dtype(len(sizes), width))
            got = distinct_per_segment(keys, offsets.astype(pd))
            assert got.dtype == np.int64
            assert got.tolist() == want

    @pytest.mark.parametrize(
        "n_positions, extent, dtype",
        [
            (2**31 - 1, 2**31 - 1, np.int32),
            (0, 0, np.int32),
            (2**31, 0, np.int64),
            (0, 2**31, np.int64),
            (2**31 - 1, 2**31, np.int64),
        ],
    )
    def test_position_dtype_boundaries(self, n_positions, extent, dtype):
        assert position_dtype(n_positions, extent) is dtype

    @pytest.mark.parametrize("wide", [False, True])
    def test_row_positions_match_expand_ranges(self, small_pairs, wide, monkeypatch):
        """Both position widths; the int64 side is forced, since reaching it
        for real takes 2**31 entries."""
        if wide:
            monkeypatch.setattr(reference, "position_dtype", lambda n, e: np.int64)
        pairs = small_pairs + [(csr_zeros((3, 4)), csr_zeros((4, 5)))]
        for a, b in pairs:
            counts = b.row_nnz()[a.indices]
            off = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
            got = row_positions(b, a.indices, counts, off)
            assert got.dtype == (np.int64 if wide else np.int32)
            want = expand_ranges(b.indptr[a.indices], counts)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("key_bits, packed", [(60, True), (61, False)])
    def test_sort_keys_packs_only_within_63_bits(self, key_bits, packed, monkeypatch):
        """Eight keys take three index bits: 60 + 3 bits pack into one
        int64, 61 + 3 do not.  The largest key occurs three times and the
        smallest twice, so the tie order shows."""
        span = 2**key_bits
        keys = np.array(
            [span - 1, 5, 0, span - 1, 2**40, 0, span - 1, 5], dtype=np.int64
        )
        want = np.argsort(keys, kind="stable")
        argsorts = []
        real_argsort = np.argsort

        def spy(*args, **kwargs):
            argsorts.append(kwargs)
            return real_argsort(*args, **kwargs)

        monkeypatch.setattr(np, "argsort", spy)
        sorted_keys, order = sort_keys(keys, span)
        assert bool(argsorts) is not packed
        assert order.tolist() == want.tolist()
        assert sorted_keys.tolist() == keys[want].tolist()

    @pytest.mark.parametrize("key_bits", [60, 61])
    def test_compress_matches_from_coo_at_the_packing_limit(self, key_bits):
        """Both sides of the 63-bit packing rule, with duplicates of the
        largest key ``2 * width - 1`` and signed values."""
        shape = (2, 2 ** (key_bits - 1))
        width = shape[1]
        r = np.array([1, 0, 1, 0, 1, 1, 0, 1])
        c = np.array([width - 1, 3, width - 1, 0, 0, width - 1, 3, 2**30])
        v = np.array([1e16, 2.0, 1.0, -3.0, 4.0, -1e16, 5e-8, 7.0])
        got = compress(composite_keys(r, c, shape), v, shape)
        _assert_same_csr(got, CSR.from_coo(r, c, v, shape))

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (2**16, 2**15 - 1),  # int32 keys
            (2**16, 2**15 + 1),  # int64 keys
            (2, 2**62),  # rows * cols == 2**63
        ],
    )
    def test_esc_matches_from_coo_at_key_width_limits(self, rows, cols):
        a, b = _sparse_corner(rows, 64, cols)
        c = esc_multiply(a, b)
        assert c.indices[-1] == cols - 1 and c.row_nnz()[-1] >= 2
        _assert_same_csr(c, CSR.from_coo(*expand_products(a, b), (rows, cols)))

    def test_keys_beyond_int64_raise_instead_of_aliasing_rows(self):
        """A 5 x 2**62 product: row 4's keys wrapped onto row 0's, so the
        exact product, the symbolic pass and ``ops.add`` returned a wrong
        C without an error."""
        a = CSR.from_coo([0, 4], [0, 0], [1.0, 10.0], (5, 1))
        b = CSR.from_coo([0, 0], [0, 2**62 - 1], [1.0, 2.0], (1, 2**62))
        c = CSR.from_coo([0, 4], [0, 2**62 - 1], [1.0, 2.0], (5, 2**62))
        for run in (
            lambda: esc_multiply(a, b),
            lambda: symbolic_row_nnz(a, b),
            lambda: ops.add(c, c),
            lambda: ops.hadamard(c, c),
        ):
            with pytest.raises(ValueError, match="int64"):
                run()
