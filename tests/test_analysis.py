"""Tests for the lightweight row analysis (Algorithm 1)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.analysis import analyze, analysis_time_s
from repro.gpu import TITAN_V
from repro.matrices.csr import CSR, csr_zeros
from repro.matrices.generators import banded, rmat

from conftest import csr_matrices, random_csr


def brute_force_analysis(a: CSR, b: CSR):
    """Literal transcription of Algorithm 1 (per-row Python loops)."""
    prods = np.zeros(a.rows, dtype=np.int64)
    max_ref = np.zeros(a.rows, dtype=np.int64)
    col_min = np.zeros(a.rows, dtype=np.int64)
    col_max = np.full(a.rows, -1, dtype=np.int64)
    adjacency = np.zeros(a.rows, dtype=np.int64)
    for i in range(a.rows):
        cols, _ = a.row(i)
        adjacency[i] = sum(
            int(cols[k + 1]) == int(cols[k]) + 1 for k in range(cols.size - 1)
        )
        lo, hi = np.iinfo(np.int64).max, -1
        for k in cols:
            b_cols, _ = b.row(int(k))
            prods[i] += b_cols.size
            max_ref[i] = max(max_ref[i], b_cols.size)
            if b_cols.size:
                lo = min(lo, int(b_cols[0]))
                hi = max(hi, int(b_cols[-1]))
        if prods[i] > 0:
            col_min[i], col_max[i] = lo, hi
    return prods, max_ref, col_min, col_max, adjacency


class TestAnalyze:
    @given(csr_matrices(max_rows=14, max_cols=14, max_nnz=50))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force(self, a):
        b = a.transpose()
        an = analyze(a, b)
        prods, max_ref, col_min, col_max, adjacency = brute_force_analysis(a, b)
        assert np.array_equal(an.products, prods)
        assert np.array_equal(an.max_ref_row, max_ref)
        assert np.array_equal(an.col_min, col_min)
        assert np.array_equal(an.col_max, col_max)
        assert np.array_equal(an.adjacency, adjacency)

    def test_adjacency_of_empty_first_row(self):
        # Row 0 is empty; row 1 references B rows 0, 1, 2 (two adjacent pairs).
        a = CSR.from_coo([1, 1, 1], [0, 1, 2], [1.0, 1.0, 1.0], (2, 3))
        b = CSR.from_coo([0, 1, 2], [0, 0, 0], [1.0, 1.0, 1.0], (3, 1))
        assert analyze(a, b).adjacency.tolist() == [0, 2]

    def test_aggregates(self, rng):
        a = random_csr(rng, 30, 30, 0.1)
        an = analyze(a, a)
        assert an.prod_total == int(an.products.sum())
        assert an.prod_max == int(an.products.max())
        assert an.rows == 30

    def test_empty_matrix(self):
        an = analyze(csr_zeros((5, 5)), csr_zeros((5, 5)))
        assert an.prod_total == 0 and an.prod_max == 0
        assert np.array_equal(an.col_range(), np.zeros(5, dtype=np.int64))

    def test_col_range(self):
        a = CSR.from_coo([0], [0], [1.0], (1, 2))
        b = CSR.from_coo([0, 0], [1, 4], [1.0, 1.0], (2, 6))
        an = analyze(a, b)
        assert an.col_range()[0] == 4  # columns 1..4

    def test_mean_products(self, rng):
        a = random_csr(rng, 10, 10, 0.3)
        an = analyze(a, a)
        assert an.mean_products() == pytest.approx(float(an.products.mean()))

    def test_dimension_mismatch(self, rng):
        a = random_csr(rng, 3, 4, 0.5)
        b = random_csr(rng, 5, 3, 0.5)
        with pytest.raises(ValueError):
            analyze(a, b)


class TestAdjacency:
    def test_banded_has_high_adjacency(self):
        a = banded(100, 4, seed=0)
        an = analyze(a, a)
        inner = an.adjacency[5:-5]
        # full band rows have 8 adjacent pairs out of 9 entries
        assert inner.mean() > 6

    def test_scattered_has_low_adjacency(self):
        a = rmat(9, 8, seed=0)
        an = analyze(a, a)
        assert an.adjacency.sum() < 0.2 * a.nnz

    def test_adjacency_never_exceeds_row_pairs(self, rng):
        a = random_csr(rng, 40, 40, 0.2)
        an = analyze(a, a)
        assert np.all(an.adjacency <= np.maximum(an.a_row_nnz - 1, 0))

    def test_single_row_exact(self):
        a = CSR.from_coo([0, 0, 0, 0], [1, 2, 5, 6], np.ones(4), (1, 8))
        an = analyze(a, csr_zeros((8, 3)))
        assert an.adjacency[0] == 2  # (1,2) and (5,6)


class TestAnalysisCost:
    def test_time_positive_and_scales(self):
        small = banded(100, 2, seed=0)
        big = banded(50_000, 2, seed=0)
        t_small = analysis_time_s(small.nnz, TITAN_V)
        t_big = analysis_time_s(big.nnz, TITAN_V)
        assert 0 < t_small < t_big

    def test_time_is_cheap_relative_to_multiply(self):
        from repro.core import MultiplyContext, speck_multiply

        a = banded(20_000, 8, seed=0)
        ctx = MultiplyContext(a, a)
        res = speck_multiply(a, a, ctx=ctx)
        # The paper: row analysis is <10% of execution in most cases.
        assert res.stage_times["analysis"] < 0.3 * res.time_s
