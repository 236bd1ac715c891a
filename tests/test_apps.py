"""Tests for the application modules (MCL clustering, AMG hierarchy)."""

import numpy as np
import pytest

from repro.apps import (
    add_self_loops,
    build_hierarchy,
    column_normalize,
    greedy_aggregate,
    markov_clustering,
)
from repro.matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE
from repro.matrices.generators import poisson2d


def block_graph(n_blocks: int = 3, block: int = 8, seed: int = 0) -> CSR:
    """Disjoint cliques — the unambiguous clustering ground truth."""
    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for b in range(n_blocks):
        base = b * block
        for i in range(block):
            for j in range(block):
                if i != j:
                    rows.append(base + i)
                    cols.append(base + j)
    n = n_blocks * block
    vals = np.ones(len(rows), dtype=VALUE_DTYPE)
    return CSR.from_coo(
        np.array(rows, dtype=INDEX_DTYPE),
        np.array(cols, dtype=INDEX_DTYPE),
        vals,
        (n, n),
    )


class TestMclHelpers:
    def test_self_loops_added(self):
        g = block_graph(2, 4)
        with_loops = add_self_loops(g)
        d = with_loops.to_dense()
        assert np.all(np.diag(d) == 1.0)
        assert with_loops.nnz == g.nnz + g.rows

    def test_column_normalize(self):
        g = add_self_loops(block_graph(2, 4))
        m = column_normalize(g)
        sums = m.to_dense().sum(axis=0)
        assert np.allclose(sums, 1.0)

    def test_column_normalize_empty_columns(self):
        m = CSR.from_coo([0], [0], [2.0], (2, 2))
        out = column_normalize(m)
        assert out.to_dense()[0, 0] == 1.0  # empty column left at zero


class TestMcl:
    def test_separates_disjoint_cliques(self):
        g = block_graph(3, 8, seed=1)
        res = markov_clustering(g)
        assert res.n_clusters == 3
        # vertices in the same block share a label
        labels = res.labels.reshape(3, 8)
        for b in range(3):
            assert len(set(labels[b].tolist())) == 1
        # different blocks have different labels
        assert len({labels[b][0] for b in range(3)}) == 3

    def test_converges(self):
        g = block_graph(2, 6, seed=2)
        res = markov_clustering(g)
        assert res.converged
        assert res.iterations <= 30

    def test_expansion_profile_recorded(self):
        g = block_graph(2, 6, seed=3)
        res = markov_clustering(g)
        assert len(res.expansion_times) == res.iterations
        assert res.total_expansion_s > 0
        assert len(res.nnz_history) == res.iterations
        assert len(res.decisions) == res.iterations

    def test_higher_inflation_fragments_more(self):
        # one weakly-connected chain: strong inflation cuts it apart
        n = 24
        rows = list(range(n - 1)) + list(range(1, n))
        cols = list(range(1, n)) + list(range(n - 1))
        chain = CSR.from_coo(
            np.array(rows), np.array(cols), np.ones(len(rows)), (n, n)
        )
        weak = markov_clustering(chain, inflation=1.4, max_iterations=20)
        strong = markov_clustering(chain, inflation=3.0, max_iterations=20)
        assert strong.n_clusters >= weak.n_clusters

    def test_rejects_rectangular(self):
        m = CSR.from_coo([0], [1], [1.0], (2, 3))
        with pytest.raises(ValueError):
            markov_clustering(m)


class TestAggregation:
    def test_covers_all_vertices(self):
        a = poisson2d(12)
        agg = greedy_aggregate(a)
        assert np.all(agg >= 0)
        assert agg.size == a.rows

    def test_aggregate_ids_contiguous(self):
        a = poisson2d(8)
        agg = greedy_aggregate(a)
        assert set(np.unique(agg)) == set(range(int(agg.max()) + 1))

    def test_coarsens(self):
        a = poisson2d(16)
        agg = greedy_aggregate(a)
        # greedy aggregation yields a mix of pairs and triples: at least
        # a 2x reduction by count
        assert int(agg.max()) + 1 <= a.rows / 2


class TestAmgHierarchy:
    def test_builds_multiple_levels(self):
        h = build_hierarchy(poisson2d(24), min_coarse=10)
        assert h.n_levels >= 3
        sizes = [l.a.rows for l in h.levels]
        assert sizes == sorted(sizes, reverse=True)

    def test_null_space_preserved(self):
        # Galerkin coarse Laplacians keep zero row sums on interior rows.
        h = build_hierarchy(poisson2d(20), min_coarse=8)
        coarse = h.levels[1].a
        sums = np.zeros(coarse.rows)
        np.add.at(sums, coarse.row_ids(), coarse.data)
        # the Neumann-free 5-point stencil has boundary rows with nonzero
        # sums; interior aggregates must preserve exact zeros
        assert (np.abs(sums) < 1e-9).sum() > 0

    def test_galerkin_matches_dense_triple_product(self):
        a = poisson2d(10)
        h = build_hierarchy(a, max_levels=2, min_coarse=4)
        assert h.n_levels == 2
        p = h.levels[1].p
        dense = p.to_dense().T @ a.to_dense() @ p.to_dense()
        assert np.allclose(h.levels[1].a.to_dense(), dense)

    def test_cost_profile(self):
        h = build_hierarchy(poisson2d(24), min_coarse=10)
        assert h.total_galerkin_s > 0
        assert all(l.galerkin_time_s > 0 for l in h.levels[1:])
        # Every level coarsens its fine grid.
        rows = [l.a.rows for l in h.levels]
        assert all(fine > coarse for fine, coarse in zip(rows, rows[1:]))

    def test_operator_complexity_reasonable(self):
        h = build_hierarchy(poisson2d(24), min_coarse=10)
        assert 1.0 < h.operator_complexity() < 3.0

    def test_rejects_rectangular(self):
        m = CSR.from_coo([0], [1], [1.0], (2, 3))
        with pytest.raises(ValueError):
            build_hierarchy(m)

    def test_respects_max_levels(self):
        h = build_hierarchy(poisson2d(24), max_levels=2, min_coarse=2)
        assert h.n_levels <= 2


class TestServiceRouting:
    """Applications routed through the serving layer reuse cached plans."""

    def test_mcl_through_service_hits_plan_cache(self):
        from repro.serve import SpGEMMService

        g = block_graph(3, 8, seed=1)
        svc = SpGEMMService()
        res = markov_clustering(g, service=svc)
        # Identical clustering to the direct-engine path.
        direct = markov_clustering(g)
        assert res.n_clusters == direct.n_clusters
        assert np.array_equal(res.labels, direct.labels)
        cold = svc.plans.stats()
        assert cold.misses + cold.hits == res.iterations
        # Re-clustering the same graph replays the same flow-matrix
        # structures, so every expansion must hit the plan cache.
        res2 = markov_clustering(g, service=svc)
        warm = svc.plans.stats()
        assert np.array_equal(res2.labels, res.labels)
        assert warm.misses == cold.misses
        assert warm.hits == cold.hits + res2.iterations
        assert svc.snapshot()["counters"]["service.plan_hits"] == warm.hits

    def test_amg_through_service_matches_direct(self):
        from repro.serve import SpGEMMService

        a = poisson2d(16)
        svc = SpGEMMService()
        h = build_hierarchy(a, min_coarse=8, service=svc)
        direct = build_hierarchy(a, min_coarse=8)
        assert h.n_levels == direct.n_levels
        for lvl, ref in zip(h.levels, direct.levels):
            assert np.array_equal(lvl.a.indptr, ref.a.indptr)
            assert np.array_equal(lvl.a.indices, ref.a.indices)
            assert np.allclose(lvl.a.data, ref.a.data)
        assert svc.snapshot()["counters"]["service.requests"] > 0

    def test_amg_resetup_same_topology_all_hits(self):
        from repro.serve import SpGEMMService

        a = poisson2d(16)
        svc = SpGEMMService()
        build_hierarchy(a, min_coarse=8, service=svc)
        cold = svc.plans.stats()
        # Re-setup on an updated problem with unchanged topology: same
        # structures flow through, so every Galerkin product must hit.
        a2 = CSR(a.indptr.copy(), a.indices.copy(), a.data * 1.5, a.shape)
        build_hierarchy(a2, min_coarse=8, service=svc)
        warm = svc.plans.stats()
        assert warm.misses == cold.misses
        assert warm.hits > cold.hits
