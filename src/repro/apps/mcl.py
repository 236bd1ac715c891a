"""Markov CLustering (MCL) — a graph-processing workload built on SpGEMM.

The paper motivates SpGEMM with graph processing; MCL (van Dongen, 2000)
is a canonical SpGEMM consumer: it alternates

* **expansion** — squaring the column-stochastic flow matrix (the SpGEMM;
  this is where virtually all the runtime goes), and
* **inflation** — element-wise powering + column renormalisation +
  pruning of small entries,

until the flow matrix converges to a union of star graphs whose
attractors define the clusters.

Every expansion runs through the simulated spECK engine, so the module
doubles as a realistic end-to-end driver: successive iterates change
density and structure drastically (early iterates densify, late iterates
collapse toward sparse columns), exercising different adaptive decisions
within a single run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..graph.chain import ChainRunner
from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE
from ..matrices.ops import prune
from ..serve.service import SpGEMMService

__all__ = ["MclResult", "markov_clustering", "column_normalize", "add_self_loops"]


def add_self_loops(adj: CSR, weight: float = 1.0) -> CSR:
    """Adjacency plus weighted self-loops (MCL's standard preprocessing)."""
    n = min(adj.rows, adj.cols)
    rows = np.concatenate([adj.row_ids(), np.arange(n, dtype=INDEX_DTYPE)])
    cols = np.concatenate([adj.indices, np.arange(n, dtype=INDEX_DTYPE)])
    vals = np.concatenate([adj.data, np.full(n, weight, dtype=VALUE_DTYPE)])
    return CSR.from_coo(rows, cols, vals, adj.shape)


def column_normalize(m: CSR) -> CSR:
    """Scale every column to sum to one (column-stochastic flow matrix)."""
    sums = np.zeros(m.cols, dtype=VALUE_DTYPE)
    np.add.at(sums, m.indices, m.data)
    scale = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums != 0)
    return CSR(
        m.indptr.copy(),
        m.indices.copy(),
        m.data * scale[m.indices],
        m.shape,
        check=False,
    )


def _inflate(m: CSR, power: float) -> CSR:
    """Element-wise power followed by column renormalisation."""
    powered = CSR(
        m.indptr.copy(),
        m.indices.copy(),
        np.power(np.abs(m.data), power),
        m.shape,
        check=False,
    )
    return column_normalize(powered)


@dataclass
class MclResult:
    """Clustering output plus the per-iteration SpGEMM cost profile."""

    labels: np.ndarray
    n_clusters: int
    iterations: int
    converged: bool
    #: Simulated seconds spent in each expansion (the SpGEMM calls).
    expansion_times: List[float] = field(default_factory=list)
    #: nnz of the flow matrix after each iteration.
    nnz_history: List[int] = field(default_factory=list)
    #: spECK's adaptive decisions per expansion (diagnostics).
    decisions: List[Dict[str, object]] = field(default_factory=list)
    #: Plan-cache hits across the expansions (service-routed runs; late
    #: iterations with a stabilised pattern re-use the cached plan).
    plan_hits: int = 0
    #: Plan-cache misses across the expansions.
    plan_misses: int = 0
    #: Expansions planned speculatively from a seeded (previous-iteration)
    #: estimate instead of sampling or exact cold analysis.
    seeded: int = 0

    @property
    def total_expansion_s(self) -> float:
        return float(sum(self.expansion_times))


def markov_clustering(
    adj: CSR,
    *,
    inflation: float = 2.0,
    max_iterations: int = 30,
    prune_threshold: float = 1e-4,
    tol: float = 1e-6,
    service: Optional[SpGEMMService] = None,
) -> MclResult:
    """Cluster an (undirected) graph with MCL, expansions via spECK.

    Returns cluster labels per vertex; vertices sharing an attractor
    (a row with mass on their column) share a label.

    Pass a :class:`~repro.serve.service.SpGEMMService` to route the
    expansions through the serving layer.  Once the flow matrix's sparsity
    pattern stabilises (late iterations; or re-clustering an updated graph
    with unchanged topology), each squaring reuses the cached analysis and
    binning plans.  Without a service the expansions run uncached on a
    default :class:`~repro.core.speck.SpeckEngine`.
    """
    if adj.rows != adj.cols:
        raise ValueError("MCL needs a square adjacency matrix")
    # One chain runner drives every expansion: each squaring is a step of
    # one long chained product, so plan reuse and estimate seeding carry
    # across iterations and the run reports chain-level counters.
    runner = ChainRunner(service=service)
    flow = column_normalize(add_self_loops(adj))
    times: List[float] = []
    nnzs: List[int] = []
    decisions: List[Dict[str, object]] = []
    converged = False
    it = 0
    for it in range(1, max_iterations + 1):
        res = runner.step(flow, flow)
        times.append(res.time_s)
        decisions.append(dict(res.decisions))
        expanded = res.c
        inflated = _inflate(expanded, inflation)
        new_flow = prune(inflated, tol=prune_threshold)
        new_flow = column_normalize(new_flow)
        nnzs.append(new_flow.nnz)
        delta = _max_change(flow, new_flow)
        flow = new_flow
        if delta < tol:
            converged = True
            break

    labels, n_clusters = _extract_clusters(flow)
    return MclResult(
        labels=labels,
        n_clusters=n_clusters,
        iterations=it,
        converged=converged,
        expansion_times=times,
        nnz_history=nnzs,
        decisions=decisions,
        plan_hits=runner.plan_hits,
        plan_misses=runner.plan_misses,
        seeded=runner.seeded,
    )


def _max_change(old: CSR, new: CSR) -> float:
    """Max absolute element-wise difference (structural union)."""
    from ..matrices.ops import subtract

    diff = subtract(new, old)
    return float(np.abs(diff.data).max()) if diff.nnz else 0.0


def _extract_clusters(flow: CSR) -> tuple[np.ndarray, int]:
    """Attractor-based cluster extraction.

    Attractors are vertices with significant mass on their own diagonal;
    every vertex joins the cluster of the attractor its column flows to.
    Overlapping attractor rows are merged via union-find.
    """
    n = flow.rows
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = int(parent[x])
        return x

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    # Union every vertex with the rows that send flow to it.
    if flow.nnz:
        for r, c in zip(flow.row_ids(), flow.indices):
            union(int(r), int(c))
    labels_raw = np.array([find(i) for i in range(n)], dtype=np.int64)
    uniq, labels = np.unique(labels_raw, return_inverse=True)
    return labels, int(uniq.size)
