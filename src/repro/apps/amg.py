"""Algebraic multigrid setup — the paper's first motivating application.

AMG setup is dominated by sparse triple products ``A_{l+1} = R_l A_l P_l``
(two SpGEMMs per level).  This module builds a full aggregation-based AMG
hierarchy with every multiplication going through the simulated spECK
engine, and reports where the SpGEMM time goes across levels — coarse
levels produce smaller but *denser* operators, walking through different
regions of spECK's decision space.

The numerical scheme is plain (unsmoothed) aggregation: greedy aggregation
along strong connections, piecewise-constant prolongation.  It is simple
but genuinely correct: the Galerkin operators preserve the constant
vector's null-space property for Laplacian-type inputs, which the tests
verify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from ..core.speck import SpeckEngine
from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE
from ..serve.service import SpGEMMService, multiply_via

__all__ = ["AmgLevel", "AmgHierarchy", "build_hierarchy", "greedy_aggregate"]


def greedy_aggregate(a: CSR, *, min_agg: int = 2) -> np.ndarray:
    """Greedy aggregation: sweep rows, group each unaggregated vertex with
    its unaggregated neighbours; absorb leftovers into adjacent aggregates.

    Returns the aggregate id per vertex (dense array, ids 0..n_agg-1).
    """
    n = a.rows
    agg = np.full(n, -1, dtype=np.int64)
    next_id = 0
    for i in range(n):
        if agg[i] != -1:
            continue
        cols, _ = a.row(i)
        free = [int(c) for c in cols if agg[c] == -1 and c != i]
        if len(free) + 1 >= min_agg or not free:
            agg[i] = next_id
            for c in free:
                agg[c] = next_id
            next_id += 1
    # absorb any vertex left alone into a neighbouring aggregate
    for i in range(n):
        if agg[i] == -1:
            cols, _ = a.row(i)
            neighbour = next((int(c) for c in cols if agg[c] != -1), None)
            if neighbour is None:
                agg[i] = next_id
                next_id += 1
            else:
                agg[i] = agg[neighbour]
    return agg


def _prolongation(agg: np.ndarray) -> CSR:
    """Piecewise-constant prolongation from an aggregate map."""
    n = agg.size
    n_coarse = int(agg.max()) + 1 if n else 0
    return CSR.from_coo(
        np.arange(n, dtype=INDEX_DTYPE),
        agg.astype(INDEX_DTYPE),
        np.ones(n, dtype=VALUE_DTYPE),
        (n, n_coarse),
    )


@dataclass
class AmgLevel:
    """One level of the hierarchy."""

    a: CSR
    p: Optional[CSR] = None  # prolongation to this level's fine grid
    #: Simulated seconds of the two Galerkin SpGEMMs building this level.
    galerkin_time_s: float = 0.0
    #: spECK decisions of the RAP products (diagnostics).
    decisions: List[dict] = field(default_factory=list)


@dataclass
class AmgHierarchy:
    """The full multigrid hierarchy plus its setup cost profile."""

    levels: List[AmgLevel]

    @property
    def n_levels(self) -> int:
        return len(self.levels)

    @property
    def total_galerkin_s(self) -> float:
        return sum(l.galerkin_time_s for l in self.levels)

    def operator_complexity(self) -> float:
        """Σ nnz(A_l) / nnz(A_0) — the standard AMG memory metric."""
        base = max(1, self.levels[0].a.nnz)
        return sum(l.a.nnz for l in self.levels) / base


def build_hierarchy(
    a: CSR,
    *,
    max_levels: int = 10,
    min_coarse: int = 16,
    service: Optional[SpGEMMService] = None,
) -> AmgHierarchy:
    """Build an aggregation AMG hierarchy; all products via spECK.

    Pass a :class:`~repro.serve.service.SpGEMMService` to route the
    Galerkin products through the serving layer: re-running setup on an
    operator with updated coefficients but unchanged structure (the
    time-stepping pattern that motivates plan caching) then reuses every
    level's analysis/binning plans.  Without a service the products run
    uncached on a default :class:`~repro.core.speck.SpeckEngine`.
    """
    if a.rows != a.cols:
        raise ValueError("AMG needs a square operator")
    engine = SpeckEngine() if service is None else None

    levels = [AmgLevel(a=a)]
    current = a
    while len(levels) < max_levels and current.rows > min_coarse:
        agg = greedy_aggregate(current)
        p = _prolongation(agg)
        if p.cols >= current.rows:  # coarsening stalled
            break
        r = p.transpose()
        res_ap = multiply_via(service, engine, current, p)
        ap = res_ap.c
        res_rap = multiply_via(service, engine, r, ap)
        coarse = res_rap.c
        levels.append(
            AmgLevel(
                a=coarse,
                p=p,
                galerkin_time_s=res_ap.time_s + res_rap.time_s,
                decisions=[dict(res_ap.decisions), dict(res_rap.decisions)],
            )
        )
        current = coarse
    return AmgHierarchy(levels=levels)
