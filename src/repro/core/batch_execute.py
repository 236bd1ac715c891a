"""Batched execute engine: whole-batch accumulator computation.

``mode="execute"`` originally walked every output row in a Python loop,
calling the per-element scalar accumulators in
:mod:`repro.core.exec_accumulators` — interpreter-bound and by far the
hottest wall-clock path of the code base.  This module computes the same
rows in *batches* grouped by (accumulator method, kernel configuration)
with flat numpy kernels:

* **direct referencing** — a slice-based gather of B's rows through
  :func:`~repro.matrices.csr.expand_ranges`;
* **windowed dense** — segment offsets per row plus an order-preserving
  scatter-add (``np.add.at``) into one flat accumulator spanning the
  batch, reproducing the scalar window fold bit for bit;
* **hash** — products grouped by (row, column) with a
  first-assign/then-add fold that replays the scalar linear-probing
  map's accumulation order exactly, plus an optional vectorised
  linear-probing *simulation* (iterative displacement resolution over
  flat ``batch × capacity`` tables, same :data:`HASH_PRIME`
  multiplicative hash) that reproduces the exact per-row insert and
  probe counts of :func:`~repro.core.exec_accumulators.hash_accumulate_row`.

The scalar accumulators are retained as the cross-check oracle:
:func:`execute_scalar` is the original row loop (now also able to collect
per-row statistics), and the test suite asserts bit-identical
``(cols, vals, HashRowStats)`` between both engines across every
generator family.

Bit-exactness argument, in brief: both engines expand the same products
``a[i,k] * b[k,j]`` in the same (row, A-entry, B-entry) order, and both
combine the products of one output column with the same left fold — the
hash map assigns the first product and ``+=``-accumulates the rest
(mirrored by the first-assign/``np.add.at`` fold, which applies updates
one element at a time in index order), while the dense window starts from
an explicit ``0.0`` and ``+=``-accumulates everything (mirrored by the
zero-initialised scatter-add).  Column extraction is ascending in both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np

from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE, cached_arange, expand_ranges
from .analysis import RowAnalysis
from .config import KernelConfig, config_index_for_entries
from .exec_accumulators import (
    HASH_PRIME,
    HashRowStats,
    dense_accumulate_row,
    direct_reference_row,
    hash_accumulate_row,
)
from .params import SpeckParams

__all__ = [
    "ExecuteStats",
    "execute_batched",
    "execute_scalar",
    "METHOD_EMPTY",
    "METHOD_DIRECT",
    "METHOD_DENSE",
    "METHOD_HASH",
]

#: Per-row accumulation method codes (``ExecuteStats.method``).
METHOD_EMPTY = 0
METHOD_DIRECT = 1
METHOD_DENSE = 2
METHOD_HASH = 3

#: Elements per flat scratch chunk (dense accumulators, probe tables).
#: Bounds peak memory of a batch to a few tens of MB regardless of input.
_FLAT_BUDGET = 1 << 22


@dataclass
class ExecuteStats:
    """Per-row operational statistics of one execute-mode multiply.

    Mirrors what the scalar accumulators report row by row: the method
    chosen (``METHOD_*`` codes), the linear-probing hash counters for
    hash rows, and the window-iteration count for dense rows.  Non-hash
    rows carry zeros in the hash arrays (and vice versa).
    """

    method: np.ndarray
    hash_inserts: np.ndarray
    hash_probes: np.ndarray
    hash_capacity: np.ndarray
    dense_iters: np.ndarray

    def row_hash_stats(self, i: int) -> HashRowStats:
        """The scalar-engine :class:`HashRowStats` view of row ``i``."""
        return HashRowStats(
            inserts=int(self.hash_inserts[i]),
            probes=int(self.hash_probes[i]),
            capacity=int(self.hash_capacity[i]),
        )

    @classmethod
    def empty(cls, n_rows: int) -> "ExecuteStats":
        return cls(
            method=np.zeros(n_rows, dtype=np.int8),
            hash_inserts=np.zeros(n_rows, dtype=np.int64),
            hash_probes=np.zeros(n_rows, dtype=np.int64),
            hash_capacity=np.zeros(n_rows, dtype=np.int64),
            dense_iters=np.zeros(n_rows, dtype=np.int64),
        )


# ---------------------------------------------------------------------------
# Routing: the per-row method decision, vectorised
# ---------------------------------------------------------------------------
@lru_cache(maxsize=64)
def _capacity_arrays(
    configs: Tuple[KernelConfig, ...], stage: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-configuration (hash capacity, dense window) tables, memoised.

    Routing rebuilt these list comprehensions on every multiply even
    though the configuration ladder is device-derived and effectively
    constant — the same hoist as ``passes._config_table``.
    """
    caps = np.array([c.hash_entries(stage) for c in configs], dtype=np.int64)
    dense = np.array(
        [max(c.dense_entries(stage), 1) for c in configs], dtype=np.int64
    )
    caps.flags.writeable = False
    dense.flags.writeable = False
    return caps, dense


def _route_rows(
    analysis: RowAnalysis,
    c_row_nnz: np.ndarray,
    params: SpeckParams,
    configs: List[KernelConfig],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorised form of the scalar row loop's routing decisions.

    Returns ``(cfg_idx, method, hash_capacity, window, col_lo)`` with one
    entry per output row; semantics match ``execute_scalar`` exactly.
    """
    n_cfg = len(configs)
    num_entries = np.ceil(
        c_row_nnz / max(params.numeric_max_fill, 1e-9)
    ).astype(np.int64)
    cfg_idx = config_index_for_entries(num_entries, configs, "numeric")

    a_nnz = analysis.a_row_nnz
    empty = (a_nnz == 0) | (analysis.products == 0)
    direct = (~empty) & bool(params.enable_direct) & (a_nnz == 1)
    col_range = np.maximum(analysis.col_max - analysis.col_min + 1, 1)
    density = c_row_nnz / col_range
    dense = (
        (~empty)
        & (~direct)
        & bool(params.enable_dense)
        & (
            (cfg_idx == n_cfg - 1)
            | ((density >= params.dense_density_threshold) & (cfg_idx >= n_cfg - 3))
        )
    )
    is_hash = ~(empty | direct | dense)

    method = np.zeros(a_nnz.size, dtype=np.int8)
    method[direct] = METHOD_DIRECT
    method[dense] = METHOD_DENSE
    method[is_hash] = METHOD_HASH

    caps_per_cfg, dense_per_cfg = _capacity_arrays(tuple(configs), "numeric")
    capacity = caps_per_cfg[cfg_idx]
    # Global hash-map fallback: rows outgrowing even their configuration's
    # scratchpad map get a 2x-sized global map, exactly as the scalar loop.
    spill = is_hash & (c_row_nnz >= capacity)
    capacity = np.where(spill, 2 * c_row_nnz + 1, capacity)
    capacity[~is_hash] = 0

    window = dense_per_cfg[cfg_idx]
    return cfg_idx, method, capacity, window, analysis.col_min


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------
def _chunk_by_weight(weights: np.ndarray, budget: int):
    """Yield ``(lo, hi)`` index ranges whose summed weight stays under
    ``budget`` (always at least one row per chunk)."""
    n = weights.size
    lo = 0
    while lo < n:
        hi = lo + 1
        acc = int(weights[lo])
        while hi < n and acc + int(weights[hi]) <= budget:
            acc += int(weights[hi])
            hi += 1
        yield lo, hi
        lo = hi


def _expand_products(
    a: CSR, b: CSR, rows: np.ndarray, products: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Flatten all intermediate products of ``rows`` in scalar-loop order.

    Returns ``(prow, pcols, pvals)``: the batch-local row id, B column
    index and product value of every ``a[i,k] * b[k,j]``, ordered by
    (row, A entry, B entry) — the exact order the scalar accumulators
    consume them in.
    """
    a_cnt = a.indptr[rows + 1] - a.indptr[rows]
    ga = expand_ranges(a.indptr[rows], a_cnt)
    ak = a.indices[ga]
    av = a.data[ga]
    bc = b.indptr[ak + 1] - b.indptr[ak]
    gb = expand_ranges(b.indptr[ak], bc)
    pvals = np.repeat(av, bc) * b.data[gb]
    pcols = b.indices[gb]
    prow = np.repeat(cached_arange(rows.size), products[rows])
    return prow, pcols, pvals


# ---------------------------------------------------------------------------
# Hash batches
# ---------------------------------------------------------------------------
def _simulate_probing(
    row_of_key: np.ndarray, keys: np.ndarray, capacity: int, n_rows: int
) -> np.ndarray:
    """Vectorised linear-probing insertion over flat per-row tables.

    ``keys`` holds each row's *distinct* columns in first-encounter order,
    grouped by ``row_of_key`` (ascending).  All rows insert their t-th key
    simultaneously; collisions advance by iterative displacement
    resolution until every active lane finds a free slot — the same walk
    the scalar map performs, one whole batch per Python iteration instead
    of one slot.  Returns the displacement (probe-walk length minus one)
    of every key, from which exact probe counts follow.

    Exactness note: the hash ``(key * HASH_PRIME) % capacity`` is
    evaluated in int64; it matches the scalar arbitrary-precision form
    for any column index below 2^31 (far beyond every supported matrix).
    """
    disp = np.zeros(keys.size, dtype=np.int64)
    if keys.size == 0:
        return disp
    m = np.bincount(row_of_key, minlength=n_rows)
    row_start = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(m, out=row_start[1:])
    rows_per_chunk = max(1, _FLAT_BUDGET // max(int(capacity), 1))
    for lo in range(0, n_rows, rows_per_chunk):
        hi = min(lo + rows_per_chunk, n_rows)
        mm = m[lo:hi]
        m_max = int(mm.max()) if mm.size else 0
        if m_max == 0:
            continue
        n_local = hi - lo
        sel = slice(int(row_start[lo]), int(row_start[hi]))
        local_r = row_of_key[sel] - lo
        tpos = cached_arange(int(row_start[hi] - row_start[lo])) + (
            row_start[lo] - row_start[row_of_key[sel]]
        )
        kmat = np.full((n_local, m_max), -1, dtype=np.int64)
        kmat[local_r, tpos] = keys[sel]
        dmat = np.zeros((n_local, m_max), dtype=np.int64)
        table = np.full((n_local, capacity), -1, dtype=np.int64)
        for t in range(m_max):
            col_k = kmat[:, t]
            act = np.flatnonzero(col_k >= 0)
            if act.size == 0:
                continue
            kk = col_k[act]
            pos = (kk * HASH_PRIME) % capacity
            r = act
            d = np.zeros(act.size, dtype=np.int64)
            while r.size:
                free = table[r, pos] == -1
                placed_r = r[free]
                table[placed_r, pos[free]] = kk[free]
                dmat[placed_r, t] = d[free]
                cont = ~free
                r, pos, kk, d = r[cont], pos[cont], kk[cont], d[cont]
                if r.size:
                    pos = (pos + 1) % capacity
                    d = d + 1
                    if int(d[0]) > capacity:
                        raise RuntimeError("hash map full: capacity too small")
        disp[sel] = dmat[local_r, tpos]
    return disp


def _hash_batch(
    a: CSR,
    b: CSR,
    rows: np.ndarray,
    products: np.ndarray,
    capacity: int,
    collect_stats: bool,
    stats: Optional[ExecuteStats],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch of hash rows sharing ``capacity``.

    Returns flat ``(cols, vals, counts)`` ordered by (row, column); when
    ``collect_stats`` the exact per-row insert/probe counts are written
    into ``stats`` via the probing simulation.
    """
    prow, pcols, pvals = _expand_products(a, b, rows, products)
    order = np.lexsort((pcols, prow))  # stable: ties keep encounter order
    sr, sc, sv = prow[order], pcols[order], pvals[order]
    first = np.empty(sc.size, dtype=bool)
    first[0] = True
    first[1:] = (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1])
    gid = np.cumsum(first) - 1  # group id per sorted product

    # The scalar map *assigns* the first product of a column and adds the
    # rest; replay that fold exactly (np.add.at applies updates one
    # element at a time in index order — encounter order after the
    # stable sort).
    out_vals = sv[first].copy()
    rest = ~first
    np.add.at(out_vals, gid[rest], sv[rest])
    out_cols = sc[first]
    out_row = sr[first]
    counts = np.bincount(out_row, minlength=rows.size)

    if collect_stats and stats is not None:
        # Distinct keys per row in first-encounter order: sort the groups
        # by the original op position of their first occurrence.
        first_pos = order[np.flatnonzero(first)]
        enc = np.lexsort((first_pos, out_row))
        key_ops = np.bincount(gid)  # operations per distinct key
        disp = _simulate_probing(out_row[enc], out_cols[enc], capacity, rows.size)
        # Every operation on a key walks hash(key) .. slot(key): the walk
        # length is the key's displacement + 1, for inserts and repeat
        # accumulations alike (occupied slots never empty out).
        probes = np.bincount(
            out_row[enc], weights=(key_ops[enc] * (disp + 1)).astype(np.float64),
            minlength=rows.size,
        ).astype(np.int64)
        stats.hash_inserts[rows] = counts
        stats.hash_probes[rows] = probes
        stats.hash_capacity[rows] = capacity
    return out_cols, out_vals, counts


# ---------------------------------------------------------------------------
# Dense batches
# ---------------------------------------------------------------------------
def _dense_batch(
    a: CSR,
    b: CSR,
    rows: np.ndarray,
    products: np.ndarray,
    col_lo: np.ndarray,
    col_hi: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One batch of windowed-dense rows.

    Each row owns a ``[col_min, col_max]`` segment of one flat accumulator;
    products scatter-add into ``segment_offset + (col - col_min)``.  The
    zero-initialised ``np.add.at`` fold is exactly the scalar window's
    ``acc[:] = 0; acc[j] += av * bv`` sequence, and extraction by flat
    position yields ascending columns per row for free.
    """
    width = (col_hi[rows] - col_lo[rows] + 1).astype(np.int64)
    cols_parts: List[np.ndarray] = []
    vals_parts: List[np.ndarray] = []
    counts = np.zeros(rows.size, dtype=np.int64)
    for lo, hi in _chunk_by_weight(width, _FLAT_BUDGET):
        sub = rows[lo:hi]
        w = width[lo:hi]
        seg = np.zeros(w.size + 1, dtype=np.int64)
        np.cumsum(w, out=seg[1:])
        span = int(seg[-1])
        prow, pcols, pvals = _expand_products(a, b, sub, products)
        slot = seg[prow] + (pcols - col_lo[sub][prow])
        acc = np.zeros(span, dtype=np.float64)
        hit = np.zeros(span, dtype=bool)
        np.add.at(acc, slot, pvals)
        hit[slot] = True
        idx = np.flatnonzero(hit)
        rloc = np.searchsorted(seg, idx, side="right") - 1
        cols_parts.append(idx - seg[rloc] + col_lo[sub][rloc])
        vals_parts.append(acc[idx])
        counts[lo:hi] = np.bincount(rloc, minlength=w.size)
    cols = (
        np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=np.int64)
    )
    vals = (
        np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=np.float64)
    )
    return cols, vals, counts


# ---------------------------------------------------------------------------
# Direct batches
# ---------------------------------------------------------------------------
def _direct_batch(
    a: CSR, b: CSR, rows: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """All direct-referencing rows at once: sliced, scaled copies of B."""
    a_pos = a.indptr[rows]  # each row holds exactly one entry
    k = a.indices[a_pos]
    av = a.data[a_pos]
    counts = (b.indptr[k + 1] - b.indptr[k]).astype(np.int64)
    gather = expand_ranges(b.indptr[k], counts)
    cols = b.indices[gather]
    vals = np.repeat(av, counts) * b.data[gather]
    return cols, vals, counts


# ---------------------------------------------------------------------------
# Engines
# ---------------------------------------------------------------------------
def execute_batched(
    a: CSR,
    b: CSR,
    analysis: RowAnalysis,
    c_row_nnz: np.ndarray,
    params: SpeckParams,
    configs: List[KernelConfig],
    *,
    collect_stats: bool = False,
) -> Tuple[CSR, Optional[ExecuteStats]]:
    """Compute ``C = A · B`` through the batched accumulators.

    Follows the same per-row method decisions as the scalar engine and
    produces a bit-identical CSR result; with ``collect_stats`` it also
    reproduces the exact per-row :class:`HashRowStats` counters through
    the vectorised probing simulation.
    """
    n_rows = a.rows
    _, method, capacity, window, _ = _route_rows(analysis, c_row_nnz, params, configs)
    stats = ExecuteStats.empty(n_rows) if collect_stats else None
    if stats is not None:
        stats.method = method

    parts: List[Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = []

    rows_direct = np.flatnonzero(method == METHOD_DIRECT)
    if rows_direct.size:
        cols, vals, cnt = _direct_batch(a, b, rows_direct)
        parts.append((rows_direct, cols, vals, cnt))

    rows_dense = np.flatnonzero(method == METHOD_DENSE)
    if rows_dense.size:
        cols, vals, cnt = _dense_batch(
            a, b, rows_dense, analysis.products, analysis.col_min, analysis.col_max
        )
        parts.append((rows_dense, cols, vals, cnt))
        if stats is not None:
            width = analysis.col_max[rows_dense] - analysis.col_min[rows_dense] + 1
            stats.dense_iters[rows_dense] = -(-width // window[rows_dense])

    rows_hash = np.flatnonzero(method == METHOD_HASH)
    if rows_hash.size:
        # One batch per distinct capacity (method, kernel config) group;
        # spilled rows get per-row 2x capacities and usually batch alone.
        for cap in np.unique(capacity[rows_hash]):
            rows_g = rows_hash[capacity[rows_hash] == cap]
            cols, vals, cnt = _hash_batch(
                a, b, rows_g, analysis.products, int(cap), collect_stats, stats
            )
            parts.append((rows_g, cols, vals, cnt))

    # ---- assemble C directly from the flat batch outputs ----------------
    counts_all = np.zeros(n_rows, dtype=INDEX_DTYPE)
    for rows_g, _, _, cnt in parts:
        counts_all[rows_g] = cnt
    indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts_all, out=indptr[1:])
    nnz = int(indptr[-1])
    indices = np.empty(nnz, dtype=INDEX_DTYPE)
    data = np.empty(nnz, dtype=VALUE_DTYPE)
    for rows_g, cols, vals, cnt in parts:
        dest = expand_ranges(indptr[rows_g], cnt)
        indices[dest] = cols
        data[dest] = vals
    c = CSR(indptr, indices, data, (n_rows, b.cols), check=False)
    return c, stats


def execute_scalar(
    a: CSR,
    b: CSR,
    analysis: RowAnalysis,
    c_row_nnz: np.ndarray,
    params: SpeckParams,
    configs: List[KernelConfig],
    *,
    collect_stats: bool = False,
) -> Tuple[CSR, Optional[ExecuteStats]]:
    """The original row-by-row execute loop — the cross-check oracle.

    Walks every output row in Python, calling the per-element scalar
    accumulators, following the same per-row decisions as the cost model.
    Kept verbatim (plus optional stats collection) so the batched engine
    always has an independent reference to be compared against.
    """
    n_cfg = len(configs)
    num_entries = np.ceil(
        c_row_nnz / max(params.numeric_max_fill, 1e-9)
    ).astype(np.int64)
    cfg_idx = config_index_for_entries(num_entries, configs, "numeric")
    stats = ExecuteStats.empty(a.rows) if collect_stats else None
    rows_out: List[Tuple[np.ndarray, np.ndarray]] = []
    for i in range(a.rows):
        a_cols, a_vals = a.row(i)
        if a_cols.size == 0 or analysis.products[i] == 0:
            rows_out.append(
                (np.empty(0, dtype=INDEX_DTYPE), np.empty(0, dtype=VALUE_DTYPE))
            )
            continue
        if params.enable_direct and a_cols.size == 1:
            rows_out.append(direct_reference_row(int(a_cols[0]), float(a_vals[0]), b))
            if stats is not None:
                stats.method[i] = METHOD_DIRECT
            continue
        cfg = configs[int(cfg_idx[i])]
        col_lo, col_hi = int(analysis.col_min[i]), int(analysis.col_max[i])
        col_range = max(1, col_hi - col_lo + 1)
        density = c_row_nnz[i] / col_range
        use_dense = params.enable_dense and (
            cfg_idx[i] == n_cfg - 1
            or (
                density >= params.dense_density_threshold
                and cfg_idx[i] >= n_cfg - 3
            )
        )
        if use_dense:
            window = max(cfg.dense_entries("numeric"), 1)
            cols, vals, iters = dense_accumulate_row(
                a_cols, a_vals, b, window, col_lo, col_hi
            )
            if stats is not None:
                stats.method[i] = METHOD_DENSE
                stats.dense_iters[i] = iters
        else:
            capacity = cfg.hash_entries("numeric")
            if c_row_nnz[i] >= capacity:
                # Global hash map fallback: sized at 2x the row.
                capacity = int(2 * c_row_nnz[i] + 1)
            cols, vals, hstats = hash_accumulate_row(a_cols, a_vals, b, capacity)
            if stats is not None:
                stats.method[i] = METHOD_HASH
                stats.hash_inserts[i] = hstats.inserts
                stats.hash_probes[i] = hstats.probes
                stats.hash_capacity[i] = hstats.capacity
        rows_out.append((cols, vals))

    from .result_assembly import assemble_rows

    return assemble_rows(rows_out, (a.rows, b.cols)), stats
