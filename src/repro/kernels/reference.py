"""Exact SpGEMM reference kernels.

Two independent from-scratch implementations of ``C = A · B``:

* :func:`esc_multiply` — a fully vectorised expand/sort/compress multiply.
  This is the numerical engine shared by all simulated GPU algorithms (they
  differ in *how* they would have computed C on the device, which the cost
  models capture, but the resulting matrix is identical by definition of
  SpGEMM).
* :func:`gustavson_multiply` — a row-by-row Gustavson accumulation using a
  dense workspace.  Slower in Python but structurally independent; tests use
  it (and a SciPy oracle) to cross-validate ``esc_multiply``.

Also provided are the cheap structural analyses both the paper and our
simulator need: per-row intermediate-product counts (:func:`row_products`)
and exact per-row output sizes (:func:`symbolic_row_nnz`).

Every exact product in the package sorts composite keys
``row * width + col`` (:func:`composite_keys`, of the one width rule
:func:`key_dtype`) through the kernels here: :func:`compress` sums equal
keys into CSR for :func:`esc_multiply`, ``matrices.ops.add`` and
``graph.masked.MaskedContext``; :func:`distinct_per_segment` counts
distinct keys per row for :func:`symbolic_row_nnz` and the sampled
symbolic pass of ``estimate.sampler``.

Two more width rules keep those passes narrow.  The positions that
gather each product's B entry (:func:`row_positions`) are int32
while both the product count and ``b.nnz`` stay below ``2**31``
(:func:`position_dtype`), int64 beyond.  :func:`compress` orders its
keys through :func:`sort_keys`: when the bits of the largest key plus
the bits of the largest index fit in 63, it sorts the packed int64
``(key << index_bits) | index`` with ``np.sort``, whose ties fall in
index order exactly as a stable sort's do; wider keys take the stable
argsort.  Either way every sum adds its terms in input order, so the
results are bit-identical.  The oracles stay independent of
them: :func:`gustavson_multiply`, ``CSR.from_coo`` (a two-key lexsort,
correct at any shape), ``core.analysis.analyze``, the executable
accumulators of ``core.batch_execute`` and everything in ``repro.check``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE, csr_zeros

__all__ = [
    "row_products",
    "expand_products",
    "esc_multiply",
    "symbolic_row_nnz",
    "gustavson_multiply",
    "count_flops",
    "key_dtype",
    "position_dtype",
    "row_positions",
    "composite_keys",
    "sort_keys",
    "compress",
    "distinct_per_segment",
]


def _check_shapes(a: CSR, b: CSR) -> None:
    if a.cols != b.rows:
        raise ValueError(
            f"dimension mismatch: A is {a.shape}, B is {b.shape}"
        )


def row_products(a: CSR, b: CSR) -> np.ndarray:
    """Intermediate products generated per row of A (length ``a.rows``).

    ``prod_r = Σ_{k ∈ row_r(A)} nnz(row_k(B))`` — the quantity the paper's
    Algorithm 1 computes in its inner loop, vectorised over all of A.
    """
    _check_shapes(a, b)
    # Segment sums via prefix sums: robust to empty rows, no scatter needed.
    cs = _offsets(b.row_nnz()[a.indices])
    return cs[a.indptr[1:]] - cs[a.indptr[:-1]]


def count_flops(a: CSR, b: CSR) -> int:
    """Total FLOPs as the paper counts them: 2 × (number of products)."""
    return 2 * int(row_products(a, b).sum())


def expand_products(
    a: CSR, b: CSR
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Materialise every intermediate product ``A_ik · B_kj``.

    Returns ``(out_rows, out_cols, out_vals)`` of length ``n_products``:
    for each non-zero ``A_ik`` and each non-zero ``B_kj`` one triplet
    ``(i, j, A_ik * B_kj)``.  This is the "expand" stage of ESC.
    """
    _check_shapes(a, b)
    counts = b.row_nnz()[a.indices]  # products contributed by each NZ of A
    out_rows = np.repeat(a.row_ids(), counts)
    gather = row_positions(b, a.indices, counts, _offsets(counts))
    out_cols = b.indices[gather]
    out_vals = np.repeat(a.data, counts) * b.data[gather]
    return out_rows, out_cols, out_vals


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Prefix sums of ``counts`` after a leading 0 (``counts.size + 1``, int64)."""
    off = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=off[1:])
    return off


def position_dtype(n_positions: int, extent: int) -> type:
    """Integer type of ``n_positions`` gather positions into ``extent`` entries.

    int32 when both are below ``2**31``: every position, every range
    start and every running range offset then fits, and building and
    gathering through 4-byte positions moves half the bytes.  int64
    otherwise.
    """
    return np.int32 if max(int(n_positions), int(extent)) < 2**31 else np.int64


def row_positions(
    m: CSR, rows: np.ndarray, counts: np.ndarray, off: np.ndarray
) -> np.ndarray:
    """Positions in ``m``'s entry arrays of the entries of ``rows``, in order.

    ``counts = m.row_nnz()[rows]`` and ``off`` their prefix sums after a
    leading 0.  ``off`` is the running range begin ``expand_ranges``
    would recompute, so the rows expand in one repeat and one add, in
    :func:`position_dtype` positions.
    """
    n = int(off[-1])
    pd = position_dtype(n, m.nnz)
    pos = np.repeat((m.indptr[rows] - off[:-1]).astype(pd), counts)
    pos += np.arange(n, dtype=pd)
    return pos


def key_dtype(n_rows: int, width: int) -> type:
    """Integer type of the composite keys ``row * width + col``.

    int32 when ``n_rows * width < 2**31`` (every key fits, and the sorts
    run about twice as fast on 4-byte keys), int64 while the largest key
    ``n_rows * width - 1`` fits in it.  Beyond ``2**63`` a key would wrap
    around onto another row's, so the shape is refused with
    ``ValueError`` rather than producing a wrong C.
    """
    span = int(n_rows) * int(width)
    if span < 2**31:
        return np.int32
    if span <= 2**63:
        return np.int64
    raise ValueError(
        f"composite (row, col) keys of a {n_rows} x {width} result "
        "do not fit in int64"
    )


def composite_keys(
    rows: np.ndarray, cols: np.ndarray, shape: Tuple[int, int]
) -> np.ndarray:
    """``rows * shape[1] + cols`` in :func:`key_dtype` of ``shape``.

    Sorting one composite key is several times faster than a two-key
    lexsort, and orders entries row-major/column-minor like CSR.
    """
    keys = rows.astype(key_dtype(*shape))
    keys *= shape[1]
    keys += cols
    return keys


def sort_keys(keys: np.ndarray, span: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(keys[order], order)`` for the stable ascending ``order`` of ``keys``.

    Every key lies in ``[0, span)``.  When the bits of the largest key
    ``span - 1`` plus the bits of the largest index fit in 63, each key
    is packed with its index as ``(key << index_bits) | index`` and the
    one int64 array is sorted with ``np.sort``: equal keys then order by
    index, exactly as a stable sort orders them, and the unstable sort
    of one array beats a stable argsort.  Wider keys take the stable
    argsort.
    """
    index_bits = (keys.size - 1).bit_length() if keys.size else 0
    if (int(span) - 1).bit_length() + index_bits <= 63:
        packed = keys.astype(np.int64)
        packed <<= index_bits
        packed |= np.arange(keys.size, dtype=np.int64)
        packed.sort()
        order = packed & ((1 << index_bits) - 1)
        packed >>= index_bits
        return packed, order
    order = np.argsort(keys, kind="stable")
    return keys[order], order


def compress(keys: np.ndarray, vals: np.ndarray, shape: Tuple[int, int]) -> CSR:
    """Sum the values of equal composite keys into a sorted CSR matrix.

    The sort and compress stages of ESC.  The sort is stable, so every
    output entry sums its values in their input order: results are
    bit-identical to ``CSR.from_coo`` of the decoded triplets.  Entries
    that sum to zero are kept.
    """
    if keys.size == 0:
        return csr_zeros(shape)
    n_rows, width = shape
    keys, order = sort_keys(keys, n_rows * width)
    new_run = np.empty(keys.size, dtype=bool)
    new_run[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new_run[1:])
    starts = np.flatnonzero(new_run)
    uniq = keys[starts]
    indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    indptr[1:] = np.bincount(uniq // width, minlength=n_rows)
    np.cumsum(indptr, out=indptr)
    cols = (uniq % width).astype(INDEX_DTYPE, copy=False)
    return CSR(indptr, cols, np.add.reduceat(vals[order], starts), shape, check=False)


def distinct_per_segment(keys: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Distinct keys in each segment ``keys[offsets[i]:offsets[i + 1]]``.

    Every key of a segment must be smaller than every key of the next
    (row-tagged composite keys are), so one global sort keeps each
    segment in place, and each non-empty segment starts a run of equal
    keys: a segment's distinct keys are the run starts inside it.
    Sorts ``keys`` in place; returns int64 counts.
    """
    keys.sort()
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    bounds = np.searchsorted(np.flatnonzero(first), offsets)
    return (bounds[1:] - bounds[:-1]).astype(np.int64, copy=False)


def esc_multiply(a: CSR, b: CSR) -> CSR:
    """Exact SpGEMM via expand / sort / compress.

    The output matrix is fully accumulated, row-major sorted CSR; explicit
    numerical zeros arising from cancellation are *kept* (matching cuSPARSE
    and the paper's symbolic/numeric split, where structure is fixed by the
    symbolic pass before values are computed).
    """
    rows, cols, vals = expand_products(a, b)
    shape = (a.rows, b.cols)
    return compress(composite_keys(rows, cols, shape), vals, shape)


def symbolic_row_nnz(a: CSR, b: CSR) -> np.ndarray:
    """Exact number of non-zeros in each row of ``C = A · B``.

    This is what the paper's *symbolic SpGEMM* pass computes on device; here
    it is derived from the expanded index set without touching values.

    Each product gets the composite key ``row * b.cols + col``; row
    ``r``'s keys all lie in ``[r * b.cols, (r + 1) * b.cols)``, so the
    distinct keys of each row's product segment are the row sizes.  The
    returned int64 array is read-only, like :meth:`CSR.row_nnz`.
    """
    _check_shapes(a, b)
    counts = b.row_nnz()[a.indices]
    entry_off = _offsets(counts)
    row_off = entry_off[a.indptr]
    kd = key_dtype(a.rows, b.cols)
    # Gather the columns already in the key type: no wide temporary.
    keys = b.indices.astype(kd, copy=False)[
        row_positions(b, a.indices, counts, entry_off)
    ]
    row_keys = (np.arange(a.rows, dtype=np.int64) * b.cols).astype(kd)
    keys += np.repeat(row_keys, row_off[1:] - row_off[:-1])
    out = distinct_per_segment(keys, row_off)
    out.flags.writeable = False
    return out


def gustavson_multiply(a: CSR, b: CSR) -> CSR:
    """Row-by-row Gustavson SpGEMM with a dense accumulator workspace.

    Independent of :func:`esc_multiply` — used by tests as a second oracle
    and by the Intel-MKL-like CPU baseline as its executable algorithm.
    """
    _check_shapes(a, b)
    n_rows, n_cols = a.rows, b.cols
    workspace = np.zeros(n_cols, dtype=VALUE_DTYPE)
    occupied = np.zeros(n_cols, dtype=bool)
    indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
    all_cols = []
    all_vals = []
    for i in range(n_rows):
        a_cols, a_vals = a.row(i)
        touched = []
        for k, av in zip(a_cols, a_vals):
            b_cols, b_vals = b.row(int(k))
            fresh = ~occupied[b_cols]
            workspace[b_cols] += av * b_vals
            new_cols = b_cols[fresh]
            occupied[new_cols] = True
            if new_cols.size:
                touched.append(new_cols)
        if touched:
            row_cols = np.sort(np.concatenate(touched))
            all_cols.append(row_cols)
            all_vals.append(workspace[row_cols].copy())
            workspace[row_cols] = 0.0
            occupied[row_cols] = False
            indptr[i + 1] = indptr[i] + row_cols.size
        else:
            indptr[i + 1] = indptr[i]
    indices = (
        np.concatenate(all_cols) if all_cols else np.empty(0, dtype=INDEX_DTYPE)
    )
    data = (
        np.concatenate(all_vals) if all_vals else np.empty(0, dtype=VALUE_DTYPE)
    )
    return CSR(indptr, indices.astype(INDEX_DTYPE), data, (n_rows, n_cols), check=False)
