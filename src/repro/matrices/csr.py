"""Compressed Sparse Row (CSR) matrix implementation.

This module provides the CSR container used throughout the reproduction.  It
is written from scratch on top of NumPy arrays (``indptr``, ``indices``,
``data``) and mirrors the storage layout described in the paper: non-zero
elements sorted row-major / column-minor, one value and column index per
entry, and a sorted array of row offsets.

The container is deliberately minimal and explicit — algorithms in
:mod:`repro.core` and :mod:`repro.baselines` operate on the raw arrays for
speed (vectorised NumPy), while this class provides construction, validation,
conversion and the small set of structural operations the pipeline needs
(transpose, row slicing, per-row statistics).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Tuple

import numpy as np

__all__ = [
    "CSR",
    "csr_zeros",
    "csr_identity",
    "expand_ranges",
    "cached_arange",
]

# Index dtype used everywhere.  The paper uses 32-bit compound indices with a
# 64-bit fallback; we standardise on int64 for correctness and simplicity —
# the *simulated* kernels still model the 32/64-bit switch in their cost.
INDEX_DTYPE = np.int64
VALUE_DTYPE = np.float64


class CSR:
    """A sparse matrix in Compressed Sparse Row format.

    Parameters
    ----------
    indptr:
        Row offset array of length ``rows + 1``; ``indptr[i]:indptr[i+1]``
        delimits the entries of row ``i``.
    indices:
        Column index per non-zero, sorted ascending within each row.
    data:
        Value per non-zero.
    shape:
        ``(rows, cols)`` of the logical matrix.
    check:
        When true (default), validate the invariants on construction.
    """

    __slots__ = (
        "indptr", "indices", "data", "shape",
        "_fp_struct", "_fp_values", "_row_nnz",
    )

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        data: np.ndarray,
        shape: Tuple[int, int],
        *,
        check: bool = True,
    ) -> None:
        self.indptr = np.asarray(indptr, dtype=INDEX_DTYPE)
        self.indices = np.asarray(indices, dtype=INDEX_DTYPE)
        self.data = np.asarray(data, dtype=VALUE_DTYPE)
        self.shape = (int(shape[0]), int(shape[1]))
        self._fp_struct: str | None = None
        self._fp_values: Tuple[int, str] | None = None
        self._row_nnz: np.ndarray | None = None
        if check:
            self.validate()

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        shape: Tuple[int, int],
        *,
        sum_duplicates: bool = True,
    ) -> "CSR":
        """Build a CSR matrix from COO triplets.

        Entries are sorted row-major/column-minor; duplicate ``(row, col)``
        pairs are summed when ``sum_duplicates`` is true (matching the
        accumulate semantics of SpGEMM output assembly).
        """
        rows = np.asarray(rows, dtype=INDEX_DTYPE)
        cols = np.asarray(cols, dtype=INDEX_DTYPE)
        vals = np.asarray(vals, dtype=VALUE_DTYPE)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows, cols and vals must have identical shapes")
        n_rows, n_cols = int(shape[0]), int(shape[1])
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_rows:
                raise ValueError("row index out of range")
            if cols.min() < 0 or cols.max() >= n_cols:
                raise ValueError("column index out of range")
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        if sum_duplicates and rows.size:
            # Boundaries of unique (row, col) runs.
            new_run = np.empty(rows.size, dtype=bool)
            new_run[0] = True
            np.not_equal(rows[1:], rows[:-1], out=new_run[1:])
            np.logical_or(new_run[1:], cols[1:] != cols[:-1], out=new_run[1:])
            starts = np.flatnonzero(new_run)
            vals = np.add.reduceat(vals, starts)
            rows = rows[starts]
            cols = cols[starts]
        indptr = np.zeros(n_rows + 1, dtype=INDEX_DTYPE)
        np.add.at(indptr, rows + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, cols, vals, (n_rows, n_cols), check=False)

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSR":
        """Build from a dense 2-D array, dropping explicit zeros."""
        dense = np.asarray(dense, dtype=VALUE_DTYPE)
        if dense.ndim != 2:
            raise ValueError("dense input must be two-dimensional")
        rows, cols = np.nonzero(dense)
        return cls.from_coo(rows, cols, dense[rows, cols], dense.shape)

    def to_scipy(self):  # pragma: no cover - thin adapter
        """Convert to ``scipy.sparse.csr_matrix`` (tests/oracles only)."""
        import scipy.sparse as sp

        return sp.csr_matrix(
            (self.data.copy(), self.indices.copy(), self.indptr.copy()),
            shape=self.shape,
        )

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all CSR invariants; raise ``ValueError`` on violation."""
        n_rows, n_cols = self.shape
        if self.indptr.ndim != 1 or self.indptr.size != n_rows + 1:
            raise ValueError("indptr must have length rows + 1")
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size != self.data.size:
            raise ValueError("indices and data must have equal length")
        if self.data.size and not np.all(np.isfinite(self.data)):
            raise ValueError(
                "data contains NaN or Inf values (use sanitize() to repair)"
            )
        if self.indices.size:
            if self.indices.min() < 0 or self.indices.max() >= n_cols:
                raise ValueError("column index out of range")
            # Column indices strictly increasing within each row.  Row-start
            # positions (clipped: trailing empty rows repeat nnz) break the
            # monotonic runs and are excluded from the check.
            inside_row = np.ones(self.indices.size, dtype=bool)
            starts = self.indptr[1:-1]
            inside_row[starts[starts < self.indices.size]] = False
            bad = (np.diff(self.indices) <= 0) & inside_row[1:]
            if bad.any():
                raise ValueError("column indices must be strictly increasing per row")

    def sanitize(self) -> "CSR":
        """Return a repaired copy satisfying every invariant.

        Repairs, in order: drop entries with NaN/Inf values, drop explicit
        zeros, drop out-of-range column indices, then rebuild through
        :meth:`from_coo` — which sorts columns within each row and sums
        duplicate ``(row, col)`` pairs.  The result always passes
        :meth:`validate`.
        """
        rows = self.row_ids()
        keep = np.isfinite(self.data) & (self.data != 0.0)
        keep &= (self.indices >= 0) & (self.indices < self.cols)
        return CSR.from_coo(
            rows[keep], self.indices[keep], self.data[keep], self.shape
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.indices.size)

    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    def row_nnz(self) -> np.ndarray:
        """Number of non-zeros in each row (length ``rows``).

        The array is computed once and cached (``indptr`` is
        immutable-by-convention, like the other structural arrays); it is
        returned read-only so accidental in-place mutation cannot poison
        later callers.
        """
        if self._row_nnz is None:
            rn = np.diff(self.indptr)
            rn.flags.writeable = False
            self._row_nnz = rn
        return self._row_nnz

    def row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the column indices and values of row ``i``."""
        lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
        return self.indices[lo:hi], self.data[lo:hi]

    def row_ids(self) -> np.ndarray:
        """Row id of every stored entry (length ``nnz``) — the COO row array."""
        return np.repeat(
            np.arange(self.rows, dtype=INDEX_DTYPE), self.row_nnz()
        )

    def memory_bytes(self) -> int:
        """Bytes needed to store this matrix in CSR (as modelled on device)."""
        return int(
            self.indptr.nbytes + self.indices.nbytes + self.data.nbytes
        )

    # ------------------------------------------------------------------
    # Fingerprints (plan caching — see repro.serve)
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Stable digest of the *structure* only: shape + indptr + indices.

        This is deliberately insensitive to the stored values: spECK's row
        analysis, load-balancing plans and accumulator choices depend only
        on the sparsity pattern, so two matrices with identical structure
        but different values share one cached plan (the numeric-reuse case
        that makes plan caching worthwhile — AMG re-setup on updated
        coefficients, iterative refreshes of a fixed graph, ...).

        **Misuse guard**: do NOT use this as full-content identity — value
        changes do not change it.  Use :meth:`fingerprint_values` when the
        stored values must participate in the key (e.g. caching an exact
        product matrix rather than a plan).

        The digest is cached on first use; the structural arrays are
        treated as immutable after construction (as everywhere else in the
        code base).
        """
        if self._fp_struct is None:
            h = hashlib.blake2b(digest_size=16)
            h.update(f"{self.shape[0]}x{self.shape[1]}:".encode("ascii"))
            h.update(np.ascontiguousarray(self.indptr).tobytes())
            h.update(np.ascontiguousarray(self.indices).tobytes())
            self._fp_struct = h.hexdigest()
        return self._fp_struct

    def fingerprint_values(self) -> str:
        """Digest of the full content: structure **and** values.

        Differs from :meth:`fingerprint` whenever any stored value differs.
        The digest is cached against the identity of the ``data`` array, so
        the supported way to change values is to assign a fresh array
        (``m.data = new_vals``) or build a new :class:`CSR` — both
        invalidate the cache.  Mutating elements of the existing array in
        place (``m.data[i] = x``) is *not* tracked and would serve a stale
        digest; either make a copy or call :meth:`invalidate_values_cache`
        immediately after the mutation.
        """
        cached = self._fp_values
        if cached is not None and cached[0] == id(self.data):
            return cached[1]
        h = hashlib.blake2b(digest_size=16)
        h.update(self.fingerprint().encode("ascii"))
        h.update(np.ascontiguousarray(self.data).tobytes())
        digest = h.hexdigest()
        self._fp_values = (id(self.data), digest)
        return digest

    def invalidate_values_cache(self) -> None:
        """Drop the cached value digest after an in-place ``data`` mutation.

        :meth:`fingerprint_values` keys its cache on ``id(self.data)``, so
        element assignments (``m.data[i] = x``) leave the cached digest
        stale.  Call this right after such a mutation and the next
        :meth:`fingerprint_values` recomputes from the current contents.
        Structural arrays remain immutable-by-convention; only the value
        cache is affected.
        """
        self._fp_values = None

    # ------------------------------------------------------------------
    # Structural operations
    # ------------------------------------------------------------------
    def transpose(self) -> "CSR":
        """Return ``A^T`` as a new CSR matrix (counting-sort based)."""
        n_rows, n_cols = self.shape
        nnz = self.nnz
        t_indptr = np.zeros(n_cols + 1, dtype=INDEX_DTYPE)
        if nnz:
            np.add.at(t_indptr, self.indices + 1, 1)
        np.cumsum(t_indptr, out=t_indptr)
        t_indices = np.empty(nnz, dtype=INDEX_DTYPE)
        t_data = np.empty(nnz, dtype=VALUE_DTYPE)
        if nnz:
            # Stable order by column gives row-sorted output per column.
            order = np.argsort(self.indices, kind="stable")
            t_indices[:] = self.row_ids()[order]
            t_data[:] = self.data[order]
        return CSR(t_indptr, t_indices, t_data, (n_cols, n_rows), check=False)

    def to_dense(self) -> np.ndarray:
        """Materialise as a dense 2-D array (small matrices / tests)."""
        out = np.zeros(self.shape, dtype=VALUE_DTYPE)
        if self.nnz:
            out[self.row_ids(), self.indices] = self.data
        return out

    def select_rows(self, row_ids: Iterable[int]) -> "CSR":
        """Extract a sub-matrix containing the given rows (in given order)."""
        row_ids = np.asarray(list(row_ids), dtype=INDEX_DTYPE)
        counts = self.indptr[row_ids + 1] - self.indptr[row_ids]
        indptr = np.zeros(row_ids.size + 1, dtype=INDEX_DTYPE)
        np.cumsum(counts, out=indptr[1:])
        gather = _expand_ranges(self.indptr[row_ids], counts)
        return CSR(
            indptr,
            self.indices[gather],
            self.data[gather],
            (row_ids.size, self.cols),
            check=False,
        )

    def copy(self) -> "CSR":
        return CSR(
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            self.shape,
            check=False,
        )

    def sort_rows(self) -> "CSR":
        """Return a copy with column indices sorted inside each row.

        Valid CSR is already sorted; this repairs externally-built arrays
        (e.g. unsorted output of the KokkosKernels-like baseline).
        """
        indices = self.indices.copy()
        data = self.data.copy()
        for i in range(self.rows):
            lo, hi = int(self.indptr[i]), int(self.indptr[i + 1])
            order = np.argsort(indices[lo:hi], kind="stable")
            indices[lo:hi] = indices[lo:hi][order]
            data[lo:hi] = data[lo:hi][order]
        return CSR(self.indptr.copy(), indices, data, self.shape, check=False)

    # ------------------------------------------------------------------
    # Comparison / debugging
    # ------------------------------------------------------------------
    def allclose(self, other: "CSR", rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Structural + numerical equality (same sparsity, close values)."""
        if self.shape != other.shape:
            return False
        if not np.array_equal(self.indptr, other.indptr):
            return False
        if not np.array_equal(self.indices, other.indices):
            return False
        return bool(np.allclose(self.data, other.data, rtol=rtol, atol=atol))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CSR(shape={self.shape}, nnz={self.nnz}, "
            f"density={self.nnz / max(1, self.rows * self.cols):.2e})"
        )


def _expand_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate ``[s, s+c)`` ranges into one index array, vectorised.

    This is the standard gather trick used throughout the code base to pull
    variable-length row slices out of CSR arrays without Python loops.
    """
    starts = np.asarray(starts, dtype=INDEX_DTYPE)
    counts = np.asarray(counts, dtype=INDEX_DTYPE)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=INDEX_DTYPE)
    # Each output element is its range's start plus its offset inside the
    # range.  Precomputing ``start - running_begin`` per range (an O(ranges)
    # op) lets one repeat plus one in-place add over a global arange recover
    # ``start + intra_range_offset`` — two O(total) passes instead of four.
    adj = starts - (np.cumsum(counts) - counts)
    out = np.arange(total, dtype=INDEX_DTYPE)
    out += np.repeat(adj, counts)
    return out


#: Public alias — the variable-length gather is used across the code base.
expand_ranges = _expand_ranges


#: Grow-only backing store for :func:`cached_arange`.
_ARANGE_CACHE = np.empty(0, dtype=INDEX_DTYPE)


def cached_arange(n: int) -> np.ndarray:
    """A read-only view of ``np.arange(n)`` served from a shared buffer.

    Hot paths (hash-probe simulation, block extraction scans, capacity
    routing) rebuild small index tables on every call; serving them from
    one grow-only cache removes the repeated allocation.  The view is
    immutable — copy before mutating.
    """
    global _ARANGE_CACHE
    if n > _ARANGE_CACHE.size:
        fresh = np.arange(max(int(n), 2 * _ARANGE_CACHE.size), dtype=INDEX_DTYPE)
        fresh.flags.writeable = False
        _ARANGE_CACHE = fresh
    return _ARANGE_CACHE[:n]


def csr_zeros(shape: Tuple[int, int]) -> CSR:
    """An all-zero matrix of the given shape."""
    return CSR(
        np.zeros(shape[0] + 1, dtype=INDEX_DTYPE),
        np.empty(0, dtype=INDEX_DTYPE),
        np.empty(0, dtype=VALUE_DTYPE),
        shape,
        check=False,
    )


def csr_identity(n: int, value: float = 1.0) -> CSR:
    """The ``n`` × ``n`` identity matrix scaled by ``value``."""
    return CSR(
        np.arange(n + 1, dtype=INDEX_DTYPE),
        np.arange(n, dtype=INDEX_DTYPE),
        np.full(n, value, dtype=VALUE_DTYPE),
        (n, n),
        check=False,
    )
