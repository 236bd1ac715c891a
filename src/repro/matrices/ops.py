"""Element-wise sparse matrix operations.

SpGEMM rarely lives alone: the applications the paper motivates (algebraic
multigrid, graph algorithms, mesh processing) combine it with element-wise
addition, Hadamard products, masking and filtering.  This module provides
those companions on the CSR container, all vectorised.

These also serve as independent building blocks for tests: e.g. masked
SpGEMM identities (``mask(A·B, M) == hadamard(A·B, pattern(M))``) validate
the multiply kernels from a different angle.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from ..kernels.reference import composite_keys, compress
from .csr import CSR, INDEX_DTYPE, VALUE_DTYPE

__all__ = [
    "add",
    "subtract",
    "hadamard",
    "mask",
    "scale",
    "prune",
    "keep_entries",
    "pattern",
    "frobenius_norm",
    "diag_vector",
]


def _merge_keys(a: CSR, b: CSR):
    """Composite (row, col) keys of both matrices for set-style merging."""
    return (
        composite_keys(a.row_ids(), a.indices, a.shape),
        composite_keys(b.row_ids(), b.indices, b.shape),
    )


def _check_same_shape(a: CSR, b: CSR) -> None:
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")


def keep_entries(a: CSR, keep: np.ndarray, data: Optional[np.ndarray] = None) -> CSR:
    """The entries of ``A`` where the per-entry flag ``keep`` is set.

    ``data`` gives the kept entries' values (default: their values in A).
    """
    kept = np.zeros(a.nnz + 1, dtype=INDEX_DTYPE)
    np.cumsum(keep, out=kept[1:])
    if data is None:
        data = a.data[keep]
    return CSR(kept[a.indptr], a.indices[keep], data, a.shape, check=False)


def add(a: CSR, b: CSR, alpha: float = 1.0, beta: float = 1.0) -> CSR:
    """``alpha * A + beta * B`` with structural union.

    Entries that cancel to exactly zero are kept structurally (consistent
    with the SpGEMM kernels, which fix structure symbolically).
    """
    _check_same_shape(a, b)
    ka, kb = _merge_keys(a, b)
    vals = np.concatenate([alpha * a.data, beta * b.data])
    return compress(np.concatenate([ka, kb]), vals, a.shape)


def subtract(a: CSR, b: CSR) -> CSR:
    """``A - B`` (structural union)."""
    return add(a, b, 1.0, -1.0)


def hadamard(a: CSR, b: CSR) -> CSR:
    """Element-wise product ``A ∘ B`` (structural intersection)."""
    _check_same_shape(a, b)
    ka, kb = _merge_keys(a, b)
    # intersect via sorted search: both key arrays are already sorted
    # (CSR order is row-major/column-minor).
    pos = np.minimum(np.searchsorted(kb, ka), max(kb.size - 1, 0))
    hit = kb[pos] == ka if kb.size else np.zeros(ka.size, dtype=bool)
    return keep_entries(a, hit, a.data[hit] * b.data[pos[hit]])


def mask(a: CSR, m: CSR) -> CSR:
    """Keep only the entries of ``A`` at positions present in ``M``.

    The GraphBLAS-style output mask: ``C⟨M⟩ = A``.
    """
    return hadamard(a, pattern(m))


def pattern(a: CSR) -> CSR:
    """The 0/1 structure of ``A``."""
    return CSR(
        a.indptr.copy(),
        a.indices.copy(),
        np.ones(a.nnz, dtype=VALUE_DTYPE),
        a.shape,
        check=False,
    )


def scale(a: CSR, alpha: float) -> CSR:
    """``alpha * A``."""
    return CSR(a.indptr.copy(), a.indices.copy(), alpha * a.data, a.shape, check=False)


def prune(a: CSR, predicate: Callable[[np.ndarray], np.ndarray] = None, *, tol: float = 0.0) -> CSR:
    """Drop entries; by default those with ``|value| <= tol``.

    ``predicate`` receives the value array and returns a keep-mask,
    overriding the tolerance rule.
    """
    keep = predicate(a.data) if predicate is not None else (np.abs(a.data) > tol)
    keep = np.asarray(keep, dtype=bool)
    if keep.size != a.nnz:
        raise ValueError("predicate must return one flag per entry")
    return keep_entries(a, keep)


def frobenius_norm(a: CSR) -> float:
    """``||A||_F``."""
    return float(np.sqrt(np.square(a.data).sum()))


def diag_vector(a: CSR) -> np.ndarray:
    """The main diagonal as a dense vector."""
    n = min(a.rows, a.cols)
    out = np.zeros(n, dtype=VALUE_DTYPE)
    rows = a.row_ids()
    on_diag = (rows == a.indices) & (a.indices < n)
    out[a.indices[on_diag]] = a.data[on_diag]
    return out
