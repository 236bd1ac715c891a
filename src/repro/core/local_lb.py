"""Local load balancing: choosing the group size ``g`` (paper §4.3).

Each block's ``T`` threads are divided into ``k = T / g`` groups of ``g``
threads; groups are assigned successively to the non-zeros of A and thereby
to the referenced rows of B (Fig. 1 of the paper).  ``g`` trades coalesced
access (large ``g``) against thread utilisation on short rows (small ``g``).

The selection uses only statistics available from the row analysis — the
average and maximum referenced-row length and the number of non-zeros of A
in the block — and applies the paper's correction heuristic: if the longest
row would dominate (``iter_max > 2 · n_rows``) grow ``g``; if groups churn
through many rows while the longest row is short (``n_rows > 2 · iter_max``)
shrink ``g``; always keep at least one non-zero of A per group; round to a
power of two.
"""

from __future__ import annotations

import numpy as np

__all__ = ["choose_group_size", "round_pow2"]


def round_pow2(x: np.ndarray) -> np.ndarray:
    """Round (positive) values to the nearest power of two, at least 1."""
    x = np.maximum(np.asarray(x, dtype=np.float64), 1.0)
    return np.exp2(np.rint(np.log2(x))).astype(np.int64)


def choose_group_size(
    avg_len: np.ndarray,
    max_len: np.ndarray,
    nnz_a: np.ndarray,
    threads: "int | np.ndarray",
) -> np.ndarray:
    """Dynamic group size ``g`` per block (vectorised over blocks).

    Parameters mirror the analysis outputs aggregated per block: average
    and maximum length of the referenced rows of B, and the number of
    non-zeros of A the block processes.  ``threads`` may be a scalar (one
    kernel configuration) or a per-block array (a mixed-configuration
    plan priced in one call); every step below is elementwise, so the
    array form returns exactly the per-configuration results.
    """
    if np.minimum.reduce(np.asarray(threads), axis=None, initial=1) < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    # Exact-zero statistics (empty blocks, rows of B with no entries) are
    # legal inputs; the floor of one non-zero / one unit of length is
    # applied once, here.  Everything derived below is then provably
    # positive — n_rows >= 1/threads and iter_max >= 1/threads exactly —
    # so the divisions need no epsilon fuzz.
    avg_len = np.maximum(np.asarray(avg_len, dtype=np.float64), 1.0)
    max_len = np.maximum(np.asarray(max_len, dtype=np.float64), 1.0)
    nnz_a = np.maximum(np.asarray(nnz_a, dtype=np.float64), 1.0)

    # avg_len >= 1 rounds to a power of two >= 1 (exact in float64), so
    # clamping it to [1, threads] is a minimum.
    g = np.minimum(np.exp2(np.rint(np.log2(avg_len))), threads)
    k = threads / g
    iter_max = max_len / g
    n_rows = nnz_a / k
    assert float(n_rows.min(initial=1.0)) > 0.0
    assert float(iter_max.min(initial=1.0)) > 0.0

    # One long row must not serialise the block: widen its groups.
    grow = iter_max > 2.0 * n_rows
    g = np.where(grow, g * iter_max / (2.0 * n_rows), g)
    # Conversely, many short rows per group: narrow the groups so more
    # rows proceed in parallel (prioritising low n_rows over low iter_max).
    # Both iter_max and n_rows scale with g, so a single multiplicative
    # update by their ratio overshoots; the balanced fixed point
    # (iter_max(g) = n_rows(g)) is reached at g · sqrt(iter_max / n_rows).
    # Shrinking only pays when a multi-iteration tail exists (iter_max > 2):
    # for uniform rows that already fit one pass it would merely destroy
    # coalescing without reducing any group's iteration count.
    shrink = (~grow) & (n_rows > 2.0 * iter_max) & (iter_max > 2.0)
    g = np.where(shrink, g * np.sqrt(iter_max / n_rows), g)

    # Never more groups than non-zeros of A to serve.
    k = threads / np.minimum(round_pow2(g), threads)
    too_many_groups = k > nnz_a
    g = np.where(too_many_groups, threads / nnz_a, g)

    return np.minimum(round_pow2(g), threads).astype(np.int64)

