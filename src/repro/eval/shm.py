"""Shared-memory CSR buffers for the persistent suite worker pool.

The parallel suite runner (:func:`repro.eval.harness.run_suite`) moves
operand matrices to its workers through POSIX shared memory instead of
pickling them through a pipe: the parent materialises each case's CSR
arrays into one :class:`multiprocessing.shared_memory.SharedMemory`
segment, ships only a tiny :class:`SharedCSRHandle` (name + shape + nnz)
over the task queue, and workers map the segment back into zero-copy
``np.frombuffer`` views.  The bytes a worker sees are exactly the bytes
the parent wrote, so fingerprints, plans and records computed from a
shared view are bit-identical to the sequential path.

Segment layout (one allocation per matrix)::

    +----------------------+------------------+----------------+
    |  indptr (rows+1) i64 |  indices nnz i64 |  data nnz f64  |
    +----------------------+------------------+----------------+

Lifecycle: the *owner* (parent) creates the segment and must
:meth:`~SharedCSR.unlink` it exactly once when the case is finished;
every attacher only :meth:`~SharedCSR.close`\\ s its mapping.  The pool
tracks all live segments and unlinks them in a ``finally`` block, so no
``/dev/shm`` residue survives a sweep — including one that dies mid-way.
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Tuple

import numpy as np

from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE

__all__ = ["SharedCSR", "SharedCSRHandle"]

_INDEX_BYTES = np.dtype(INDEX_DTYPE).itemsize
_VALUE_BYTES = np.dtype(VALUE_DTYPE).itemsize


@dataclass(frozen=True)
class SharedCSRHandle:
    """Picklable address of one shared CSR segment (queue-friendly)."""

    name: str
    rows: int
    cols: int
    nnz: int

    @property
    def nbytes(self) -> int:
        """Payload bytes of the segment this handle describes."""
        return (self.rows + 1) * _INDEX_BYTES + self.nnz * (
            _INDEX_BYTES + _VALUE_BYTES
        )


class SharedCSR:
    """A CSR matrix whose arrays live in one shared-memory segment.

    Construct with :meth:`from_csr` (owner side) or :meth:`attach`
    (worker side); read through :meth:`view`.  Also usable as a context
    manager — ``__exit__`` closes the mapping and, for the owner,
    unlinks the segment.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        shape: Tuple[int, int],
        nnz: int,
        *,
        owner: bool,
    ) -> None:
        self._shm = shm
        self.shape = (int(shape[0]), int(shape[1]))
        self.nnz = int(nnz)
        self.owner = bool(owner)
        self._closed = False
        self._unlinked = False

    # ------------------------------------------------------------------
    # Creation / attachment
    # ------------------------------------------------------------------
    @classmethod
    def from_csr(cls, m: CSR) -> "SharedCSR":
        """Copy ``m`` into a fresh shared segment (caller becomes owner)."""
        rows = m.rows
        nnz = m.nnz
        total = (rows + 1) * _INDEX_BYTES + nnz * (_INDEX_BYTES + _VALUE_BYTES)
        name = f"speck_{secrets.token_hex(8)}"
        shm = shared_memory.SharedMemory(
            name=name, create=True, size=max(total, 1)
        )
        out = cls(shm, m.shape, nnz, owner=True)
        indptr, indices, data = out._array_views()
        indptr[:] = m.indptr
        indices[:] = m.indices
        data[:] = m.data
        return out

    @classmethod
    def attach(cls, handle: SharedCSRHandle) -> "SharedCSR":
        """Map an existing segment by handle (non-owning).

        ``SharedMemory(name=...)`` re-registers the segment with the
        resource tracker; under the fork pool that tracker is *shared*
        with the creating parent, so the duplicate registration is a
        set no-op and the parent's ``unlink`` balances it.  (Attaching
        from an unrelated, spawn-started process would hand the segment
        to a second tracker — the pool never does that.)
        """
        shm = shared_memory.SharedMemory(name=handle.name, create=False)
        return cls(shm, (handle.rows, handle.cols), handle.nnz, owner=False)

    @property
    def handle(self) -> SharedCSRHandle:
        return SharedCSRHandle(
            name=self._shm.name,
            rows=self.shape[0],
            cols=self.shape[1],
            nnz=self.nnz,
        )

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def _array_views(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        rows = self.shape[0]
        nnz = self.nnz
        buf = self._shm.buf
        o1 = (rows + 1) * _INDEX_BYTES
        o2 = o1 + nnz * _INDEX_BYTES
        o3 = o2 + nnz * _VALUE_BYTES
        indptr = np.frombuffer(buf[:o1], dtype=INDEX_DTYPE)
        indices = np.frombuffer(buf[o1:o2], dtype=INDEX_DTYPE)
        data = np.frombuffer(buf[o2:o3], dtype=VALUE_DTYPE)
        return indptr, indices, data

    def view(self) -> CSR:
        """Zero-copy :class:`CSR` over the segment (no validation pass).

        The arrays alias shared memory; like every CSR in the code base
        they are immutable-by-convention.  Keep the :class:`SharedCSR`
        (or the returned matrix) alive for as long as the view is used —
        closing the mapping invalidates the buffers.
        """
        if self._closed:
            raise ValueError("shared segment is closed")
        indptr, indices, data = self._array_views()
        return CSR(indptr, indices, data, self.shape, check=False)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mapping (idempotent).

        If numpy views over the buffer are still alive the unmap is
        deferred to garbage collection of the ``SharedMemory`` object —
        the mapping cannot be torn down under exported pointers.
        """
        if not self._closed:
            self._closed = True
            try:
                self._shm.close()
            except BufferError:
                pass

    def unlink(self) -> None:
        """Remove the segment from the system (owner only, idempotent)."""
        if self.owner and not self._unlinked:
            self._unlinked = True
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "SharedCSR":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()
