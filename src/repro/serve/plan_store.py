"""The durable plan store: WAL + atomic snapshots, read back by key.

spECK's analysis artifacts are worth persisting: a restarted node that
reloads its plans skips the cold analysis/binning/symbolic work for
every structure it has ever served, a node joining a cluster can start
warm from a peer's directory, and a plan the cache evicted comes back
from disk instead of from a cold re-plan.  The store follows the classic
write-ahead-log design.  Both of its files hold nothing but
concatenated Plan IR frames (:func:`~repro.serve.plan_ir.encode_plan`):
a frame already carries magic, version, length and a digest, so the
store adds no envelope of its own.

The store keeps a key index: plan key → (file, offset, length) of the
key's current frame.  :meth:`~PlanStore.load` (and so
:meth:`~PlanStore.warm`) rebuilds it, :meth:`~PlanStore.put` extends it,
and :meth:`~PlanStore.compact` repoints it at the new snapshot, so no
entry ever points at bytes that moved or were cut.  One descriptor per
file stays open: appends go through ``O_APPEND``, reads through
``os.pread``.

* :meth:`PlanStore.put` appends one frame to ``wal.spir`` and indexes
  it.  Append-only writes are crash-friendly: a die mid-write can only
  tear the *last* frame.  The service skips the append when
  :meth:`PlanStore.holds` says the key's current frame already carries
  the plan's digest.
* :meth:`PlanStore.fetch` is the store rung of the service's plan-source
  ladder (cache → store → peer → cold).  It reads the key's current
  frame back, verifies its full digest, refuses a plan that cannot serve
  the request's mode, and adopts the plan into the cache with the compat
  check.  A damaged frame is quarantined exactly as the load quarantines
  one, its index entry is dropped, and the request plans cold; the fresh
  frame it appends becomes the key's entry.
* :meth:`PlanStore.compact` copies the verified frames of snapshot +
  WAL (the last per key) into a fresh ``snapshot.spir`` written to a
  temp file and published with ``os.replace`` (atomic on POSIX), then
  truncates the WAL.  It holds the store lock from replay to truncation,
  so a concurrent :meth:`~PlanStore.put` lands in the snapshot or in the
  emptied WAL, never in neither.
* :meth:`PlanStore.load` replays snapshot then WAL (later frames win per
  key), splitting each file with :func:`~repro.serve.plan_ir.split_frames`
  and **quarantining** every damaged span to ``quarantine.jsonl`` with a
  counter: a frame cut short at end-of-file (a write that died
  mid-append) counts as torn, any other damage as corrupt.  The torn
  tail is then truncated once, so the next append starts on a frame
  boundary.  Damage never hides a later intact frame; the plan a damaged
  span held is simply recomputed cold.

Directories written in the older line-oriented layout (``wal.jsonl``)
are ignored: the store is a cache, and losing it costs a cold start.

Failure injection: the ``disk_corrupt`` / ``disk_torn_write`` sites of
:mod:`repro.faults` are consulted once per append, so chaos runs can
deterministically flip a byte in (or truncate) chosen frames and assert
that the load path and the read path detect and contain the damage.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, Dict, List, Optional, Tuple

from ..eval.checkpoint import append_jsonl
from ..faults import FaultPlan, FaultScope, null_scope
from .plan_cache import CachedPlan, PlanCache, PlanIntegrityError
from .plan_ir import (
    PlanIRError,
    decode_plan,
    decode_verified_plan,
    frame_checksum,
    frame_key,
    split_frames,
)

__all__ = ["PlanStore", "PlanStoreLoad"]

PlanKey = Tuple[str, ...]
#: Where a key's current frame lies (file path, byte offset, length) and
#: the payload digest it was written with.
FrameRef = Tuple[str, int, int, str]


@dataclass
class PlanStoreLoad:
    """What one :meth:`PlanStore.load` recovered (and refused).

    The quarantine counters also take the damage that reads meet after
    the load (:meth:`PlanStore.fetch`), until the next load.
    """

    #: Surviving plans, last frame per key winning, in key order.
    plans: List[CachedPlan] = field(default_factory=list)
    #: Frames that decoded cleanly (before per-key dedup).
    replayed: int = 0
    #: Damaged spans that are not a torn tail (bit rot, injected
    #: corruption, version mismatch, a torn write with frames after it).
    quarantined_corrupt: int = 0
    #: Frames cut short at end-of-file (a write died mid-append).
    quarantined_torn: int = 0

    @property
    def quarantined(self) -> int:
        return self.quarantined_corrupt + self.quarantined_torn


class PlanStore:
    """Append-only durable storage of one service's plan cache.

    Parameters
    ----------
    directory:
        Where ``wal.spir`` / ``snapshot.spir`` / ``quarantine.jsonl``
        live; created if missing.
    name:
        Owner name the fault sites match on (a cluster node passes its
        node name, so ``disk_corrupt@node-1`` targets node 1's store).
    faults:
        Optional fault plan for the durability sites.
    """

    def __init__(
        self,
        directory: str,
        *,
        name: str = "plan-store",
        faults: Optional[FaultPlan] = None,
    ) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.wal_path = os.path.join(directory, "wal.spir")
        self.snapshot_path = os.path.join(directory, "snapshot.spir")
        self.quarantine_path = os.path.join(directory, "quarantine.jsonl")
        self.name = name
        self.scope: FaultScope = (
            faults.scope(name, "plan_store") if faults is not None else null_scope(name)
        )
        self._lock = threading.Lock()
        #: Plan key → where its current frame lies.
        self._index: Dict[PlanKey, FrameRef] = {}
        #: Open descriptors by path, opened on first use.
        self._files: Dict[str, BinaryIO] = {}
        # Lifetime write-side counters.
        self.appended = 0
        self.corrupt_writes = 0
        self.torn_writes = 0
        self.snapshots = 0
        # Warm-restart counters.
        self.warmed = 0
        self.warm_rejected = 0
        # Read-back counters: frames read, and reads that served nothing.
        self.reads = 0
        self.read_rejects = 0
        #: The most recent load's recovery record (for reports).
        self.last_load: Optional[PlanStoreLoad] = None

    def _file(self, path: str) -> BinaryIO:
        """The open descriptor of ``path``: the WAL appends (``O_APPEND``)
        and reads, the snapshot only reads."""
        fh = self._files.get(path)
        if fh is None:
            fh = open(path, "a+b" if path == self.wal_path else "rb")
            self._files[path] = fh
        return fh

    def close(self) -> None:
        """Close the held descriptors; the next use reopens them."""
        files, self._files = self._files, {}
        for fh in files.values():
            fh.close()

    def __del__(self) -> None:
        if getattr(self, "_files", None):
            self.close()

    # -- write path --------------------------------------------------------
    def put(self, frame: bytes) -> None:
        """Append one encoded plan frame to the WAL (durable once returned).

        ``frame`` is :func:`~repro.serve.plan_ir.encode_plan`'s output;
        it becomes its key's current frame in the index.  Consults the
        durability fault sites: a ``disk_corrupt`` hit lands the frame
        with one byte flipped, a ``disk_torn_write`` hit writes only its
        first half — both exactly what the load and read paths must
        survive.
        """
        corrupt = self.scope.disk_corrupt()
        torn = self.scope.disk_torn_write()
        key = frame_key(frame)
        length, checksum = len(frame), frame_checksum(frame)
        with self._lock:
            self.appended += 1
            if torn:
                # The "process" dies mid-write: half a frame.  Nothing
                # after this append is assumed.
                self.torn_writes += 1
                frame = frame[: max(1, len(frame) // 2)]
            elif corrupt:
                # Latent media error: one payload byte flips after the
                # write "succeeded".
                self.corrupt_writes += 1
                mid = len(frame) // 2
                frame = frame[:mid] + bytes([frame[mid] ^ 0xFF]) + frame[mid + 1:]
            fh = self._file(self.wal_path)
            offset = fh.seek(0, os.SEEK_END)
            fh.write(frame)
            fh.flush()
            self._index[key] = (self.wal_path, offset, length, checksum)

    def holds(self, key: PlanKey, checksum: Optional[str]) -> bool:
        """Whether ``key``'s current frame was written with payload digest
        ``checksum``: appending that plan again would add nothing."""
        ref = self._index.get(key)
        return ref is not None and ref[3] == checksum

    # -- read path ---------------------------------------------------------
    def fetch(
        self, key: PlanKey, cache: PlanCache, compat: str, mode: str = "full"
    ) -> Optional[CachedPlan]:
        """The store rung of the plan-source ladder: adopt ``key``'s plan.

        Reads the key's current frame back, verifies its full digest
        (:func:`~repro.serve.plan_ir.decode_plan`) and adopts the plan
        into ``cache`` with the compat check.  Returns the resident plan,
        or ``None`` when no frame is indexed under ``key`` or the one
        there is refused: a damaged frame (quarantined as
        :meth:`load` quarantines one, its index entry dropped, a torn
        tail truncated), a plan that cannot serve a ``mode`` request
        (:meth:`~repro.serve.plan_cache.CachedPlan.serves`), or one
        that adopt refuses.  Every frame read counts in :attr:`reads`,
        every refusal also in :attr:`read_rejects`.
        """
        with self._lock:
            ref = self._index.get(key)
            if ref is None:
                return None
            path, offset, length, _checksum = ref
            self.reads += 1
            span = os.pread(self._file(path).fileno(), length, offset)
            try:
                plan, _compat = decode_plan(span)
            except PlanIRError:
                self.read_rejects += 1
                del self._index[key]
                # Cut short with nothing after it: the torn tail a load
                # would find.  Any other damage reads as corrupt.
                torn = len(span) < length and split_frames(span) == [
                    ("torn", 0, len(span))
                ]
                if self.last_load is None:
                    self.last_load = PlanStoreLoad()
                self._quarantine(
                    self.last_load, "torn" if torn else "corrupt", path, span
                )
                if torn:
                    os.truncate(path, offset)
                return None
            if plan.serves(mode):
                try:
                    return cache.adopt(plan, expected_compat=compat)
                except PlanIntegrityError:
                    pass
            self.read_rejects += 1
            return None

    def load(self) -> PlanStoreLoad:
        """Replay snapshot + WAL; quarantine damage; truncate a torn tail;
        rebuild the key index from the surviving frames."""
        with self._lock:
            result, frames = self._replay()
            self._index = {key: ref for key, (_span, ref) in frames.items()}
        self.last_load = result
        return result

    def _replay(self) -> Tuple[PlanStoreLoad, Dict[PlanKey, Tuple[bytes, FrameRef]]]:
        """The load, plus each surviving key's frame and where it lies, in
        key order (store lock held)."""
        result = PlanStoreLoad()
        survivors: Dict[PlanKey, Tuple[CachedPlan, bytes, FrameRef]] = {}
        for path in (self.snapshot_path, self.wal_path):
            if not os.path.exists(path):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            torn_at = None
            for kind, start, end in split_frames(data):
                span = data[start:end]
                if kind == "frame":
                    try:
                        plan, _compat = decode_verified_plan(span)
                    except PlanIRError:  # verified, but a malformed payload
                        kind = "corrupt"
                    else:
                        result.replayed += 1
                        ref = (path, start, end - start, plan.checksum)
                        survivors[plan.key] = (plan, span, ref)
                        continue
                if kind == "torn":
                    torn_at = start
                self._quarantine(result, kind, path, span)
            if torn_at is not None:
                os.truncate(path, torn_at)
        keys = sorted(survivors)
        result.plans = [survivors[k][0] for k in keys]
        return result, {k: survivors[k][1:] for k in keys}

    def _quarantine(
        self, result: PlanStoreLoad, kind: str, path: str, span: bytes
    ) -> None:
        """Count one damaged span as torn or corrupt and keep its bytes in
        ``quarantine.jsonl`` for forensics."""
        if kind == "torn":
            result.quarantined_torn += 1
        else:
            result.quarantined_corrupt += 1
        append_jsonl(
            self.quarantine_path,
            {"source": os.path.basename(path), "record": span.hex()},
        )

    # -- maintenance -------------------------------------------------------
    def compact(self) -> int:
        """Fold WAL + snapshot into a fresh atomic snapshot.

        Returns the number of plans in the new snapshot.  The temp-write
        + ``os.replace`` publish means a crash mid-compaction leaves the
        previous snapshot intact; the WAL is truncated only after the
        new snapshot is durable.  The index then points into the new
        snapshot, and both descriptors are reopened on next use.
        """
        with self._lock:
            result, frames = self._replay()
            tmp = self.snapshot_path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.writelines(span for span, _ref in frames.values())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
            self.close()
            with open(self.wal_path, "wb"):
                pass  # truncate: every surviving frame is in the snapshot
            self._index = {}
            offset = 0
            for key, (span, ref) in frames.items():
                self._index[key] = (self.snapshot_path, offset, len(span), ref[3])
                offset += len(span)
            self.snapshots += 1
        self.last_load = result
        return len(result.plans)

    # -- warm restart ------------------------------------------------------
    def warm(self, cache: PlanCache, compat: str) -> int:
        """Adopt every stored plan matching ``compat`` into ``cache``.

        The plan-source ladder's eager case: a restart pulls every plan
        in at once instead of one :meth:`fetch` per miss.  Returns the
        number of plans adopted.  Incompatible plans (a different device
        or params — e.g. a heterogeneous fleet sharing a directory tree)
        are skipped silently; plans that fail the adopt-time integrity
        check are counted as rejected.  Each stored frame's digest is
        checked once, by the load's ``split_frames``; decode and adopt
        rely on that check instead of repeating it.
        """
        load = self.load()
        adopted = 0
        for plan in load.plans:
            if plan.compat != compat:
                continue
            try:
                cache.adopt(plan, expected_compat=compat)
            except PlanIntegrityError:
                self.warm_rejected += 1
                continue
            adopted += 1
        self.warmed += adopted
        return adopted

    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Write-side counters, the recovery since the last load, and the
        read-back counters once a read happened (so a store that never
        read back reports exactly what it did before the read path)."""
        last = self.last_load or PlanStoreLoad()
        out = {
            "appended": self.appended,
            "corrupt_writes": self.corrupt_writes,
            "torn_writes": self.torn_writes,
            "snapshots": self.snapshots,
            "warmed": self.warmed,
            "warm_rejected": self.warm_rejected,
            "replayed": last.replayed,
            "quarantined_corrupt": last.quarantined_corrupt,
            "quarantined_torn": last.quarantined_torn,
        }
        if self.reads:
            out["reads"] = self.reads
        if self.read_rejects:
            out["read_rejects"] = self.read_rejects
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanStore({self.directory!r}, appended={self.appended})"
