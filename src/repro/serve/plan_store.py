"""The durable plan store: WAL + atomic snapshots for cached plans.

spECK's analysis artifacts are worth persisting: a restarted node that
reloads its plans skips the cold analysis/binning/symbolic work for
every structure it has ever served, and a node joining a cluster can
start warm from a peer's directory.  The store follows the classic
write-ahead-log design.  Both of its files hold nothing but
concatenated Plan IR frames (:func:`~repro.serve.plan_ir.encode_plan`):
a frame already carries magic, version, length and a digest, so the
store adds no envelope of its own.

* :meth:`PlanStore.put` appends one frame to ``wal.spir``.  Append-only
  writes are crash-friendly: a die mid-write can only tear the *last*
  frame.
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
the load path detects and contains the damage.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..eval.checkpoint import append_jsonl
from ..faults import FaultPlan, FaultScope, null_scope
from .plan_cache import CachedPlan, PlanCache, PlanIntegrityError
from .plan_ir import PlanIRError, decode_verified_plan, split_frames

__all__ = ["PlanStore", "PlanStoreLoad"]


@dataclass
class PlanStoreLoad:
    """What one :meth:`PlanStore.load` recovered (and refused)."""

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
        # Lifetime write-side counters.
        self.appended = 0
        self.corrupt_writes = 0
        self.torn_writes = 0
        self.snapshots = 0
        # Warm-restart counters.
        self.warmed = 0
        self.warm_rejected = 0
        #: The most recent load's recovery record (for reports).
        self.last_load: Optional[PlanStoreLoad] = None

    # -- write path --------------------------------------------------------
    def put(self, frame: bytes) -> None:
        """Append one encoded plan frame to the WAL (durable once returned).

        ``frame`` is :func:`~repro.serve.plan_ir.encode_plan`'s output.
        Consults the durability fault sites: a ``disk_corrupt`` hit lands
        the frame with one byte flipped, a ``disk_torn_write`` hit writes
        only its first half — both exactly what the load path must
        survive.
        """
        corrupt = self.scope.disk_corrupt()
        torn = self.scope.disk_torn_write()
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
            with open(self.wal_path, "ab") as fh:
                fh.write(frame)

    # -- read path ---------------------------------------------------------
    def load(self) -> PlanStoreLoad:
        """Replay snapshot + WAL; quarantine damage; truncate a torn tail."""
        with self._lock:
            result, _frames = self._replay()
        self.last_load = result
        return result

    def _replay(self) -> Tuple[PlanStoreLoad, List[bytes]]:
        """The load, plus each surviving plan's frame (store lock held)."""
        result = PlanStoreLoad()
        survivors: Dict[Tuple[str, ...], Tuple[CachedPlan, bytes]] = {}
        for path in (self.snapshot_path, self.wal_path):
            if not os.path.exists(path):
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            source = os.path.basename(path)
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
                        survivors[plan.key] = (plan, span)
                        continue
                if kind == "torn":
                    result.quarantined_torn += 1
                    torn_at = start
                else:
                    result.quarantined_corrupt += 1
                append_jsonl(
                    self.quarantine_path, {"source": source, "record": span.hex()}
                )
            if torn_at is not None:
                os.truncate(path, torn_at)
        keys = sorted(survivors)
        result.plans = [survivors[k][0] for k in keys]
        return result, [survivors[k][1] for k in keys]

    # -- maintenance -------------------------------------------------------
    def compact(self) -> int:
        """Fold WAL + snapshot into a fresh atomic snapshot.

        Returns the number of plans in the new snapshot.  The temp-write
        + ``os.replace`` publish means a crash mid-compaction leaves the
        previous snapshot intact; the WAL is truncated only after the
        new snapshot is durable.
        """
        with self._lock:
            result, frames = self._replay()
            tmp = self.snapshot_path + ".tmp"
            with open(tmp, "wb") as fh:
                fh.writelines(frames)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.snapshot_path)
            with open(self.wal_path, "wb"):
                pass  # truncate: every surviving frame is in the snapshot
            self.snapshots += 1
        self.last_load = result
        return len(result.plans)

    # -- warm restart ------------------------------------------------------
    def warm(self, cache: PlanCache, compat: str) -> int:
        """Adopt every stored plan matching ``compat`` into ``cache``.

        Returns the number of plans adopted.  Incompatible plans (a
        different device or params — e.g. a heterogeneous fleet sharing
        a directory tree) are skipped silently; plans that fail the
        adopt-time integrity check are counted as rejected.  Each stored
        frame's digest is checked once, by the load's ``split_frames``;
        decode and adopt rely on that check instead of repeating it.
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
        """Write-side counters plus the most recent load's recovery."""
        last = self.last_load or PlanStoreLoad()
        return {
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlanStore({self.directory!r}, appended={self.appended})"
