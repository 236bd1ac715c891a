"""The versioned, checksummed Plan IR: cached plans as bytes.

A :class:`~repro.serve.plan_cache.CachedPlan` is exactly the artifact
spECK's lightweight analysis exists to amortise — the O(NNZ_A) row
statistics, the binning decisions, both block plans and the symbolic
pass record.  Keeping it process-local means every restart throws the
fleet back to cold analysis; this module gives the plan a stable
*interchange representation* so it can be persisted by the
:class:`~repro.serve.plan_store.PlanStore`, replicated between cluster
peers, and verified end to end.

Frame layout (all integers big-endian)::

    +------+---------+-------------+------------------+-----------+
    | SPIR | version | payload len | blake2b(payload) |  payload  |
    | 4 B  |  u16    |    u64      |      16 B        |  var      |
    +------+---------+-------------+------------------+-----------+

The payload is a JSON header (scalars, decisions, the device/params
*compat key*, and one descriptor per array) followed by the raw
``tobytes()`` buffers of every numpy array in descriptor order.  Numeric
scalars ride in the JSON header — Python's ``repr``-based float
serialisation round-trips ``float64`` exactly, and the arrays are copied
bit for bit — so ``decode_plan(encode_plan(p)) == p`` down to dtypes.

The digest covers the whole payload, which makes the frame self-
verifying: a bit flip anywhere (disk corruption, torn append, a peer
replica damaged in transit) surfaces as :class:`PlanIRError` with
``reason="checksum"`` instead of a silently wrong plan.  The same digest
doubles as the plan's identity for :meth:`PlanCache.adopt`'s integrity
check (:func:`plan_checksum`).  A file of concatenated frames — the
plan store's WAL and snapshot — is walked by :func:`split_frames`, which
tells verified frames from damaged spans and resyncs after damage at the
next magic.

The header's ``mode`` field round-trips the plan's planning rung
verbatim — including ``"speculative"`` for plans whose decisions came
from sampled estimates (see :mod:`repro.estimate`).  A persisted
speculative plan is still bit-correct; a non-speculative service that
adopts one simply refines it on the next full-mode request.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.analysis import RowAnalysis
from ..core.global_lb import BlockPlan
from ..core.params import SpeckParams
from ..core.passes import PassResult
from ..gpu import DeviceSpec
from .plan_cache import CachedPlan

__all__ = [
    "PLAN_IR_VERSION",
    "PlanIRError",
    "compat_key",
    "encode_frame",
    "decode_frame",
    "frame_checksum",
    "frame_key",
    "split_frames",
    "encode_record",
    "decode_record",
    "encode_plan",
    "decode_plan",
    "decode_verified_plan",
    "plan_checksum",
]

PLAN_IR_MAGIC = b"SPIR"
PLAN_IR_VERSION = 1

#: Frame prefix: magic, version, payload length, 16-byte blake2b digest.
_HEADER_STRUCT = struct.Struct(">4sHQ16s")


class PlanIRError(ValueError):
    """A frame that cannot be decoded.  ``reason`` classifies the defect:
    ``"truncated"`` (frame shorter than declared), ``"magic"`` (not a
    Plan IR frame at all), ``"version"`` (produced by an incompatible
    writer), ``"checksum"`` (bit rot — the payload digest mismatches),
    or ``"corrupt"`` (digest matched but the payload is malformed, e.g.
    a buggy writer)."""

    def __init__(self, message: str, *, reason: str = "corrupt") -> None:
        super().__init__(message)
        self.reason = reason


def compat_key(device: DeviceSpec, params: SpeckParams) -> str:
    """The device+params compatibility key plans are valid under.

    Binning thresholds and kernel configurations are device-derived, so
    a plan only transfers (or warm-restarts) between services whose
    engines would have made identical decisions.  The format matches
    what the cluster layer has always used for replica gating.
    """
    return f"{device.name}|{params!r}"


# ---------------------------------------------------------------------------
# Framing (shared by plans and generic records)
# ---------------------------------------------------------------------------
def encode_frame(payload: bytes) -> bytes:
    """Wrap raw ``payload`` bytes in one self-verifying SPIR frame."""
    digest = hashlib.blake2b(payload, digest_size=16).digest()
    return (
        _HEADER_STRUCT.pack(PLAN_IR_MAGIC, PLAN_IR_VERSION, len(payload), digest)
        + payload
    )


def _frame_end(data: bytes, pos: int = 0) -> int:
    """Verify the frame starting at ``pos``; return the offset it ends at."""
    if len(data) - pos < _HEADER_STRUCT.size:
        raise PlanIRError(
            f"frame is {len(data) - pos} B, shorter than the "
            f"{_HEADER_STRUCT.size} B header",
            reason="truncated",
        )
    magic, version, length, digest = _HEADER_STRUCT.unpack_from(data, pos)
    if magic != PLAN_IR_MAGIC:
        raise PlanIRError(f"bad magic {magic!r}", reason="magic")
    if version != PLAN_IR_VERSION:
        raise PlanIRError(
            f"plan IR version {version}, this reader speaks {PLAN_IR_VERSION}",
            reason="version",
        )
    start = pos + _HEADER_STRUCT.size
    if start + length > len(data):
        raise PlanIRError(
            f"payload is {len(data) - start} B, header declared {length} B",
            reason="truncated",
        )
    payload = memoryview(data)[start : start + length]
    if hashlib.blake2b(payload, digest_size=16).digest() != digest:
        raise PlanIRError("payload digest mismatch (bit rot)", reason="checksum")
    return start + length


def decode_frame(data: bytes) -> bytes:
    """Verify one SPIR frame and return its payload bytes.

    Raises :class:`PlanIRError` with the standard ``reason`` taxonomy
    (``"truncated"``/``"magic"``/``"version"``/``"checksum"``) on any
    framing defect.
    """
    end = _frame_end(data)
    if end != len(data):
        raise PlanIRError(
            f"payload is {len(data) - _HEADER_STRUCT.size} B, header declared "
            f"{end - _HEADER_STRUCT.size} B",
            reason="truncated",
        )
    return data[_HEADER_STRUCT.size:]


def frame_checksum(frame: bytes) -> str:
    """The payload digest (hex) an encoded frame's header carries.

    For a frame :func:`encode_plan` just built this equals
    :func:`plan_checksum` of the plan, without building the payload again.
    """
    return _HEADER_STRUCT.unpack_from(frame)[3].hex()


def frame_key(frame: bytes) -> Tuple[str, ...]:
    """The plan key an :func:`encode_plan` frame's header names.

    Parses the JSON header only: neither the digest nor the arrays are
    touched.  The plan store indexes each appended frame under it.
    """
    header, _ = _plan_header(memoryview(frame)[_HEADER_STRUCT.size:])
    return tuple(str(k) for k in header["key"])


def split_frames(data: bytes) -> List[Tuple[str, int, int]]:
    """Split concatenated frames into verified frames and damaged spans.

    Returns ``(kind, start, end)`` pieces that cover ``data`` in order.
    ``kind`` is ``"frame"`` for one whole frame whose digest verifies,
    ``"torn"`` for a frame cut short at the end of ``data`` (a write that
    died mid-append), and ``"corrupt"`` for any other damaged span.  A
    damaged span ends at the next magic, where the walk tries a frame
    again, so damage never hides a later intact frame.
    """
    pieces: List[Tuple[str, int, int]] = []
    pos = 0
    while pos < len(data):
        try:
            end, kind = _frame_end(data, pos), "frame"
        except PlanIRError as exc:
            end, kind = data.find(PLAN_IR_MAGIC, pos + 1), "corrupt"
            if end < 0:
                end = len(data)
                if exc.reason == "truncated":
                    kind = "torn"
        pieces.append((kind, pos, end))
        pos = end
    return pieces


def encode_record(obj: object) -> bytes:
    """Frame one JSON-serialisable record for cross-process transport.

    This is what the suite worker pool ships over its result queue
    instead of pickling record objects: a canonical JSON payload inside
    the same checksummed frame the plan store uses, so torn or damaged
    transfers surface as :class:`PlanIRError` rather than silently wrong
    evaluation records.  JSON round-trips ``float`` via ``repr`` exactly
    and preserves object key order, so ``decode_record(encode_record(d))``
    reproduces ``d`` value- and order-identically.
    """
    return encode_frame(json.dumps(obj).encode("utf-8"))


def decode_record(data: bytes) -> object:
    """Inverse of :func:`encode_record` (raises :class:`PlanIRError`)."""
    payload = decode_frame(data)
    try:
        return json.loads(payload.decode("utf-8"))
    except Exception as exc:
        raise PlanIRError(f"malformed record payload: {exc}", reason="corrupt") from exc


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------
def _block_plan_header(
    bp: BlockPlan, prefix: str, arrays: List[np.ndarray], descs: List[dict]
) -> dict:
    for field in ("row_order", "block_ptr", "block_config"):
        arr = np.ascontiguousarray(getattr(bp, field))
        descs.append(
            {"name": f"{prefix}.{field}", "dtype": arr.dtype.str, "shape": list(arr.shape)}
        )
        arrays.append(arr)
    return {"used_global_lb": bool(bp.used_global_lb)}


def _pass_header(
    pr: PassResult, prefix: str, arrays: List[np.ndarray], descs: List[dict]
) -> dict:
    gs = np.ascontiguousarray(pr.group_sizes)
    descs.append(
        {"name": f"{prefix}.group_sizes", "dtype": gs.dtype.str, "shape": list(gs.shape)}
    )
    arrays.append(gs)
    return {
        "time_s": float(pr.time_s),
        # JSON objects key on strings; configuration indices are ints, so
        # ship them as sorted pairs to keep types and order exact.
        "kernel_times": [
            [int(k), float(v)] for k, v in sorted(pr.kernel_times.items())
        ],
        "accum_blocks": {
            str(k): int(v) for k, v in sorted(pr.accum_blocks.items())
        },
        "radix_entries": int(pr.radix_entries),
        "global_hash_blocks": int(pr.global_hash_blocks),
        "global_hash_max_entries": int(pr.global_hash_max_entries),
        "mean_utilization": float(pr.mean_utilization),
    }


def _payload(plan: CachedPlan, compat: str) -> bytes:
    if not plan.ready:
        raise ValueError("only populated plans can be serialized")
    assert plan.analysis is not None and plan.c_row_nnz is not None
    assert plan.plan_sym is not None and plan.plan_num is not None
    assert plan.sym is not None

    arrays: List[np.ndarray] = []
    descs: List[dict] = []
    for field in (
        "products",
        "max_ref_row",
        "col_min",
        "col_max",
        "a_row_nnz",
        "adjacency",
    ):
        arr = np.ascontiguousarray(getattr(plan.analysis, field))
        descs.append(
            {
                "name": f"analysis.{field}",
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
            }
        )
        arrays.append(arr)
    c_nnz = np.ascontiguousarray(plan.c_row_nnz)
    descs.append(
        {"name": "c_row_nnz", "dtype": c_nnz.dtype.str, "shape": list(c_nnz.shape)}
    )
    arrays.append(c_nnz)

    header: Dict[str, object] = {
        "version": PLAN_IR_VERSION,
        "compat": compat,
        "key": list(plan.key),
        "mode": plan.mode,
        "use_lb_symbolic": bool(plan.use_lb_symbolic),
        "use_lb_numeric": bool(plan.use_lb_numeric),
        "ratio_symbolic": float(plan.ratio_symbolic),
        "ratio_numeric": float(plan.ratio_numeric),
        "plan_sym": _block_plan_header(plan.plan_sym, "plan_sym", arrays, descs),
        "plan_num": _block_plan_header(plan.plan_num, "plan_num", arrays, descs),
        "sym": _pass_header(plan.sym, "sym", arrays, descs),
        "num": (
            _pass_header(plan.num, "num", arrays, descs)
            if plan.num is not None
            else None
        ),
    }
    header["arrays"] = descs
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    parts = [struct.pack(">I", len(head)), head]
    parts.extend(arr.tobytes() for arr in arrays)
    return b"".join(parts)


def encode_plan(plan: CachedPlan, compat: str = "") -> bytes:
    """Serialize a populated plan into one self-verifying frame."""
    return encode_frame(_payload(plan, compat or plan.compat or ""))


def plan_checksum(plan: CachedPlan, compat: str = "") -> str:
    """The plan's payload digest (hex) — its content identity.

    Computed over the same canonical payload :func:`encode_plan` frames,
    so a plan decoded from disk or adopted from a peer can be verified
    against the checksum stamped at population time without re-framing.
    """
    payload = _payload(plan, compat or plan.compat or "")
    return hashlib.blake2b(payload, digest_size=16).hexdigest()


# ---------------------------------------------------------------------------
# Decoding
# ---------------------------------------------------------------------------
def _read_arrays(
    descs: List[dict], buf: memoryview
) -> Dict[str, Dict[str, np.ndarray]]:
    """Materialise every described array from the buffer (writable copies),
    grouped by the part of its name before the dot (``""`` for none)."""
    groups: Dict[str, Dict[str, np.ndarray]] = {}
    offset = 0
    for d in descs:
        dtype = np.dtype(d["dtype"])
        count = math.prod(d["shape"])
        end = offset + dtype.itemsize * count
        if end > len(buf):
            raise PlanIRError(
                f"array {d['name']!r} runs past the payload", reason="corrupt"
            )
        arr = np.frombuffer(buf, dtype, count, offset).reshape(d["shape"])
        group, _, name = d["name"].rpartition(".")
        groups.setdefault(group, {})[name] = arr.copy()
        offset = end
    return groups


def _plan_header(payload: memoryview) -> Tuple[dict, memoryview]:
    """A plan payload's JSON header, and the array bytes that follow it."""
    (head_len,) = struct.unpack_from(">I", payload)
    header = json.loads(payload[4 : 4 + head_len].tobytes())
    return header, payload[4 + head_len:]


def _decode_pass(head: dict, group_sizes: np.ndarray) -> PassResult:
    return PassResult(
        time_s=float(head["time_s"]),
        kernel_times={int(k): float(v) for k, v in head["kernel_times"]},
        accum_blocks={str(k): int(v) for k, v in head["accum_blocks"].items()},
        radix_entries=int(head["radix_entries"]),
        global_hash_blocks=int(head["global_hash_blocks"]),
        global_hash_max_entries=int(head["global_hash_max_entries"]),
        group_sizes=group_sizes,
        mean_utilization=float(head["mean_utilization"]),
    )


def decode_plan(data: bytes) -> Tuple[CachedPlan, str]:
    """Parse one frame back into a ready plan; returns ``(plan, compat)``.

    Raises :class:`PlanIRError` (see its ``reason`` taxonomy) on any
    defect; never returns a partially-reconstructed plan.
    """
    return _decode_payload(decode_frame(data), frame_checksum(data))


def decode_verified_plan(frame: bytes) -> Tuple[CachedPlan, str]:
    """:func:`decode_plan` for one whole frame that :func:`split_frames`
    has already verified: the digest is not computed a second time."""
    return _decode_payload(frame[_HEADER_STRUCT.size:], frame_checksum(frame))


def _decode_payload(payload: bytes, checksum: str) -> Tuple[CachedPlan, str]:
    """Build the plan a verified frame's ``payload`` describes.

    ``checksum`` is the frame's verified digest; it becomes both the
    plan's ``checksum`` and its ``verified_checksum``, which lets
    :meth:`PlanCache.adopt` skip rebuilding the payload to check it.
    """
    try:
        header, buf = _plan_header(memoryview(payload))
        arrays = _read_arrays(header["arrays"], buf)

        # Keys are two fingerprints, plus an optional workload tag for
        # masked/variant plans — round-trip whatever length was written.
        plan = CachedPlan(key=tuple(str(k) for k in header["key"]))
        plan.mode = str(header.get("mode", "full"))
        plan.populate(
            analysis=RowAnalysis(**arrays["analysis"]),
            c_row_nnz=arrays[""]["c_row_nnz"],
            use_lb_symbolic=bool(header["use_lb_symbolic"]),
            use_lb_numeric=bool(header["use_lb_numeric"]),
            ratio_symbolic=float(header["ratio_symbolic"]),
            ratio_numeric=float(header["ratio_numeric"]),
            plan_sym=BlockPlan(
                used_global_lb=bool(header["plan_sym"]["used_global_lb"]),
                **arrays["plan_sym"],
            ),
            plan_num=BlockPlan(
                used_global_lb=bool(header["plan_num"]["used_global_lb"]),
                **arrays["plan_num"],
            ),
            sym=_decode_pass(header["sym"], arrays["sym"]["group_sizes"]),
            num=(
                _decode_pass(header["num"], arrays["num"]["group_sizes"])
                if header["num"] is not None
                else None
            ),
        )
        compat = str(header["compat"])
    except PlanIRError:
        raise
    except Exception as exc:  # malformed-but-checksummed payload
        raise PlanIRError(f"malformed payload: {exc}", reason="corrupt") from exc
    plan.compat = compat
    plan.checksum = plan.verified_checksum = checksum
    return plan, compat
