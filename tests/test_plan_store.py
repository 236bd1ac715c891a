"""Durability, degradation and failover: Plan IR, PlanStore, brownout
ladder, circuit breakers and the retry budget.

The crash-safety tests exercise the exact failure geometry a WAL must
survive: truncation at *every* byte boundary of the final record, plus
the injected ``disk_corrupt`` / ``disk_torn_write`` fault sites; recovery
must quarantine cleanly and never lose an earlier record.
"""

import functools
import os
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.suite import MatrixCase
from repro.faults import parse_fault_spec
from repro.matrices import generators as gen
from repro.serve.admission import AdmissionController
from repro.kernels.reference import esc_multiply
from repro.serve.plan_cache import PlanCache, PlanIntegrityError, plan_transfer_s
from repro.serve.plan_ir import (
    PlanIRError,
    compat_key,
    decode_plan,
    encode_plan,
    plan_checksum,
)
from repro.serve.plan_store import PlanStore
from repro.serve.service import SpGEMMService
from repro.serve.workload import WorkloadSpec, run_serve_bench, serve_corpus
from repro.cluster import bench as cluster_bench
from repro.cluster import router as cluster_router
from repro.cluster.bench import ClusterSpec, run_cluster_bench
from repro.cluster.router import CircuitBreaker, RetryBudget
from repro.gpu import TITAN_V

from conftest import csr_matrices


def _cold_plan(a, b=None, svc=None):
    """A populated, checksum-stamped plan for (a, b) via one cold run."""
    svc = svc or SpGEMMService()
    b = b if b is not None else a
    res = svc.multiply(a, b)
    assert res.valid
    plan = svc.plans.peek((a.fingerprint(), b.fingerprint()))
    assert plan is not None and plan.ready
    return plan, svc


@functools.lru_cache(maxsize=None)
def _tiny_frames():
    """Keys and frames of 24 distinct tiny plans."""
    svc = SpGEMMService()
    plans = [_cold_plan(gen.rmat(3, 4, seed=s), svc=svc)[0] for s in range(24)]
    assert len({p.key for p in plans}) == len(plans)
    return tuple(p.key for p in plans), tuple(encode_plan(p) for p in plans)


# ---------------------------------------------------------------------------
# Plan IR serialization
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(m=csr_matrices(square=True, max_rows=12, max_nnz=40))
def test_plan_ir_roundtrip_bit_exact(m):
    plan, _ = _cold_plan(m)
    frame = encode_plan(plan, plan.compat or "")
    decoded, compat = decode_plan(frame)
    assert compat == (plan.compat or "")
    # Re-encoding the decoded plan must reproduce the frame byte for
    # byte — the strongest round-trip statement (covers every array,
    # scalar and flag the IR carries).
    assert encode_plan(decoded, compat) == frame
    # Dtypes survive, not just values.
    assert decoded.analysis.products.dtype == plan.analysis.products.dtype
    assert decoded.c_row_nnz.dtype == plan.c_row_nnz.dtype
    assert np.array_equal(decoded.c_row_nnz, plan.c_row_nnz)
    assert decoded.sym.kernel_times == plan.sym.kernel_times
    # Decoded arrays are writable copies, not frozen buffer views.
    assert decoded.c_row_nnz.flags.writeable


def test_plan_ir_detects_corruption():
    plan, _ = _cold_plan(gen.rmat(6, 8, seed=3))
    frame = bytearray(encode_plan(plan))
    frame[len(frame) // 2] ^= 0xFF
    with pytest.raises(PlanIRError) as exc:
        decode_plan(bytes(frame))
    assert exc.value.reason == "checksum"


def test_plan_ir_rejects_truncation_and_bad_magic():
    plan, _ = _cold_plan(gen.rmat(6, 8, seed=3))
    frame = encode_plan(plan)
    with pytest.raises(PlanIRError):
        decode_plan(frame[: len(frame) // 2])
    with pytest.raises(PlanIRError) as exc:
        decode_plan(b"XXXX" + frame[4:])
    assert exc.value.reason == "magic"


def test_plan_checksum_matches_service_stamp():
    a = gen.rmat(6, 8, seed=5)
    plan, svc = _cold_plan(a)
    assert plan.checksum == plan_checksum(plan)
    assert plan.compat == compat_key(svc.device, svc.engine.params)


# ---------------------------------------------------------------------------
# Adopt-time integrity checks (cache hardening)
# ---------------------------------------------------------------------------
def test_adopt_rejects_checksum_mismatch():
    plan, _ = _cold_plan(gen.rmat(6, 8, seed=7))
    plan.checksum = "0" * 32  # simulated bit rot after stamping
    cache = PlanCache()
    with pytest.raises(PlanIntegrityError) as exc:
        cache.adopt(plan)
    assert exc.value.reason == "checksum"
    assert cache.stats().rejects == 1


def test_adopt_rejects_compat_mismatch():
    plan, _ = _cold_plan(gen.rmat(6, 8, seed=7))
    cache = PlanCache()
    with pytest.raises(PlanIntegrityError) as exc:
        cache.adopt(plan, expected_compat="other-device|params")
    assert exc.value.reason == "compat"
    assert cache.stats().rejects == 1
    # The genuine compat passes.
    cache.adopt(plan, expected_compat=plan.compat)
    assert cache.stats().rejects == 1


def test_warm_verifies_each_stored_frame_once(tmp_path, monkeypatch):
    """A warm checks each frame's digest once (``split_frames``): the
    decode does not hash it again and adopt does not rebuild the payload."""
    from repro.serve import plan_ir

    keys, frames = _tiny_frames()
    store = PlanStore(str(tmp_path))
    for frame in frames[:4]:
        store.put(frame)
    digests, rebuilds = [], []
    frame_end = plan_ir._frame_end
    monkeypatch.setattr(
        plan_ir, "_frame_end",
        lambda *a: digests.append(1) or frame_end(*a),
    )
    monkeypatch.setattr(
        plan_ir, "plan_checksum", lambda *a: rebuilds.append(1) or "x" * 32
    )
    cache = PlanCache()
    svc = SpGEMMService()
    assert store.warm(cache, svc.compat) == 4
    assert len(digests) == 4 and rebuilds == []
    assert sorted(cache._plans) == sorted(keys[:4])


def test_flipped_payload_byte_is_quarantined_at_load(tmp_path):
    keys, frames = _tiny_frames()
    store = PlanStore(str(tmp_path))
    store.put(frames[0])
    damaged = bytearray(frames[1])
    damaged[len(damaged) - 5] ^= 0x01  # one bit of the array payload
    store.put(bytes(damaged))
    store.put(frames[2])
    load = store.load()
    assert load.quarantined_corrupt == 1 and load.quarantined_torn == 0
    assert sorted(p.key for p in load.plans) == sorted([keys[0], keys[2]])
    cache = PlanCache()
    assert store.warm(cache, SpGEMMService().compat) == 2
    assert keys[1] not in cache


def test_drifted_replica_of_a_stored_plan_is_rejected_at_adopt(tmp_path):
    """A plan decoded from a verified frame skips the payload rebuild, but
    a peer replica of it (``dataclasses.replace``) is content-checked."""
    from dataclasses import replace

    keys, frames = _tiny_frames()
    store = PlanStore(str(tmp_path))
    store.put(frames[0])
    (stored,) = store.load().plans
    assert stored.verified_checksum == stored.checksum
    rows = stored.c_row_nnz.copy()
    rows[0] += 1
    replica = replace(stored, c_row_nnz=rows, hits=0)
    assert replica.verified_checksum is None
    cache = PlanCache()
    with pytest.raises(PlanIntegrityError) as exc:
        cache.adopt(replica, expected_compat=stored.compat)
    assert exc.value.reason == "checksum"
    assert cache.stats().rejects == 1 and keys[0] not in cache
    # A stamped checksum that no longer names the verified frame is
    # checked in full as well.
    stored.checksum = "0" * 32
    with pytest.raises(PlanIntegrityError):
        cache.adopt(stored, expected_compat=stored.compat)
    # The untouched stored plan is adopted.
    intact = store.load().plans[0]
    assert cache.adopt(intact, expected_compat=intact.compat) is intact


# ---------------------------------------------------------------------------
# PlanStore: WAL, snapshots, quarantine
# ---------------------------------------------------------------------------
def test_plan_store_roundtrip_and_warm(tmp_path):
    d = str(tmp_path / "store")
    svc = SpGEMMService(plan_store=PlanStore(d))
    mats = [gen.rmat(6, 8, seed=s) for s in (1, 2, 3)]
    for m in mats:
        svc.multiply(m, m)
    assert svc.plan_store.appended == 3

    svc2 = SpGEMMService(plan_store=PlanStore(d))
    for m in mats:
        res = svc2.multiply(m, m)
        assert res.decisions.get("plan_cache") == "hit"
    assert svc2.plan_store.warmed == 3
    assert svc2.plans.stats().misses == 0


def test_plan_store_compaction_is_atomic_and_lossless(tmp_path):
    d = str(tmp_path / "store")
    store = PlanStore(d)
    svc = SpGEMMService(plan_store=store)
    for s in (1, 2, 3):
        m = gen.rmat(6, 8, seed=s)
        svc.multiply(m, m)
    assert store.compact() == 3
    assert os.path.getsize(store.wal_path) == 0
    load = PlanStore(d).load()
    assert len(load.plans) == 3 and load.quarantined == 0
    # Repeated keys: the last record wins, compaction dedups.
    m = gen.rmat(6, 8, seed=1)
    svc.multiply(m, m)  # hit: no new WAL record
    store.put(encode_plan(svc.plans.peek((m.fingerprint(), m.fingerprint()))))
    assert store.compact() == 3


class _HookedLock:
    """A lock that runs ``hook`` (once) right after its next release."""

    def __init__(self):
        self._lock = threading.Lock()
        self.hook = None

    def __enter__(self):
        self._lock.acquire()
        return self

    def __exit__(self, *exc):
        self._lock.release()
        hook, self.hook = self.hook, None
        if hook is not None:
            hook()


def test_put_during_compaction_is_not_lost(tmp_path):
    """A put that lands the first time compaction lets go of the store
    lock must survive: compaction may not drop a record it never saw."""
    d = str(tmp_path / "store")
    store = PlanStore(d)
    svc = SpGEMMService(plan_store=store)
    m1, m2 = gen.rmat(6, 8, seed=1), gen.rmat(6, 8, seed=2)
    svc.multiply(m1, m1)
    store._lock = lock = _HookedLock()
    lock.hook = lambda: svc.multiply(m2, m2)
    assert store.compact() == 1
    assert store.appended == 2
    keys = {p.key for p in PlanStore(d).load().plans}
    assert keys == {(m.fingerprint(), m.fingerprint()) for m in (m1, m2)}


def test_puts_racing_compaction_all_survive(tmp_path):
    """Four threads put while a fifth compacts in a loop and a sixth reads
    plans back; every frame put must be in the reloaded store, and every
    read that finds a key returns that key's intact plan."""
    keys, frames = _tiny_frames()
    compat = decode_plan(frames[0])[1]
    store = PlanStore(str(tmp_path / "store"))
    putters = [
        threading.Thread(target=lambda i=i: [store.put(f) for f in frames[i::4]])
        for i in range(4)
    ]
    read_back = []

    def compact_until_done():
        while any(t.is_alive() for t in putters):
            store.compact()

    def read_until_done():
        while any(t.is_alive() for t in putters):
            for key in keys:
                plan = store.fetch(key, PlanCache(), compat)
                if plan is not None:
                    read_back.append(plan.key == key)

    others = [
        threading.Thread(target=compact_until_done),
        threading.Thread(target=read_until_done),
    ]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in putters + others:
            t.start()
        for t in putters + others:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert store.appended == len(frames)
    assert all(store.fetch(key, PlanCache(), compat) for key in keys)
    assert store.read_rejects == 0 and all(read_back)
    assert {p.key for p in PlanStore(store.directory).load().plans} == set(keys)


def test_new_plans_build_the_payload_once(tmp_path, monkeypatch):
    from repro.graph import incremental_multiply
    from repro.graph.delta import random_delta
    from repro.serve import plan_ir

    real, calls = plan_ir._payload, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(plan_ir, "_payload", counting)
    svc = SpGEMMService(plan_store=PlanStore(str(tmp_path / "store")))
    a = gen.banded(80, 3, seed=13)
    b = gen.random_uniform(a.cols, a.cols, 2.0, seed=6)
    c_old = svc.multiply(a, b).c
    # One encode stamps the checksum and feeds the store.
    assert len(calls) == 1 and svc.plan_store.appended == 1
    plan = svc.plans.peek((a.fingerprint(), b.fingerprint()))
    assert plan.checksum == plan_checksum(plan)

    calls.clear()
    delta = random_delta(a, rng=np.random.default_rng(0), frac=0.05)
    assert incremental_multiply(a, b, c_old, delta, service=svc).plan_patched
    assert len(calls) == 1 and svc.plan_store.appended == 2


def test_wal_truncated_at_every_byte_boundary(tmp_path):
    """Crash-mid-write: for every prefix of the last WAL frame the load
    must recover the first frame, quarantine the tear, and truncate the
    tail so the next append lands on a frame boundary."""
    d = str(tmp_path / "store")
    store = PlanStore(d)
    svc = SpGEMMService(plan_store=store)
    # Tiny matrices keep the frames short enough to sweep every byte.
    mats = [gen.rmat(3, 4, seed=s) for s in (1, 2, 3)]
    for m in mats:
        svc.multiply(m, m)
    frames = [
        encode_plan(svc.plans.peek((m.fingerprint(), m.fingerprint())))
        for m in mats
    ]
    with open(store.wal_path, "rb") as fh:
        assert fh.read() == b"".join(frames)
    head, last, appended = frames
    appended_key = (mats[2].fingerprint(), mats[2].fingerprint())

    for cut in range(len(last) + 1):
        with open(store.wal_path, "wb") as fh:
            fh.write(head + last[:cut])
        load = PlanStore(d).load()
        torn = 0 < cut < len(last)
        assert len(load.plans) == (1 if torn or cut == 0 else 2), cut
        assert load.quarantined_torn == (1 if torn else 0), cut
        assert load.quarantined_corrupt == 0, cut
        # The tear is gone: an append after the load reloads whole.
        PlanStore(d).put(appended)
        reload = PlanStore(d).load()
        assert reload.quarantined == 0, cut
        assert appended_key in {p.key for p in reload.plans}, cut


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_wal_damage_never_hides_an_intact_frame(data):
    """One damage in a 3-frame WAL — truncation at byte k, a byte flip at
    k, or a torn fragment between frames — loses only the frame it hits;
    only tail damage counts as torn, and the load never raises."""
    keys, frames = (x[:3] for x in _tiny_frames())
    wal = b"".join(frames)
    ends = np.cumsum([len(f) for f in frames])
    damage = data.draw(st.sampled_from(["truncate", "flip", "fragment"]))
    if damage == "truncate":
        k = data.draw(st.integers(0, len(wal) - 1))
        blob = wal[:k]
        intact = [i for i in range(3) if ends[i] <= k]
        hit_tail = True
        damaged = k not in (0, *ends)  # a cut on a boundary leaves none
    elif damage == "flip":
        k = data.draw(st.integers(0, len(wal) - 1))
        blob = bytearray(wal)
        blob[k] ^= data.draw(st.integers(1, 255))
        hit = int(np.searchsorted(ends, k, side="right"))
        intact = [i for i in range(3) if i != hit]
        hit_tail, damaged = hit == 2, True
    else:
        at = int(ends[data.draw(st.integers(0, 1))])
        src = frames[data.draw(st.integers(0, 2))]
        fragment = src[: data.draw(st.integers(1, len(src) - 1))]
        blob = wal[:at] + fragment + wal[at:]
        intact = [0, 1, 2]
        hit_tail, damaged = False, True

    with tempfile.TemporaryDirectory() as d:
        store = PlanStore(d)
        with open(store.wal_path, "wb") as fh:
            fh.write(bytes(blob))
        load = store.load()
    assert {keys[i] for i in intact} <= {p.key for p in load.plans}
    if not hit_tail:
        assert load.quarantined_torn == 0
    assert (load.quarantined > 0) == damaged


def test_fault_sites_corrupt_and_tear_records(tmp_path):
    d = str(tmp_path / "store")
    faults = parse_fault_spec("disk_corrupt@s:n=2;disk_torn_write@s:n=3")
    store = PlanStore(d, name="s", faults=faults)
    svc = SpGEMMService(plan_store=store)
    for s in (1, 2, 3):
        m = gen.rmat(6, 8, seed=s)
        svc.multiply(m, m)
    assert store.corrupt_writes == 1 and store.torn_writes == 1

    load = PlanStore(d).load()
    assert len(load.plans) == 1
    assert load.quarantined_corrupt == 1 and load.quarantined_torn == 1
    # Quarantined records are preserved for forensics, not deleted.
    q = str(tmp_path / "store" / "quarantine.jsonl")
    with open(q, "r", encoding="utf-8") as fh:
        assert len(fh.readlines()) == 2


def test_torn_write_does_not_swallow_next_append(tmp_path):
    d = str(tmp_path / "store")
    faults = parse_fault_spec("disk_torn_write@s:n=1")
    store = PlanStore(d, name="s", faults=faults)
    svc = SpGEMMService(plan_store=store)
    for s in (1, 2):
        m = gen.rmat(6, 8, seed=s)
        svc.multiply(m, m)
    # Frame 1 was torn; frame 2 must survive right after the fragment.
    # With a frame after it the tear is not a tail, so it is quarantined
    # as corrupt.
    load = PlanStore(d).load()
    assert len(load.plans) == 1 and load.quarantined == 1


@pytest.mark.parametrize("torn_at", [1, 3, 5])
def test_torn_put_loses_only_its_own_frame(tmp_path, torn_at):
    """``disk_torn_write`` armed on every store: the hit tears exactly one
    ``put``; every frame appended before and after it loads back."""
    keys, frames = _tiny_frames()
    keys, frames = keys[:5], frames[:5]
    d = str(tmp_path / "store")
    store = PlanStore(
        d, name="node-0", faults=parse_fault_spec(f"disk_torn_write@*:n={torn_at}")
    )
    for frame in frames:
        store.put(frame)
    assert store.appended == 5 and store.torn_writes == 1
    assert store.corrupt_writes == 0

    load = PlanStore(d).load()
    survivors = [k for i, k in enumerate(keys) if i != torn_at - 1]
    assert sorted(p.key for p in load.plans) == sorted(survivors)
    assert load.quarantined == 1
    # Only a torn *last* frame is a torn tail; one with frames after it
    # reads as corrupt.
    assert load.quarantined_torn == (1 if torn_at == 5 else 0)


def test_warm_skips_incompatible_and_rejects_damaged(tmp_path):
    d = str(tmp_path / "store")
    store = PlanStore(d)
    plan, svc = _cold_plan(gen.rmat(6, 8, seed=9))
    store.put(encode_plan(plan))
    # A foreign-compat record: stored fine, skipped silently at warm.
    foreign, _ = _cold_plan(gen.rmat(5, 8, seed=10))
    foreign.compat = "other-device|params"
    store.put(encode_plan(foreign))

    cache = PlanCache()
    assert store.warm(cache, compat=plan.compat) == 1
    assert cache.stats().entries == 1


# ---------------------------------------------------------------------------
# The read path: the store rung of the plan-source ladder
# ---------------------------------------------------------------------------
def _same_c(res, a, b):
    want = esc_multiply(a, b)
    c = res.c
    return (c.fingerprint(), c.fingerprint_values()) == (
        want.fingerprint(), want.fingerprint_values()
    )


def _evicted_store_service(tmp_path, faults=None, **kw):
    """A service whose store holds one plan its cache no longer does."""
    store = PlanStore(str(tmp_path / "store"), name="s", faults=faults)
    svc = SpGEMMService(plan_store=store, **kw)
    m = gen.rmat(6, 8, seed=1)
    first = svc.multiply(m, m)
    assert first.decisions["plan_source"] == "cold"
    svc.plans.clear()
    return svc, store, m


def test_evicted_plan_is_read_back_from_the_store(tmp_path):
    svc, store, m = _evicted_store_service(tmp_path)
    res = svc.multiply(m, m)
    assert res.decisions["plan_source"] == "store"
    assert res.decisions["plan_cache"] == "hit"
    plan = svc.plans.peek((m.fingerprint(), m.fingerprint()))
    assert res.decisions["plan_fetch_s"] == pytest.approx(
        plan_transfer_s(plan.nbytes())
    )
    assert _same_c(res, m, m)
    # No second frame for a plan the store already holds.
    assert store.appended == 1
    assert store.stats()["reads"] == 1 and "read_rejects" not in store.stats()
    again = svc.multiply(m, m)
    assert again.decisions["plan_source"] == "cache"
    assert "plan_fetch_s" not in again.decisions
    # The adaptive accumulators run off the read-back plan bit-identically.
    cold = SpGEMMService().multiply(m, m, mode="execute").c
    svc.plans.clear()
    read = svc.multiply(m, m, mode="execute")
    assert read.decisions["plan_source"] == "store"
    assert read.c.data.tobytes() == cold.data.tobytes()
    assert read.c.indices.tobytes() == cold.indices.tobytes()


def test_store_that_never_reads_back_reports_no_read_counters(tmp_path):
    svc = SpGEMMService(plan_store=PlanStore(str(tmp_path / "store")))
    m = gen.rmat(6, 8, seed=1)
    svc.multiply(m, m)
    svc.multiply(m, m)
    stats = svc.plan_store.stats()
    assert "reads" not in stats and "read_rejects" not in stats


@pytest.mark.parametrize(
    "spec, counter",
    [
        ("disk_corrupt@s:n=1", "quarantined_corrupt"),
        ("disk_torn_write@s:n=1", "quarantined_torn"),
    ],
)
def test_damaged_frame_read_back_is_quarantined_and_replanned(
    tmp_path, spec, counter
):
    svc, store, m = _evicted_store_service(tmp_path, parse_fault_spec(spec))
    res = svc.multiply(m, m)
    assert res.valid and _same_c(res, m, m)
    assert res.decisions["plan_source"] == "cold"
    stats = store.stats()
    assert stats["quarantined_corrupt"] + stats["quarantined_torn"] == 1
    assert stats[counter] == 1
    assert stats["reads"] == 1 and stats["read_rejects"] == 1
    with open(store.quarantine_path, encoding="utf-8") as fh:
        assert len(fh.readlines()) == 1
    # The cold re-plan appended a fresh frame, which serves the next miss.
    assert store.appended == 2
    svc.plans.clear()
    back = svc.multiply(m, m)
    assert back.decisions["plan_source"] == "store" and _same_c(back, m, m)
    assert store.appended == 2
    # A restart finds exactly the fresh frame.
    load = PlanStore(store.directory).load()
    assert [p.key for p in load.plans] == [(m.fingerprint(), m.fingerprint())]


def test_torn_tail_read_back_cuts_only_the_tear(tmp_path):
    svc, store, m = _evicted_store_service(
        tmp_path, parse_fault_spec("disk_torn_write@s:n=1")
    )
    torn_size = os.path.getsize(store.wal_path)
    svc.multiply(m, m)  # quarantines the tear, truncates it, appends
    frame = encode_plan(svc.plans.peek((m.fingerprint(), m.fingerprint())))
    with open(store.wal_path, "rb") as fh:
        assert fh.read() == frame
    assert torn_size < len(frame)


def test_reads_follow_compaction(tmp_path):
    store = PlanStore(str(tmp_path / "store"))
    svc = SpGEMMService(plan_store=store)
    mats = [gen.rmat(6, 8, seed=s) for s in (1, 2, 3)]
    for m in mats:
        svc.multiply(m, m)
    assert store.compact() == 3
    m4 = gen.rmat(6, 8, seed=4)
    svc.multiply(m4, m4)  # lands in the emptied WAL
    svc.plans.clear()
    for m in mats + [m4]:
        res = svc.multiply(m, m)
        assert res.decisions["plan_source"] == "store", m
        assert _same_c(res, m, m)
    assert store.stats()["reads"] == 4 and store.appended == 4


def test_reads_follow_a_torn_tail_truncated_at_load(tmp_path):
    keys, frames = _tiny_frames()
    store = PlanStore(str(tmp_path / "store"))
    with open(store.wal_path, "wb") as fh:
        fh.write(frames[0] + frames[1] + frames[2][: len(frames[2]) // 2])
    load = store.load()
    assert load.quarantined_torn == 1 and len(load.plans) == 2
    store.put(frames[3])  # lands where the tear was cut
    cache = PlanCache()
    for i in (0, 1, 3):
        plan = store.fetch(keys[i], cache, load.plans[0].compat)
        assert plan is not None and plan.key == keys[i], i
    assert store.fetch(keys[2], cache, load.plans[0].compat) is None
    assert store.reads == 3 and store.read_rejects == 0


def test_store_read_refuses_a_foreign_compat(tmp_path):
    m = gen.rmat(6, 8, seed=9)
    plan, _ = _cold_plan(m)
    plan.compat = "other-device|params"
    svc = SpGEMMService(plan_store=PlanStore(str(tmp_path / "store")))
    svc.plan_store.put(encode_plan(plan))
    res = svc.multiply(m, m)
    assert res.decisions["plan_source"] == "cold" and _same_c(res, m, m)
    assert svc.plan_store.read_rejects == 1
    assert svc.plans.stats().rejects == 1
    # The cold plan's frame replaces the foreign one in the index.
    svc.plans.clear()
    assert svc.multiply(m, m).decisions["plan_source"] == "store"


def test_full_request_is_never_served_a_non_full_stored_plan(tmp_path):
    m = gen.rmat(6, 8, seed=9)
    spec_svc = SpGEMMService(speculative=True)
    spec_svc.multiply(m, m)
    spec_plan = spec_svc.plans.peek((m.fingerprint(), m.fingerprint()))
    assert spec_plan.mode == "speculative"

    svc = SpGEMMService(plan_store=PlanStore(str(tmp_path / "full")))
    svc.plan_store.put(encode_plan(spec_plan))
    res = svc.multiply(m, m)  # full mode
    assert res.decisions["plan_source"] == "cold"
    assert "speculative" not in res.decisions
    assert svc.plan_store.read_rejects == 1
    assert svc.plans.peek(spec_plan.key).mode == "full"

    # A speculative request may take the stored speculative plan.
    spec2 = SpGEMMService(
        speculative=True, plan_store=PlanStore(str(tmp_path / "spec"))
    )
    spec2.plan_store.put(encode_plan(spec_plan))
    res = spec2.multiply(m, m)
    assert res.decisions["plan_source"] == "store"
    assert spec2.plan_store.read_rejects == 0


def test_churn_appends_at_most_one_frame_per_key(tmp_path):
    """A small budget evicts constantly; every evicted plan comes back
    from the store, so appends stay at the number of distinct keys."""
    mats = [gen.rmat(6, 8, seed=s) for s in range(8)]
    probe = SpGEMMService()
    for m in mats[:2]:
        probe.multiply(m, m)
    budget = probe.plans.bytes_cached  # about two plans
    store = PlanStore(str(tmp_path / "store"))
    svc = SpGEMMService(
        plan_cache_bytes=budget, plan_store=store, speculative=True
    )
    rng = np.random.default_rng(0)
    sources = []
    for i in rng.integers(0, len(mats), size=120):
        m = mats[i]
        res = svc.multiply(m, m)
        assert res.valid and _same_c(res, m, m)
        sources.append(res.decisions["plan_source"])
    assert svc.plans.stats().evictions > 0
    assert store.appended <= len(mats)
    assert sources.count("cold") == store.appended
    assert sources.count("store") == store.reads > 0


def test_plan_estimated_past_the_budget_skips_the_store(tmp_path):
    """A plan the cache could never retain is planned cold every time, as
    before the ladder (reading it back would only flush the cache), but
    its identical frame is appended once."""
    m = gen.rmat(6, 8, seed=1)
    store = PlanStore(str(tmp_path / "store"))
    svc = SpGEMMService(plan_cache_bytes=64, plan_store=store, speculative=True)
    for _ in range(3):
        res = svc.multiply(m, m)
        assert res.decisions["plan_source"] == "cold" and _same_c(res, m, m)
    assert store.reads == 0 and svc.plans.stats().extra["budget_rejects"] == 3
    assert store.appended == 1


def test_store_holds_one_descriptor_and_reopens_after_compaction(tmp_path):
    keys, frames = _tiny_frames()
    store = PlanStore(str(tmp_path / "store"))
    for frame in frames[:3]:
        store.put(frame)
    (wal,) = store._files.values()
    cache = PlanCache()
    compat = decode_plan(frames[0])[1]
    for key in keys[:3]:
        assert store.fetch(key, cache, compat) is not None
    assert list(store._files.values()) == [wal]
    store.compact()
    assert wal.closed and store._files == {}
    cache.clear()
    assert store.fetch(keys[0], cache, compat) is not None
    assert list(store._files) == [store.snapshot_path]
    store.close()


# ---------------------------------------------------------------------------
# Brownout ladder
# ---------------------------------------------------------------------------
def test_brownout_mode_rungs():
    ctrl = AdmissionController(TITAN_V)
    depth = ctrl.policy.max_queue_depth
    assert ctrl.brownout_mode(queue_depth=0, committed_bytes=0).mode == "full"
    assert (
        ctrl.brownout_mode(queue_depth=depth // 2, committed_bytes=0).mode
        == "lb_fallback"
    )
    assert (
        ctrl.brownout_mode(
            queue_depth=0, committed_bytes=int(0.9 * ctrl.memory_limit)
        ).mode
        == "minimal"
    )
    assert ctrl.brownout_modes == {"full": 1, "lb_fallback": 1, "minimal": 1}


def test_brownout_rungs_bit_identical_in_execute_mode():
    a = gen.rmat(7, 8, seed=11)
    ctrl = AdmissionController(TITAN_V)
    outs = {}
    for mode, depth in (("full", 0), ("lb_fallback", 140), ("minimal", 230)):
        svc = SpGEMMService()
        info = ctrl.brownout_mode(queue_depth=depth, committed_bytes=0)
        assert info.mode == mode
        res = svc.multiply(a, a, mode="execute", brownout=info)
        assert res.valid
        outs[mode] = res
    base = outs["full"].c
    for mode in ("lb_fallback", "minimal"):
        c = outs[mode].c
        assert np.array_equal(base.indptr, c.indptr)
        assert np.array_equal(base.indices, c.indices)
        assert np.array_equal(base.data, c.data)
    # Degraded results carry the structured decision record.
    assert outs["minimal"].decisions["brownout"]["mode"] == "minimal"
    assert "brownout" not in outs["full"].decisions


def test_degraded_plan_refined_on_full_request():
    a = gen.rmat(6, 8, seed=12)
    svc = SpGEMMService()
    ctrl = AdmissionController(TITAN_V)
    info = ctrl.brownout_mode(queue_depth=230, committed_bytes=0)
    assert info.mode == "minimal"
    svc.multiply(a, a, brownout=info)  # cold, planned minimally
    key = (a.fingerprint(), a.fingerprint())
    assert svc.plans.peek(key).mode == "minimal"
    # A full-pressure request re-plans (refines) rather than serving the
    # degraded plan forever.
    res = svc.multiply(a, a)
    assert res.decisions["plan_cache"] == "miss"
    assert svc.plans.stats().refines == 1
    assert svc.plans.peek(key).mode == "full"
    # And from here on it hits.
    assert svc.multiply(a, a).decisions["plan_cache"] == "hit"


# ---------------------------------------------------------------------------
# Circuit breaker + retry budget units
# ---------------------------------------------------------------------------
def test_breaker_opens_after_threshold_failures():
    # Defaults: 4 failures in the window open it for a 0.05 s cool-down.
    brk = CircuitBreaker()
    now = 0.0
    for _ in range(3):
        brk.record(False, now)
    assert brk.state == "closed" and brk.can_accept(now)
    brk.record(False, now)
    assert brk.state == "open"
    assert not brk.can_accept(now + 0.025)
    assert brk.can_accept(now + 0.05)


def test_breaker_half_open_probe_closes_or_reopens():
    brk = CircuitBreaker()
    for _ in range(4):
        brk.record(False, 0.0)
    assert brk.state == "open"
    brk.on_dispatch(0.075)
    assert brk.state == "half_open" and brk.probe_inflight
    assert not brk.can_accept(0.075)  # one probe at a time
    brk.record(True, 0.08)
    assert brk.state == "closed"
    assert brk.transitions == {"open": 1, "half_open": 1, "closed": 1}

    for _ in range(4):
        brk.record(False, 0.1)
    brk.on_dispatch(0.175)
    brk.record(False, 0.18)  # failed probe re-opens for another cooldown
    assert brk.state == "open" and not brk.can_accept(0.2)


def test_breaker_window_is_rolling(monkeypatch):
    monkeypatch.setattr(cluster_router, "BREAKER_WINDOW", 4)
    brk = CircuitBreaker()
    outcomes = [False, False, False, True, False, False, False]
    for ok in outcomes:
        brk.record(ok, 0.0)
    # Six failures, but never the threshold's 4 inside the last 4
    # outcomes: still closed.
    assert brk.state == "closed"


def test_retry_budget_caps_and_grows_with_traffic():
    # Defaults: 10 tokens plus 0.2 per request seen.
    budget = RetryBudget()
    for _ in range(10):
        assert budget.try_spend()
    assert not budget.try_spend()
    assert budget.denied == 1
    for _ in range(10):
        budget.note_request()
    assert budget.allowance == 12
    assert budget.try_spend() and budget.try_spend()
    assert not budget.try_spend()
    assert budget.snapshot() == {"allowance": 12, "spent": 12, "denied": 2}


# ---------------------------------------------------------------------------
# Baseline retry backoff (seeded jitter)
# ---------------------------------------------------------------------------
def test_baseline_retry_charges_backoff_deterministically():
    from repro.baselines.nsparse import Nsparse
    from repro.core.context import MultiplyContext

    a = gen.rmat(6, 8, seed=13)

    def run_once():
        ctx = MultiplyContext(a, a)
        ctx.faults = parse_fault_spec("alloc@nsparse:transient")
        ctx.case_name = "jitter"
        return Nsparse().run(ctx)

    r1, r2 = run_once(), run_once()
    assert r1.valid and r1.retries == 1
    assert r1.decisions["attempts"] == 2
    assert r1.decisions["retry_backoff_s"] > 0
    assert r1.stage_times["retry"] > r1.decisions["retry_backoff_s"]
    # Deterministic: same run, same jitter, bit-equal times.
    assert r1.time_s == r2.time_s
    assert r1.decisions["retry_backoff_s"] == r2.decisions["retry_backoff_s"]


# ---------------------------------------------------------------------------
# Warm restart through serve-bench
# ---------------------------------------------------------------------------
def _small_cases():
    def case(name, fn, *args, **kw):
        return MatrixCase(name=name, family="t", build_a=lambda: fn(*args, **kw))

    return [
        case("r7", gen.rmat, 7, 8, seed=1),
        case("r8", gen.rmat, 8, 6, seed=2),
        case("mesh", gen.poisson2d, 12),
        case("er", gen.random_uniform, 300, 300, 6.0, seed=3),
    ]


def test_warm_restart_beats_cold_start(tmp_path):
    d = str(tmp_path / "store")
    spec = WorkloadSpec(rate=4000.0, duration_s=0.05, seed=4)
    cold = run_serve_bench(cases=_small_cases(), spec=spec, plan_store_dir=d)
    warm = run_serve_bench(cases=_small_cases(), spec=spec, plan_store_dir=d)
    assert cold.warm_plans == 0
    assert warm.warm_plans == len(_small_cases())
    assert warm.first_100_hit_rate > cold.first_100_hit_rate
    assert warm.first_100_hit_rate == 1.0
    assert warm.config["plan_store"] is True


def _one_plan_budget(cases):
    """A plan-cache budget that holds the largest of ``cases``' plans."""
    sizes = []
    for case in cases:
        probe = SpGEMMService()
        probe.multiply(*case.matrices())
        sizes.append(probe.plans.bytes_cached)
    return max(sizes)


def test_serve_bench_read_path_meets_disk_damage(tmp_path):
    """Under churn every evicted plan is read back, so the damaged frames
    are met by reads: quarantined, re-planned cold, never a wrong C."""
    cases = _small_cases()
    spec = WorkloadSpec(rate=4000.0, duration_s=0.05, seed=4)
    report = run_serve_bench(
        cases=cases,
        spec=spec,
        plan_cache_bytes=_one_plan_budget(cases),
        plan_store_dir=str(tmp_path / "store"),
        faults=parse_fault_spec("disk_corrupt:n=1;disk_torn_write:n=4"),
        speculative=True,
    )
    store = report.metrics["plan_store"]
    assert report.wrong_results == 0 and report.bit_identical
    assert report.failed == 0
    assert store["corrupt_writes"] == 1 and store["torn_writes"] == 1
    # Both damaged frames were read back and refused; the load never ran
    # over them (the store started empty).
    assert store["read_rejects"] == 2 and store["replayed"] == 0
    # A tear with a later frame after it reads as corrupt, as at load.
    assert store["quarantined_corrupt"] + store["quarantined_torn"] == 2
    # Each damaged key was planned cold once more and appended afresh.
    assert store["appended"] == len(cases) + 2
    assert store["reads"] > store["read_rejects"]
    assert "plan sources: " in report.render()


# ---------------------------------------------------------------------------
# Cluster chaos: crash + corruption + degrade, deterministically
# ---------------------------------------------------------------------------
_CHAOS_FAULTS = "node_crash@node-1:n=40;node_degrade@node-2;disk_corrupt@node-0:n=2"


def _chaos_run(store_dir):
    spec = WorkloadSpec(rate=20_000.0, duration_s=0.1, timeout_s=0.25, seed=3)
    cluster = ClusterSpec(queue_depth=16, plan_store_dir=store_dir)
    return run_cluster_bench(
        spec=spec,
        cluster=cluster,
        faults=parse_fault_spec(_CHAOS_FAULTS),
        compare_single=False,
    )


def test_cluster_read_path_meets_disk_damage(tmp_path):
    """Fleet nodes whose caches hold one plan read evicted plans back from
    their stores; the corrupted frame is met there, never served."""
    cases = serve_corpus()
    spec = WorkloadSpec(rate=3000.0, duration_s=0.1, timeout_s=0.25, seed=3)
    cluster = ClusterSpec(
        n_nodes=2,
        plan_cache_mb=_one_plan_budget(cases) / 1e6,
        plan_store_dir=str(tmp_path),
    )
    r = run_cluster_bench(
        spec=spec,
        cluster=cluster,
        faults=parse_fault_spec("disk_corrupt@node-0:n=1"),
        compare_single=False,
    )
    assert r.wrong_results == 0 and r.bit_identical and r.conservation_ok
    assert r.failed == 0
    assert r.plan_store["corrupt_writes"] == 1
    assert r.plan_store["read_rejects"] == r.plan_store["quarantined_corrupt"] == 1
    assert r.plan_store["reads"] > 1
    # The refused key was planned cold once more: one extra append.
    assert r.plan_store["appended"] == len(cases) + 1


def test_cluster_chaos_correct_and_deterministic(tmp_path):
    r1 = _chaos_run(str(tmp_path / "a"))
    # Zero wrong results under crash + corruption + degradation.
    assert r1.wrong_results == 0 and r1.bit_identical
    assert r1.conservation_ok
    assert r1.crashes >= 1 and r1.degrades >= 1
    # The persistent degrade opens node-2's breaker.
    assert r1.breaker_opens >= 1
    assert r1.breakers["node-2"]["opens"] >= 1
    # The injected corruption reached node-0's WAL.
    assert r1.plan_store["corrupt_writes"] >= 1
    # Byte-identical report across two runs of the same seed.
    r2 = _chaos_run(str(tmp_path / "b"))
    assert r1.to_json() == r2.to_json()


def test_cluster_warm_restart_and_quarantine(tmp_path):
    d = str(tmp_path / "store")
    first = _chaos_run(d)
    assert first.plan_store["appended"] >= 1
    second = _chaos_run(d)
    # The restarted fleet warm-adopts surviving plans and quarantines the
    # record the first run corrupted.
    assert second.warm_plans >= 1
    assert second.plan_store["quarantined_corrupt"] >= 1
    assert second.first_100_hit_rate > first.first_100_hit_rate
    assert second.wrong_results == 0 and second.conservation_ok


def test_cluster_brownout_fires_under_pressure(monkeypatch):
    # Narrow queues + a slow single node: queue_frac crosses the ladder.
    monkeypatch.setattr(cluster_bench, "MAX_RETRIES", 2)
    spec = WorkloadSpec(rate=30_000.0, duration_s=0.05, timeout_s=0.25, seed=5)
    cluster = ClusterSpec(n_nodes=2, queue_depth=10, spill_queue_depth=12)
    report = run_cluster_bench(
        spec=spec, cluster=cluster, compare_single=False
    )
    degraded = sum(
        v for k, v in report.brownouts.items() if k != "full"
    )
    assert degraded > 0
    assert report.wrong_results == 0 and report.conservation_ok
