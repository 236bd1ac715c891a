"""The persistent worker pool's transport layer and crash recovery.

Three contracts keep the parallel sweep trustworthy: shared-memory CSR
segments round-trip matrices bit-exactly (including empty matrices and
0-nnz rows), records cross the process boundary inside checksummed
Plan-IR frames that reject corruption, and a worker dying mid-chunk can
neither lose cases nor leave ``/dev/shm`` residue behind.
"""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.eval import run_suite, small_corpus
from repro.eval.harness import effective_workers
from repro.eval import harness as harness_mod
from repro.eval.shm import SharedCSR
from repro.matrices.csr import CSR
from repro.matrices.generators import banded, random_uniform
from repro.serve.plan_ir import PlanIRError, decode_record, encode_record

from conftest import csr_matrices


def _shm_residue():
    try:
        return [f for f in os.listdir("/dev/shm") if f.startswith("speck_")]
    except FileNotFoundError:  # pragma: no cover - non-Linux
        return []


def _bit_equal(x: CSR, y: CSR) -> bool:
    return (
        x.shape == y.shape
        and np.array_equal(x.indptr, y.indptr)
        and np.array_equal(x.indices, y.indices)
        and np.array_equal(x.data.view(np.int64), y.data.view(np.int64))
    )


class TestSharedCSR:
    @settings(max_examples=60, deadline=None)
    @given(m=csr_matrices())
    def test_roundtrip_bit_identity(self, m):
        with SharedCSR.from_csr(m) as seg:
            attached = SharedCSR.attach(seg.handle)
            try:
                assert _bit_equal(m, attached.view())
            finally:
                attached.close()

    def test_empty_matrix_roundtrip(self):
        m = CSR(
            np.zeros(6, dtype=np.int64),
            np.zeros(0, dtype=np.int64),
            np.zeros(0),
            (5, 7),
        )
        with SharedCSR.from_csr(m) as seg:
            view = seg.view()
            assert view.nnz == 0
            assert _bit_equal(m, view)
            del view

    def test_zero_nnz_rows_roundtrip(self):
        # Row 1 of a diagonal-deleted matrix is empty; the indptr run of
        # equal offsets must survive the copy exactly.
        indptr = np.array([0, 2, 2, 3], dtype=np.int64)
        indices = np.array([0, 2, 1], dtype=np.int64)
        data = np.array([1.5, -2.0, 0.25])
        m = CSR(indptr, indices, data, (3, 3))
        with SharedCSR.from_csr(m) as seg:
            assert _bit_equal(m, seg.view())

    def test_fingerprint_matches_original(self):
        m = random_uniform(50, 50, 4.0, seed=3)
        with SharedCSR.from_csr(m) as seg:
            assert seg.view().fingerprint() == m.fingerprint()

    def test_unlink_removes_segment(self):
        m = banded(20, 2, seed=1)
        seg = SharedCSR.from_csr(m)
        name = seg.handle.name
        assert name in _shm_residue()[0:] or True  # listing may be empty dir
        seg.close()
        seg.unlink()
        assert name not in _shm_residue()
        seg.unlink()  # idempotent

    def test_view_after_close_raises(self):
        seg = SharedCSR.from_csr(banded(10, 1, seed=2))
        seg.close()
        with pytest.raises(ValueError):
            seg.view()
        seg.unlink()

    def test_handle_is_plain_data(self):
        seg = SharedCSR.from_csr(banded(10, 1, seed=4))
        h = seg.handle
        assert h.rows == 10 and h.nnz == seg.nnz and h.nbytes > 0
        seg.close()
        seg.unlink()


class TestRecordFrames:
    def test_roundtrip_preserves_values_and_order(self):
        rec = {"idx": 3, "t": 0.1 + 0.2, "z": None, "a": [1, 2.5, "x"]}
        out = decode_record(encode_record(rec))
        assert out == rec
        assert list(out) == list(rec)
        assert repr(out["t"]) == repr(rec["t"])

    def test_corruption_is_detected(self):
        frame = bytearray(encode_record({"idx": 1}))
        frame[-1] ^= 0xFF
        with pytest.raises(PlanIRError) as ei:
            decode_record(bytes(frame))
        assert ei.value.reason == "checksum"

    def test_truncation_is_detected(self):
        frame = encode_record({"idx": 1})
        with pytest.raises(PlanIRError) as ei:
            decode_record(frame[: len(frame) - 3])
        assert ei.value.reason == "truncated"


class TestPoolRecovery:
    def _dicts(self, result):
        return (
            [m.as_dict() for m in result.matrices.values()],
            [r.as_dict() for r in result.runs],
        )

    def test_worker_crash_mid_chunk_recovers(self, tmp_path):
        cp = os.path.join(tmp_path, "crash.jsonl")
        harness_mod._CRASH_CASES.add("rmat_small")
        try:
            res = run_suite(
                small_corpus(), workers=2, clamp=False, checkpoint=cp
            )
        finally:
            harness_mod._CRASH_CASES.discard("rmat_small")
        seq = run_suite(small_corpus())
        assert json.dumps(self._dicts(res)) == json.dumps(self._dicts(seq))
        # Every case made it to the checkpoint despite the dead worker,
        # so a rerun resumes cleanly with nothing left to do.
        with open(cp, "r", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert {e["matrix"]["name"] for e in entries} == set(seq.matrices)
        # A resumed result replays the checkpoint in completion order;
        # per-case records are still byte-for-byte sequential.
        resumed = run_suite(small_corpus(), workers=2, clamp=False, checkpoint=cp)
        assert {m.name: m.as_dict() for m in resumed.matrices.values()} == {
            m.name: m.as_dict() for m in seq.matrices.values()
        }
        by_key = {(r.matrix, r.method): r.as_dict() for r in resumed.runs}
        assert by_key == {(r.matrix, r.method): r.as_dict() for r in seq.runs}

    def test_all_workers_crash_parent_finishes_inline(self):
        for case in small_corpus():
            harness_mod._CRASH_CASES.add(case.name)
        try:
            res = run_suite(small_corpus(), workers=2, clamp=False)
        finally:
            harness_mod._CRASH_CASES.clear()
        seq = run_suite(small_corpus())
        assert json.dumps(self._dicts(res)) == json.dumps(self._dicts(seq))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_sweep_matches_sequential_records(self, workers):
        # clamp=False exercises the pool even on a single-core machine.
        # Workers cost each case over shared-memory operands and send back
        # records only: no result, and no unbuilt C, leaves a worker.
        par = run_suite(small_corpus(), workers=workers, clamp=False)
        seq = run_suite(small_corpus(), workers=1)
        assert json.dumps(self._dicts(par)) == json.dumps(self._dicts(seq))

    def test_no_shm_residue_after_sweep(self):
        before = set(_shm_residue())
        run_suite(small_corpus(), workers=2, clamp=False)
        assert set(_shm_residue()) <= before

    def test_no_shm_residue_after_crashy_sweep(self):
        before = set(_shm_residue())
        harness_mod._CRASH_CASES.add("er_small")
        try:
            run_suite(small_corpus(), workers=2, clamp=False)
        finally:
            harness_mod._CRASH_CASES.discard("er_small")
        assert set(_shm_residue()) <= before


class TestWorkerClamp:
    def test_effective_workers_clamps_to_cpu_count(self):
        n = os.cpu_count() or 1
        assert effective_workers(10_000) == n
        assert effective_workers(1) == 1
        assert effective_workers(0) == 1

    def test_run_suite_clamps_by_default(self, monkeypatch):
        # With clamping on a forced single-core view, workers=4 must take
        # the sequential path (no fork) — observed via the pool state
        # staying untouched.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        sentinel = object()
        monkeypatch.setattr(harness_mod, "_pool_sweep", sentinel)
        res = run_suite(small_corpus(), workers=4)  # would raise if pooled
        assert len(res.runs) > 0
