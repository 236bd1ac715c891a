"""The suite worker pool's record transport, crash recovery and results.

Records cross the process boundary inside checksummed Plan-IR frames
that reject corruption; a worker dying mid-sweep can neither lose a case
nor checkpoint one twice; and a sweep returns exactly the requested
cases, in corpus order, however many came from a checkpoint.
"""

import json
import os

import pytest

from repro.eval import run_suite, small_corpus
from repro.eval.harness import effective_workers
from repro.eval import harness as harness_mod
from repro.serve.plan_ir import PlanIRError, decode_record, encode_record


def _dicts(result):
    return (
        [m.as_dict() for m in result.matrices.values()],
        [r.as_dict() for r in result.runs],
    )


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


@pytest.mark.usefixtures("four_cores")
class TestPoolRecovery:
    def test_worker_crash_mid_chunk_recovers(self, tmp_path):
        cp = os.path.join(tmp_path, "crash.jsonl")
        harness_mod._CRASH_CASES.add("rmat_small")
        try:
            res = run_suite(small_corpus(), workers=2, checkpoint=cp)
        finally:
            harness_mod._CRASH_CASES.discard("rmat_small")
        seq = run_suite(small_corpus())
        assert json.dumps(_dicts(res)) == json.dumps(_dicts(seq))
        # Every case made it to the checkpoint exactly once despite the
        # dead worker, so a rerun resumes cleanly with nothing left to do.
        with open(cp, "r", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert len(entries) == len(seq.matrices)
        assert {e["matrix"]["name"] for e in entries} == set(seq.matrices)
        resumed = run_suite(small_corpus(), workers=2, checkpoint=cp)
        assert json.dumps(_dicts(resumed)) == json.dumps(_dicts(seq))

    def test_all_workers_crash_parent_finishes_inline(self):
        for case in small_corpus():
            harness_mod._CRASH_CASES.add(case.name)
        try:
            res = run_suite(small_corpus(), workers=2)
        finally:
            harness_mod._CRASH_CASES.clear()
        seq = run_suite(small_corpus())
        assert json.dumps(_dicts(res)) == json.dumps(_dicts(seq))

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_sweep_matches_sequential_records(self, workers):
        # Workers build each case's operands themselves and send back
        # records only: no result, and no unbuilt C, leaves a worker.
        par = run_suite(small_corpus(), workers=workers)
        seq = run_suite(small_corpus(), workers=1)
        assert json.dumps(_dicts(par)) == json.dumps(_dicts(seq))


@pytest.mark.usefixtures("four_cores")
class TestResultCases:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_returns_only_requested_cases_in_corpus_order(
        self, tmp_path, workers
    ):
        cp = os.path.join(tmp_path, "partial.jsonl")
        corpus = small_corpus()
        names = [c.name for c in corpus]
        run_suite(corpus[:3], checkpoint=cp, workers=workers)
        part = run_suite(corpus[3:5], checkpoint=cp, workers=workers)
        assert list(part.matrices) == names[3:5]
        assert {r.matrix for r in part.runs} == set(names[3:5])
        # Checkpointed cases (0-4) interleave with fresh ones (5-8) in
        # corpus order, exactly as a sweep without a checkpoint.
        full = run_suite(small_corpus(), checkpoint=cp, workers=workers)
        seq = run_suite(small_corpus())
        assert json.dumps(_dicts(full)) == json.dumps(_dicts(seq))


class TestWorkerClamp:
    def test_effective_workers_clamps_to_cpu_count(self):
        n = os.cpu_count() or 1
        assert effective_workers(10_000) == n
        assert effective_workers(1) == 1
        assert effective_workers(0) == 1

    def test_run_suite_clamps_by_default(self, monkeypatch):
        # On a single-core view, workers=4 must take the sequential path
        # and never build a pool.
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        sentinel = object()
        monkeypatch.setattr(harness_mod, "ProcessPoolExecutor", sentinel)
        res = run_suite(small_corpus(), workers=4)  # would raise if pooled
        assert len(res.runs) > 0
