"""The benchmark's own tests.

    python3 -m pytest -q twoclock/tests
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.eval.harness import EvalResult, MatrixRecord, RunRecord
from repro.matrices import generators as gen
from repro.matrices.csr import CSR
from repro.serve import ServeScheduler, SpGEMMService

from twoclock import spans
from twoclock.judge import Reference, combine, judge_requests, judge_suite
from twoclock.layers import PER_LAYER, ROOT as ROOT_SPAN, probes
from twoclock.run import END_TO_END
from twoclock.spans import SpanRecorder, Tracer
from twoclock.workloads import ServeHot, arrivals

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ---------------------------------------------------------------------------
# self-time arithmetic
# ---------------------------------------------------------------------------
def test_self_time_on_nested_tree(monkeypatch):
    """root [0, 100] > a [10, 60] > (a1 [15, 25], a2 [30, 50]); root > b [70, 90]."""
    ticks = iter([0, 10, 15, 25, 30, 50, 60, 70, 90, 100])
    monkeypatch.setattr(spans, "_now", lambda: next(ticks))
    rec = SpanRecorder()
    root = rec.open(rec.name_id("root"))
    a = rec.open(rec.name_id("a"), new_op=True)
    a1 = rec.open(rec.name_id("a1"))
    rec.close(a1)
    a2 = rec.open(rec.name_id("a2"))
    rec.close(a2)
    rec.close(a)
    b = rec.open(rec.name_id("b"), new_op=True)
    rec.close(b)
    rec.close(root)
    assert list(rec.durations_ns()) == [100, 50, 10, 20, 20]
    # root: 100 - (50 + 20); a: 50 - (10 + 20); leaves keep their duration.
    assert list(rec.self_ns()) == [30, 20, 10, 20, 20]
    assert rec.self_ns().sum() == rec.durations_ns()[root]
    assert list(rec.parent) == [-1, 0, 1, 1, 0]
    # Children inherit their op's id; spans outside every op carry -1.
    assert list(rec.op) == [-1, 0, 0, 0, 1]


def test_close_out_of_order_raises():
    rec = SpanRecorder()
    outer = rec.open(rec.name_id("outer"))
    rec.open(rec.name_id("inner"))
    with pytest.raises(RuntimeError):
        rec.close(outer)


# ---------------------------------------------------------------------------
# wrapping and restoring binding sites
# ---------------------------------------------------------------------------
def _binding(site, name):
    return vars(site)[name]


def test_traced_replay_restores_every_binding(tmp_path):
    wl = ServeHot(str(tmp_path))
    wl.RATE = 400.0
    wl.setup(seed=3)
    rec = SpanRecorder()
    tracer = Tracer(probes(), rec)
    originals = [(site, name, _binding(site, name)) for site, name, _ in tracer.sites]
    # Names imported by value are wrapped where they were copied too.
    kernel_sites = [s for s in tracer.sites if s[1] == "kernel_time_s"]
    assert len(kernel_sites) > 5
    with tracer:
        assert all(_binding(site, name) is not fn for site, name, fn in originals)
        idx = rec.open(rec.name_id(ROOT_SPAN))
        out = wl.replay()
        rec.close(idx)
    for site, name, fn in originals:
        assert _binding(site, name) is fn, f"{site}.{name} not restored"
    assert len(rec) > len(out)
    assert wl.judge(out).correct


# ---------------------------------------------------------------------------
# metric names against BENCHMARK.json
# ---------------------------------------------------------------------------
def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_catalog_matches_benchmark_json():
    spec = _spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert dict(END_TO_END) == e2e
    assert dict(PER_LAYER) == layer
    for name in list(e2e) + list(layer):
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} >= {"serve-hot"}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_named_in_benchmark_json(trace):
    proc = subprocess.run(
        [sys.executable, "twoclock/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    spec = _spec()
    catalog = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == set(catalog)
    for name, m in result["metrics"].items():
        assert NAME.fullmatch(name), name
        assert m["unit"] == catalog[name]
        assert isinstance(m["value"], float)


def test_missing_sources_exit_nonzero(tmp_path):
    bench = tmp_path / "twoclock"
    bench.mkdir()
    for f in (ROOT / "twoclock").glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run(
        [sys.executable, "twoclock/run.py", "--workload", "serve-hot",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


# ---------------------------------------------------------------------------
# the judge
# ---------------------------------------------------------------------------
def _small_replay():
    a = gen.rmat(7, 4, seed=5)
    b = gen.random_uniform(128, 128, 3.0, seed=6)
    pairs = [("aa", a, a), ("ab", a, b)]
    requests = arrivals(pairs, rate=2000.0, duration_s=0.02, alpha=1.1, seed=2)
    scheduler = ServeScheduler(SpGEMMService(), n_workers=2)
    return requests, scheduler.run(requests), Reference(pairs)


def _corrupted(c: CSR) -> CSR:
    data = c.data.copy()
    data[len(data) // 2] += 1.0
    return CSR(c.indptr.copy(), c.indices.copy(), data, c.shape)


def test_judge_accepts_correct_outputs():
    requests, outcomes, ref = _small_replay()
    v = judge_requests(requests, outcomes, ref)
    assert v.correct and v.ok == len(requests) and v.failed == 0


def test_judge_fails_a_corrupted_c():
    requests, outcomes, ref = _small_replay()
    victim = next(o for o in outcomes if o.ok)
    victim.result.c = _corrupted(victim.result.c)
    v = judge_requests(requests, outcomes, ref)
    assert not v.correct
    assert v.wrong == 1 and v.ok == len(requests) - 1


def test_judge_fails_a_lost_request():
    requests, outcomes, ref = _small_replay()
    v = judge_requests(requests, outcomes[:-1], ref)
    assert not v.correct and v.problems


def test_replay_split_into_calls_judges_as_one():
    requests, outcomes, ref = _small_replay()
    half = len(requests) // 2
    ids = {r.id for r in requests[:half]}
    parts = [
        judge_requests(requests[:half], [o for o in outcomes if o.request_id in ids], ref),
        judge_requests(requests[half:], [o for o in outcomes if o.request_id not in ids], ref),
    ]
    whole = judge_requests(requests, outcomes, ref)
    v = combine(parts)
    assert (v.ops, v.ok, v.failed) == (whole.ops, whole.ok, whole.failed) and v.correct
    assert sorted(v.model_latency_s) == sorted(whole.model_latency_s)
    victim = next(o for o in outcomes if o.ok and o.request_id not in ids)
    victim.result.c = _corrupted(victim.result.c)
    parts[1] = judge_requests(
        requests[half:], [o for o in outcomes if o.request_id not in ids], ref
    )
    assert not combine(parts).correct


def test_suite_judge_fails_a_wrong_nnz():
    a = gen.banded(200, 3, seed=1)
    ref = Reference([("band", a, a)])
    nnz, products = ref.nnz("band"), ref.products("band")
    record = MatrixRecord("band", "banded", 200, 200, a.nnz, products, nnz, 7)
    run = RunRecord("band", "spECK", 1e-5, 1, True, True, {"numeric": 1e-5})
    good = EvalResult(matrices={"band": record}, runs=[run])
    assert judge_suite(good, ref).correct
    record.nnz_c = nnz - 1
    assert not judge_suite(good, ref).correct


def test_reference_matches_scipy():
    a = gen.rmat(8, 6, seed=9)
    c = Reference([("r", a, a)]).c("r")
    dense = a.to_dense() @ a.to_dense()
    assert np.allclose(c.to_dense(), dense)


# ---------------------------------------------------------------------------
# host-speed calibration
# ---------------------------------------------------------------------------
def test_reference_seconds_scale_with_kernel_time():
    from twoclock.calibrate import KERNEL_RUNS, REFERENCE_S, timed, to_reference

    # A core running the kernel at half speed doubles every wall time;
    # in reference seconds the call costs the same.
    assert to_reference(2.0, 2 * REFERENCE_S) == pytest.approx(to_reference(1.0, REFERENCE_S))
    assert to_reference(1.0, REFERENCE_S) == pytest.approx(1.0)
    out, t = timed(lambda: sum(range(1000)), keep=lambda s: s + 1)
    assert out == 499501 and t.wall_s > 0
    assert len(t.before) == len(t.after) == KERNEL_RUNS


def test_kernel_time_ignores_one_slow_run_per_side():
    from twoclock.calibrate import Timing

    # One preempted kernel run on either side does not move the figure.
    t = Timing(1.0, [0.005, 0.011, 0.005], [0.012, 0.006, 0.006])
    assert t.kernel_s == pytest.approx(0.0055)
