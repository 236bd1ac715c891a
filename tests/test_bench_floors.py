"""The speedup floors of ``benchmarks/bench_wallclock.py``'s ``--baseline``
guard, fed hand-built result dicts: each floor fires on its own, and an
explicit single-core skip of the pool comparison passes."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

BENCH = Path(__file__).parent.parent / "benchmarks" / "bench_wallclock.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_wallclock", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(execute=6.0, estimate=1.3, suite=None):
    return {
        "execute": {"speedup": execute, "batched_s": 1.0},
        "estimate": {"speedup": estimate, "estimate_s": 1.0},
        "suite": suite or {"speedup": 1.5, "effective_workers": 4},
    }


def test_passing_report_has_no_failures(bench):
    assert bench.speedup_floor_failures(_report()) == []
    assert bench.speedup_floor_failures(_report(execute=5.0)) == []


@pytest.mark.parametrize(
    "report, message",
    [
        (_report(execute=4.99), "execute speedup 4.99x < 5x"),
        (_report(estimate=1.0), "sampled estimation 1.00x must beat exact analysis"),
        (
            _report(suite={"speedup": 1.2, "effective_workers": 4}),
            "suite pool speedup 1.20x < 1.2x (4 workers)",
        ),
        (
            _report(suite={"skipped": "single-core", "effective_workers": 2}),
            "suite pool leg skipped ('single-core', 2 workers); "
            "only a single-core run may skip it",
        ),
        (
            _report(suite={"skipped": "no-reason", "effective_workers": 1}),
            "suite pool leg skipped ('no-reason', 1 workers); "
            "only a single-core run may skip it",
        ),
    ],
)
def test_each_floor_fires(bench, report, message):
    assert bench.speedup_floor_failures(report) == [message]


def test_single_core_skip_passes(bench):
    report = _report(suite={"skipped": "single-core", "effective_workers": 1})
    assert bench.speedup_floor_failures(report) == []


def test_all_floors_report_together(bench):
    report = _report(
        execute=1.0, estimate=0.5,
        suite={"speedup": 0.9, "effective_workers": 2},
    )
    assert len(bench.speedup_floor_failures(report)) == 3


@pytest.mark.parametrize("execute, code", [(6.0, 0), (4.0, 1)])
def test_baseline_guard_exits_on_a_missed_floor(
    bench, monkeypatch, tmp_path, capsys, execute, code
):
    """``--baseline`` runs the floors after the regression checks."""
    report = _report(execute=execute)
    monkeypatch.setattr(bench, "small_corpus", lambda: [])
    monkeypatch.setattr(
        bench, "bench_execute",
        lambda cases, repeats: dict(report["execute"], scalar_s=6.0),
    )
    monkeypatch.setattr(
        bench, "bench_model", lambda cases, repeats: {"total_s": 1.0, "cases": 0}
    )
    monkeypatch.setattr(
        bench, "bench_estimate",
        lambda cases, repeats: dict(report["estimate"], analyze_s=1.3),
    )
    monkeypatch.setattr(
        bench, "bench_cold_pass",
        lambda repeats: {"median_s": 1.0, "iqr_s": 0.1, "per_call_us": 1.0,
                         "calls": 1},
    )
    monkeypatch.setattr(
        bench, "bench_suite",
        lambda make_cases, workers: dict(report["suite"], sequential_s=1.0,
                                         parallel_s=0.6),
    )
    baseline = tmp_path / "base.json"
    baseline.write_text(json.dumps(report))
    rc = bench.main([
        "--out", str(tmp_path / "out.json"), "--baseline", str(baseline),
    ])
    assert rc == code
    err = capsys.readouterr().err
    assert ("execute speedup 4.00x < 5x" in err) == bool(code)
