"""Serving-layer throughput benchmark (``repro.serve``).

Drives the default Zipf/Poisson workload through the full service stack
(plan cache → admission → scheduler) and asserts the serving-layer
guarantees: plan caching absorbs the skewed operand reuse (hit rate over
one half), tail latency stays finite and ordered, cache-hit requests are
measurably cheaper than cold ones, and a 10× overload sheds instead of
crashing.
"""

import math

from repro.serve import AdmissionPolicy, WorkloadSpec, run_serve_bench

from conftest import print_header


def test_serving_throughput():
    spec = WorkloadSpec(duration_s=2.0, seed=0)  # default rate / skew
    report = run_serve_bench(spec=spec)

    print_header("serve-bench — default Zipf workload")
    print(report.render())

    assert report.offered > 0
    assert report.completed > 0

    # Plan caching must absorb the Zipf-skewed operand reuse.
    assert report.hit_rate > 0.5

    # Tail latency: finite and ordered.
    lat = report.latency
    for key in ("mean", "p50", "p95", "p99"):
        assert math.isfinite(lat[key])
        assert lat[key] >= 0.0
    assert lat["p50"] <= lat["p95"] <= lat["p99"]
    assert lat["p99"] > 0.0

    # Cache-hit requests model measurably lower service time than cold.
    assert report.hit_speedup >= 1.2
    assert report.bit_identical

    # Nothing was lost: every offered request reached a terminal state.
    assert (
        report.completed + report.shed + report.timed_out + report.failed
        == report.offered
    )


def test_serving_overload_sheds():
    spec = WorkloadSpec(rate=40_000.0, duration_s=0.5, seed=0)  # 10x default
    report = run_serve_bench(
        spec=spec, policy=AdmissionPolicy(max_queue_depth=256)
    )
    print_header("serve-bench — 10x overload")
    print(report.render())
    assert report.shed > 0
    assert report.completed > 0
    assert report.failed == 0
