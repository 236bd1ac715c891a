#!/usr/bin/env python
"""Wall-clock benchmark of the repo's host-side hot paths.

Measures these over the CI suite subset (``small_corpus``) and writes
them to ``BENCH_core.json``:

* **execute path** — ``mode="execute"`` accumulator wall-clock, scalar
  row loop versus the batched engine (`repro.core.batch_execute`), plus
  their speedup ratio;
* **model path** — the full cost-model pipeline (`speck_multiply`,
  ``mode="model"``) per sweep;
* **cold pass** — ``run_pass`` on the symbolic and numeric plans of the
  serve-churn operands (median and quartiles over repeated sweeps), the
  cost model's largest host cost on a cold plan;
* **exact product** — ``esc_multiply`` and ``symbolic_row_nnz`` on
  ``rmat(12, 16)`` squared (median and quartiles), the shared
  sort-and-compress kernels of every exact CSR product;
* **makespan** — ``makespan_cycles`` list-scheduling 90,000 seeded
  lognormal block costs onto 640 slots (median and quartiles), about
  the size of the paper sweep's largest simulated launches;
* **suite path** — `run_suite` end to end, sequentially and on the
  fork-based process pool.  The requested worker count is
  clamped to the CPU count and reported as ``effective_workers``; on a
  single-core machine the parallel-vs-sequential comparison is skipped
  with an explicit ``"skipped": "single-core"`` marker rather than
  reporting a meaningless slowdown.

``--timings PATH`` additionally writes a per-stage wall-clock artifact
(one entry per bench stage) for CI upload.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py \
        --out BENCH_core.json --workers 4 [--full] \
        [--baseline BENCH_core.json --max-regress 1.5]

With ``--baseline`` the run compares its batched execute wall-clock
against the committed baseline and exits 1 when it regressed more than
``--max-regress`` (the CI regression guard).  Ratios (speedups) are
machine-independent; absolute seconds are only comparable on similar
hardware — the guard therefore uses a generous factor.  The same guard
then checks the speedup floors of :func:`speedup_floor_failures` and
exits 1 when one is missed.

With ``--serve-out`` the run additionally measures the serving layers
and writes the given ``BENCH_serve.json`` (this script is its only
writer) with two entries:

* **cluster** — the serving cluster's host wall-clock (`repro.cluster`,
  a short 2-node fleet replay);
* **hit_path** — a warm ``SpGEMMService.multiply`` on every serve-corpus
  operand, every plan cached (median and quartiles of 15 sweeps, and
  the median per call), with no floor.

``--serve-baseline`` guards the cluster entry's ``wallclock_s`` with the
same ``--max-regress`` factor; ``--serve-only`` skips the core benches.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from typing import Dict, List

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.core import MultiplyContext, build_configs, speck_multiply
from repro.core.batch_execute import execute_batched, execute_scalar
from repro.core.params import DEFAULT_PARAMS
from repro.eval import effective_workers, full_corpus, run_suite, small_corpus
from repro.gpu import TITAN_V, makespan_cycles
from repro.kernels import esc_multiply, row_products, symbolic_row_nnz


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _quartiles(times: List[float]) -> Dict[str, object]:
    """Median, quartiles and IQR of ``times`` in seconds."""
    q1, median, q3 = statistics.quantiles(times, n=4)
    return {"median_s": median, "q1_s": q1, "q3_s": q3, "iqr_s": q3 - q1,
            "samples": len(times)}


def _single_call_samples(fn, samples: int) -> List[float]:
    """Wall-clock of ``samples`` calls of ``fn``, after one warm-up call."""
    fn()
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def bench_execute(cases, repeats: int) -> Dict[str, object]:
    """Scalar vs batched accumulator wall-clock over all corpus cases."""
    configs = build_configs(TITAN_V)
    prepared = []
    for case in cases:
        a, b = case.matrices()
        ctx = MultiplyContext(a, b)
        # Materialise analysis + c_row_nnz outside the timed region: both
        # engines consume the same precomputed facts.
        prepared.append((a, b, ctx.analysis, ctx.c_row_nnz))

    def run(engine):
        for a, b, an, cn in prepared:
            engine(a, b, an, cn, DEFAULT_PARAMS, configs)

    run(execute_batched)  # warm-up (imports, caches)
    scalar_s = _best_of(lambda: run(execute_scalar), repeats)
    batched_s = _best_of(lambda: run(execute_batched), repeats)
    for case in cases:
        case.release()
    return {
        "scalar_s": scalar_s,
        "batched_s": batched_s,
        "speedup": scalar_s / batched_s if batched_s > 0 else float("inf"),
        "cases": len(prepared),
    }


def bench_model(cases, repeats: int) -> Dict[str, object]:
    """Full cost-model pipeline (``mode="model"``) wall-clock."""
    prepared = []
    for case in cases:
        a, b = case.matrices()
        ctx = MultiplyContext(a, b)
        ctx.c_row_nnz  # materialise the exact multiply outside the timing
        prepared.append((a, b, ctx))

    def run():
        for a, b, ctx in prepared:
            speck_multiply(a, b, ctx=ctx, mode="model")

    run()  # warm-up
    total = _best_of(run, repeats)
    for case in cases:
        case.release()
    return {"total_s": total, "cases": len(prepared)}


def bench_estimate(cases, repeats: int) -> Dict[str, object]:
    """Sampled estimation vs exact analysis wall-clock over the corpus.

    ``speedup`` is exact analysis / sampled estimation, machine-
    independent.  The flat sort-unique distinct-column pass keeps the
    sampled sweep cheaper than exact analysis even on the tiny CI corpus
    (CI asserts ``speedup > 1``); the estimator's *headline* win remains
    in modelled virtual time, where it replaces analysis and the
    symbolic pass on the cold path (see ``serve-bench --speculative``).
    """
    from repro.core.analysis import analyze
    from repro.estimate import estimate_multiply

    prepared = []
    for case in cases:
        a, b = case.matrices()
        prepared.append((a, b))

    # Both sweeps finish in ~1 ms on the CI subset — far too short for a
    # single perf_counter window to resolve against scheduler noise.
    # Loop the sweep inside the timed region and report per-sweep time.
    inner = 10

    def run_estimate():
        for _ in range(inner):
            for a, b in prepared:
                estimate_multiply(a, b, seed=0)

    def run_analyze():
        for _ in range(inner):
            for a, b in prepared:
                analyze(a, b)

    run_estimate()  # warm-up (imports, fingerprint caches)
    run_analyze()
    estimate_s = _best_of(run_estimate, repeats) / inner
    analyze_s = _best_of(run_analyze, repeats) / inner
    for case in cases:
        case.release()
    return {
        "estimate_s": estimate_s,
        "analyze_s": analyze_s,
        "speedup": analyze_s / estimate_s if estimate_s > 0 else float("inf"),
        "cases": len(prepared),
    }


def _churn_operands(n: int = 32):
    """The serve-churn operand mix: ``n`` square generator operands
    cycling five families, sizes spread over a range (the slots of the
    two-clock benchmark's ``serve-churn`` workload)."""
    from repro.matrices import generators as gen

    out = []
    for i in range(n):
        k = i // 5
        family, args = [
            ("rmat", (7 + k % 2, 4 + k % 5)),
            ("random_uniform", (200 + 50 * k, 200 + 50 * k, 4.0 + k % 7)),
            ("banded", (300 + 100 * k, 2 + k % 7)),
            ("circuit", (300 + 100 * k,)),
            ("skew_single", (300 + 80 * k, 4, 60 + 20 * k)),
        ][i % 5]
        out.append(getattr(gen, family)(*args, seed=1000 + i))
    return out


def bench_cold_pass(repeats: int) -> Dict[str, object]:
    """``run_pass`` wall-clock on the plans of a cold exact multiply.

    One sweep prices the symbolic and the numeric pass of each
    serve-churn operand squared, on the plans the engine's exact path
    builds.  Plans hold a few hundred rows, so a pass costs its fixed
    run of numpy calls rather than its data.  Reports the median and
    quartiles of ``max(repeats, 15)`` samples, each the best of three
    sweeps.
    """
    from repro.core.global_lb import numeric_inputs, plan_stage, symbolic_inputs
    from repro.core.passes import run_pass

    configs = build_configs(TITAN_V)
    passes = []
    for a in _churn_operands():
        ctx = MultiplyContext(a, a)
        inputs = {
            "symbolic": symbolic_inputs(ctx.analysis),
            "numeric": numeric_inputs(ctx.c_row_nnz, DEFAULT_PARAMS),
        }
        for stage, stage_inputs in inputs.items():
            _, plan = plan_stage(stage, stage_inputs, a.rows, DEFAULT_PARAMS, configs)
            passes.append((stage, ctx.analysis, plan, ctx.c_row_nnz))

    def sweep():
        for stage, analysis, plan, c_row_nnz in passes:
            run_pass(stage, analysis, plan, c_row_nnz, configs, DEFAULT_PARAMS, TITAN_V)

    sweep()  # warm-up (per-config tables)
    # A sweep takes tens of milliseconds, and one preempted sweep is
    # noise: each sample is the best of three sweeps.
    entry = _quartiles([_best_of(sweep, 3) for _ in range(max(repeats, 15))])
    entry["per_call_us"] = entry["median_s"] / len(passes) * 1e6
    entry["calls"] = len(passes)
    return entry


def bench_exact_product(repeats: int) -> Dict[str, object]:
    """Wall-clock of the exact product kernels on ``rmat(12, 16)`` squared.

    ``esc_multiply`` and ``symbolic_row_nnz`` sort the same 6.7 M
    composite keys; each call takes a few hundred milliseconds, so a
    sample is one call.  Reports the median and quartiles of
    ``max(repeats, 7)`` samples per kernel.
    """
    from repro.matrices.generators import rmat

    a = rmat(12, 16, seed=0)
    entry: Dict[str, object] = {"products": int(row_products(a, a).sum())}
    for fn in (esc_multiply, symbolic_row_nnz):
        entry[fn.__name__] = _quartiles(
            _single_call_samples(lambda: fn(a, a), max(repeats, 7)))
    return entry


def bench_makespan(repeats: int) -> Dict[str, object]:
    """Wall-clock of ``makespan_cycles`` on a suite-sized launch.

    90,000 lognormal block costs (seed 0) list-scheduled onto 640 slots:
    a little above the paper sweep's largest simulated launch (80,000
    blocks), at its most common concurrency.  A call takes tens of
    milliseconds, so a sample is one call.  Reports the median and
    quartiles of ``max(repeats, 15)`` samples.
    """
    costs = np.random.default_rng(0).lognormal(8.0, 1.0, 90_000)
    entry = _quartiles(_single_call_samples(
        lambda: makespan_cycles(costs, 640), max(repeats, 15)))
    entry.update(blocks=costs.size, concurrency=640)
    return entry


def bench_suite(make_cases, workers: int) -> Dict[str, object]:
    """End-to-end ``run_suite`` wall-clock, sequential and on the pool.

    The requested ``workers`` is clamped to the CPU count (matching
    ``run_suite``'s own policy) and recorded as ``effective_workers``.
    With a single effective worker the parallel leg is *skipped*: a
    1-worker "parallel" run measures nothing but pool overhead, and its
    "speedup" would be pure noise — the entry says so explicitly instead.
    """
    eff = effective_workers(workers)
    t0 = time.perf_counter()
    run_suite(make_cases())
    seq = time.perf_counter() - t0
    entry: Dict[str, object] = {
        "sequential_s": seq,
        "workers": workers,
        "effective_workers": eff,
    }
    if eff < 2:
        entry["skipped"] = "single-core"
        return entry
    t0 = time.perf_counter()
    run_suite(make_cases(), workers=eff)
    par = time.perf_counter() - t0
    entry["parallel_s"] = par
    entry["speedup"] = seq / par if par > 0 else float("inf")
    return entry


def speedup_floor_failures(report: Dict[str, object]) -> List[str]:
    """The speedup floors ``report`` misses, one message each.

    The batched execute engine must stay at least 5x the scalar row
    loop, sampled estimation must beat exact analysis, and the suite
    pool must beat the sequential sweep by more than 1.2x.  A
    single-core run skips the pool comparison; it passes only when the
    entry says so explicitly (``"skipped": "single-core"`` with one
    effective worker) instead of reporting noise.
    """
    failures = []
    ex = report["execute"]
    if not ex["speedup"] >= 5.0:
        failures.append(f"execute speedup {ex['speedup']:.2f}x < 5x")
    es = report["estimate"]
    if not es["speedup"] > 1.0:
        failures.append(
            f"sampled estimation {es['speedup']:.2f}x must beat exact analysis"
        )
    su = report["suite"]
    if su.get("skipped"):
        if su["skipped"] != "single-core" or su["effective_workers"] != 1:
            failures.append(
                f"suite pool leg skipped ({su['skipped']!r}, "
                f"{su['effective_workers']} workers); only a single-core "
                "run may skip it"
            )
    elif not su["speedup"] > 1.2:
        failures.append(
            f"suite pool speedup {su['speedup']:.2f}x < 1.2x "
            f"({su['effective_workers']} workers)"
        )
    return failures


def bench_cluster() -> Dict[str, object]:
    """Host wall-clock of a short fleet replay through ``repro.cluster``.

    Virtual-time figures (throughput, scaling) are deterministic; the
    wall-clock seconds are what the regression guard watches — they are
    dominated by the per-request host work in the event loop.
    """
    from repro.cluster import ClusterSpec, run_cluster_bench
    from repro.serve.workload import WorkloadSpec, serve_corpus

    cases = serve_corpus()
    spec = WorkloadSpec(rate=10_000.0, duration_s=0.2, timeout_s=0.1, seed=0)
    cluster = ClusterSpec(n_nodes=2)
    run_cluster_bench(  # warm-up (imports, generator caches)
        cases=cases, spec=spec, cluster=cluster, compare_single=False
    )
    t0 = time.perf_counter()
    report = run_cluster_bench(cases=cases, spec=spec, cluster=cluster)
    wall = time.perf_counter() - t0
    for case in cases:
        case.release()
    return {
        "wallclock_s": wall,
        "offered": report.offered,
        "completed": report.completed,
        "throughput_rps": report.throughput_rps,
        "scaling_vs_single": report.scaling_vs_single,
        "wrong_results": report.wrong_results,
        "n_nodes": cluster.n_nodes,
        "rate": spec.rate,
        "duration_s": spec.duration_s,
    }


def bench_hit_path(samples: int = 15) -> Dict[str, object]:
    """Wall-clock of plan hits through ``SpGEMMService.multiply``.

    Every serve-corpus operand is multiplied once cold, so its plan and
    context are cached; a sample is then one more multiply per operand,
    which times the hit path alone: fingerprints, the plan cache, the
    engine's hit and the service's metrics.  Reports the median and
    quartiles of ``samples`` sweeps and the median per call.
    """
    from repro.serve import SpGEMMService, serve_corpus

    cases = serve_corpus()
    pairs = [case.matrices() for case in cases]
    svc = SpGEMMService(TITAN_V, DEFAULT_PARAMS, context_cache_entries=len(pairs))
    for a, b in pairs:
        svc.multiply(a, b)

    def sweep():
        for a, b in pairs:
            svc.multiply(a, b)

    entry = _quartiles(_single_call_samples(sweep, samples))
    entry.update(calls=len(pairs), per_call_us=entry["median_s"] / len(pairs) * 1e6)
    for case in cases:
        case.release()
    return entry


def _write_serve_entries(path: str, entries: Dict[str, object]) -> None:
    """Write the serve entries (``cluster``, ``hit_path``) to ``path``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv: List[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="BENCH_core.json", help="output JSON path")
    ap.add_argument("--workers", type=int, default=4,
                    help="worker count for the parallel suite measurement")
    ap.add_argument("--repeats", type=int, default=3,
                    help="timed repetitions; the best run is reported")
    ap.add_argument("--full", action="store_true",
                    help="benchmark the full corpus instead of the CI subset")
    ap.add_argument("--baseline", metavar="PATH",
                    help="compare against this committed BENCH_core.json")
    ap.add_argument("--max-regress", type=float, default=1.5,
                    help="fail when batched execute wall-clock exceeds "
                         "baseline by more than this factor")
    ap.add_argument("--serve-out", metavar="PATH",
                    help="also run the serve benches and write their "
                         "'cluster' and 'hit_path' entries to this "
                         "BENCH_serve.json")
    ap.add_argument("--serve-baseline", metavar="PATH",
                    help="compare the cluster wall-clock against this "
                         "committed BENCH_serve.json (same --max-regress)")
    ap.add_argument("--serve-only", action="store_true",
                    help="skip the core benches; only run the serve benches "
                         "(requires --serve-out)")
    ap.add_argument("--timings", metavar="PATH",
                    help="also write a per-stage wall-clock JSON artifact "
                         "(seconds spent inside each bench stage)")
    args = ap.parse_args(argv)

    if args.serve_only and not args.serve_out:
        ap.error("--serve-only requires --serve-out")

    serve_rc = 0
    if args.serve_out:
        entry = bench_cluster()
        hit = bench_hit_path()
        _write_serve_entries(args.serve_out, {"cluster": entry, "hit_path": hit})
        print(f"cluster: {entry['completed']}/{entry['offered']} served in "
              f"{entry['wallclock_s']:.3f}s wall "
              f"({entry['scaling_vs_single']:.2f}x vs single node)")
        print(f"hit_path: {hit['calls']} warm multiplies per sweep, median "
              f"{hit['median_s'] * 1e6:.0f} us (IQR {hit['iqr_s'] * 1e6:.0f} us), "
              f"{hit['per_call_us']:.1f} us per call; wrote {args.serve_out}")
        if args.serve_baseline:
            try:
                with open(args.serve_baseline, "r", encoding="utf-8") as fh:
                    base_cluster = json.load(fh)["cluster"]
            except (OSError, json.JSONDecodeError, KeyError) as exc:
                print(f"error: cannot read cluster baseline "
                      f"{args.serve_baseline}: {exc}", file=sys.stderr)
                return 2
            base_wall = float(base_cluster["wallclock_s"])
            ratio = entry["wallclock_s"] / base_wall if base_wall > 0 else 1.0
            print(f"cluster regression check: wall-clock {ratio:.2f}x of "
                  f"baseline (limit {args.max_regress:.2f}x)")
            if ratio > args.max_regress:
                print("error: cluster bench wall-clock regressed beyond "
                      "the allowed factor", file=sys.stderr)
                serve_rc = 1
    if args.serve_only:
        return serve_rc

    make_cases = full_corpus if args.full else small_corpus
    stage_s: Dict[str, float] = {}

    def timed(stage, fn, *fn_args):
        t0 = time.perf_counter()
        out = fn(*fn_args)
        stage_s[stage] = time.perf_counter() - t0
        return out

    report = {
        "config": {
            "suite": "full" if args.full else "small",
            "repeats": args.repeats,
            "workers": args.workers,
            "effective_workers": effective_workers(args.workers),
            "cpu_count": os.cpu_count(),
            "numpy": np.__version__,
            "python": ".".join(map(str, sys.version_info[:3])),
        },
        "execute": timed("execute", bench_execute, make_cases(), args.repeats),
        "model": timed("model", bench_model, make_cases(), args.repeats),
        "estimate": timed("estimate", bench_estimate, make_cases(), args.repeats),
        "cold_pass": timed("cold_pass", bench_cold_pass, args.repeats),
        "exact_product": timed("exact_product", bench_exact_product, args.repeats),
        "makespan": timed("makespan", bench_makespan, args.repeats),
        "suite": timed("suite", bench_suite, make_cases, args.workers),
    }

    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if args.timings:
        with open(args.timings, "w", encoding="utf-8") as fh:
            json.dump({"stage_wall_s": stage_s}, fh, indent=2, sort_keys=True)
            fh.write("\n")

    ex = report["execute"]
    su = report["suite"]
    print(f"execute: scalar {ex['scalar_s']:.3f}s, batched {ex['batched_s']:.3f}s "
          f"-> {ex['speedup']:.1f}x")
    print(f"model:   {report['model']['total_s']:.3f}s over {report['model']['cases']} cases")
    es = report["estimate"]
    print(f"estimate: sampled {es['estimate_s']:.4f}s vs exact analysis "
          f"{es['analyze_s']:.4f}s -> {es['speedup']:.1f}x")
    cp = report["cold_pass"]
    print(f"cold pass: {cp['calls']} run_pass calls per sweep, median "
          f"{cp['median_s'] * 1e3:.2f} ms (IQR {cp['iqr_s'] * 1e3:.2f} ms), "
          f"{cp['per_call_us']:.0f} us per call")
    xp = report["exact_product"]
    print(f"exact product: {xp['products']} products, "
          + ", ".join(f"{name} median {xp[name]['median_s'] * 1e3:.0f} ms "
                      f"(IQR {xp[name]['iqr_s'] * 1e3:.0f} ms)"
                      for name in ("esc_multiply", "symbolic_row_nnz")))
    mk = report["makespan"]
    print(f"makespan: {mk['blocks']} blocks on {mk['concurrency']} slots, "
          f"median {mk['median_s'] * 1e3:.1f} ms "
          f"(IQR {mk['iqr_s'] * 1e3:.1f} ms)")
    if "skipped" in su:
        print(f"suite:   sequential {su['sequential_s']:.3f}s; parallel leg "
              f"skipped ({su['skipped']}, effective_workers="
              f"{su['effective_workers']})")
    else:
        print(f"suite:   sequential {su['sequential_s']:.3f}s, "
              f"workers={su['effective_workers']} {su['parallel_s']:.3f}s "
              f"-> {su['speedup']:.2f}x "
              f"({report['config']['cpu_count']} CPUs)")
    print(f"wrote {args.out}")

    if args.baseline:
        try:
            with open(args.baseline, "r", encoding="utf-8") as fh:
                base = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read baseline {args.baseline}: {exc}",
                  file=sys.stderr)
            return 2
        base_batched = float(base["execute"]["batched_s"])
        ratio = ex["batched_s"] / base_batched if base_batched > 0 else 1.0
        print(f"regression check: batched execute {ratio:.2f}x of baseline "
              f"(limit {args.max_regress:.2f}x)")
        if ratio > args.max_regress:
            print("error: batched execute wall-clock regressed beyond the "
                  "allowed factor", file=sys.stderr)
            return 1
        # Older baselines predate the estimate entry: skip, don't fail.
        base_estimate = base.get("estimate", {}).get("estimate_s")
        if base_estimate:
            eratio = es["estimate_s"] / float(base_estimate)
            print(f"regression check: sampled estimation {eratio:.2f}x of "
                  f"baseline (limit {args.max_regress:.2f}x)")
            if eratio > args.max_regress:
                print("error: sampled estimation wall-clock regressed "
                      "beyond the allowed factor", file=sys.stderr)
                return 1
        failures = speedup_floor_failures(report)
        for message in failures:
            print(f"error: {message}", file=sys.stderr)
        if failures:
            return 1
    return serve_rc


if __name__ == "__main__":
    sys.exit(main())
