"""Run one workload of the two-clock benchmark and print its metrics.

    python3 twoclock/run.py --workload serve-hot --seed 0 --trace 0

``--seconds`` defaults to ``run_seconds`` in ``BENCHMARK.json``.

With ``--trace 0`` the run sets up the workload several times (median
reported as ``setup_s``), replays it for at least two seconds to warm
up, then replays it until ``--seconds`` of timed calls have
accumulated, judging each replay's outputs after its clock stops.  Host
times are reported in reference seconds (``calibrate.py``).  With
``--trace 1`` it instead alternates untraced and traced replays and
reports per-layer metrics; end-to-end numbers never come from a traced
replay.

Every metric is printed as ``name value unit``; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A result file with provenance (and, when
traced, the spans) is written under ``.bench_build/twoclock/``.

Exit status: 0 when every output is correct, 1 on a wrong output or a
broken invariant, 2 on a usage error or when the program's sources are
missing.
"""

import os

# Pin BLAS/OpenMP pools to one thread before numpy loads: the load must
# come from this one process.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_build" / "twoclock"

#: Every end-to-end metric with its unit, in print order.
END_TO_END = [
    ("host_ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "ratio"),
    ("model_p50_ms", "ms"),
    ("model_p99_ms", "ms"),
    ("model_gflops", "GFLOPS"),
]
#: Fewest timed replays per run, however long each takes.
MIN_REPLAYS = 2
#: Warm-up replays continue until this many seconds have passed.
WARMUP_S = 2.0
#: Set-up repeats continue until this many seconds have passed (and at
#: least the workload's ``setup_repeats``), up to SETUP_MAX_REPEATS.
SETUP_MIN_S = 1.0
SETUP_MAX_REPEATS = 40


def main(argv=None) -> int:
    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=run_seconds)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    from twoclock.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"work-{os.getpid()}"
    run = traced if args.trace else measure
    try:
        result, record = run(WORKLOADS[args.workload], str(work_dir), args.seed, args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    record["provenance"] = provenance(args)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spans = record.pop("spans", None)
    if spans is not None:
        spans.save(str(OUT_DIR / f"{stem}-spans.npz"))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({**record, **result}, indent=2) + "\n")
    for name, m in result["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    for line in record["problems"]:
        print(f"PROBLEM: {line}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def _timed_replay(workload, wrap=None, counts=None, stop_after_s=None):
    """``(verdict, [timing of each call])`` of one replay, each call run
    through ``wrap`` when given.  Each call's output is judged after its
    clock stops and then released; a ``counts`` dict is filled with the
    workload's counters after the last call.  With ``stop_after_s`` the
    replay ends early, after the call that brings its wall time there."""
    from twoclock.calibrate import timed
    from twoclock.judge import combine

    workload.prepare()
    calls = workload.calls()
    verdicts, timings = [], []
    for i, (call, judge) in enumerate(calls):
        def keep(out, judge=judge, last=i == len(calls) - 1):
            if counts is not None and last:
                counts.update(workload.counts(out))
            return judge(out)

        gc.collect()
        v, t = timed(wrap(call) if wrap else call, keep)
        verdicts.append(v)
        timings.append(t)
        if stop_after_s is not None and _wall(timings) >= stop_after_s:
            break
    return combine(verdicts), timings


def _wall(timings) -> float:
    return sum(t.wall_s for t in timings)


def _reference(timings) -> float:
    return sum(t.reference_s for t in timings)


def _warm_up(workload) -> list:
    """Calls for at least :data:`WARMUP_S`, in replay order (a workload
    whose replay is several long calls warms up on its first ones);
    returns their verdicts."""
    verdicts, spent = [], 0.0
    while spent < WARMUP_S or not verdicts:
        v, ts = _timed_replay(workload, stop_after_s=WARMUP_S - spent)
        v.drop_samples()
        verdicts.append(v)
        spent += _wall(ts)
    return verdicts


def _check(warm, timed) -> list:
    """Broken invariants: any replay's wrong outputs, and any timed
    replay whose modeled results differ from the first timed replay's."""
    problems = []
    for label, verdicts in (("warm-up", warm), ("timed", timed)):
        for i, v in enumerate(verdicts):
            problems.extend(f"{label} replay {i}: {p}" for p in v.problems)
            if v.wrong:
                problems.append(f"{label} replay {i}: {v.wrong} wrong results")
    for i, v in enumerate(timed[1:], 1):
        if v.signature != timed[0].signature:
            problems.append(f"timed replay {i}: modeled results differ from timed replay 0")
    return problems


def _percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else float("nan")


def _geomean(values) -> float:
    return float(np.exp(np.mean(np.log(values)))) if values else float("nan")


def measure(cls, work_dir: str, seed: int, seconds: float):
    """The untraced run: end-to-end metrics.

    Set-up runs at least ``cls.setup_repeats`` times and for at least
    :data:`SETUP_MIN_S`, each time on a fresh workload object once the
    previous one is released; the last one is replayed.  Each of its
    steps (``Workload.setup_steps``) is timed on its own.  Host times are
    in reference seconds (see ``calibrate.py``); raw wall times are
    recorded beside them.
    """
    from twoclock.calibrate import timed

    setups = []
    workload = None
    end = object()
    while len(setups) < cls.setup_repeats or (
        sum(map(_wall, setups)) < SETUP_MIN_S and len(setups) < SETUP_MAX_REPEATS
    ):
        if workload is not None:
            workload.close()
        gc.collect()
        workload = cls(work_dir)
        steps = workload.setup_steps(seed)
        timings = []
        while True:
            step, t = timed(lambda: next(steps, end))
            timings.append(t)
            if step is end:
                break
        setups.append(timings)
    try:
        return _measure(workload, setups, seconds)
    finally:
        workload.close()


def _measure(workload, setups, seconds: float):
    warm = _warm_up(workload)
    timed, timings = [], []
    while sum(map(_wall, timings)) < seconds or len(timings) < MIN_REPLAYS:
        v, ts = _timed_replay(workload)
        if timed:
            v.drop_samples()  # the first timed replay's samples are reported
        timed.append(v)
        timings.append(ts)
    problems = _check(warm, timed)
    first = timed[0]
    attempted = sum(v.ops for v in timed)
    metrics = {
        "host_ops_per_s": statistics.median(
            v.ops / _reference(ts) for v, ts in zip(timed, timings)
        ),
        "setup_s": statistics.median(map(_reference, setups)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": sum(v.ok for v in timed) / attempted,
        "model_p50_ms": _percentile(first.model_latency_s, 50) * 1e3,
        "model_p99_ms": _percentile(first.model_latency_s, 99) * 1e3,
        "model_gflops": _geomean(first.model_gflops),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": sum(v.failed for v in timed),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END},
    }
    record = {
        "problems": problems,
        "samples": {
            "setup_wall_s": list(map(_wall, setups)),
            "setup_reference_s": list(map(_reference, setups)),
            "setup_step_kernel_s": [[t.before + t.after for t in ts] for ts in setups],
            "replay_wall_s": [_wall(ts) for ts in timings],
            "replay_reference_s": [_reference(ts) for ts in timings],
            "call_wall_s": [[t.wall_s for t in ts] for ts in timings],
            "call_kernel_s": [[t.before + t.after for t in ts] for ts in timings],
            "host_ops_per_wall_s": statistics.median(
                v.ops / _wall(ts) for v, ts in zip(timed, timings)
            ),
            "ops_per_replay": first.ops,
            "replays": len(timings),
            "model_latency_samples": len(first.model_latency_s),
        },
    }
    return result, record


def traced(cls, work_dir: str, seed: int, seconds: float):
    """The traced run: per-layer metrics from alternating untraced and
    traced replays of the same work, after one traced set-up."""
    from twoclock.layers import probes
    from twoclock.spans import SpanRecorder, Tracer

    rec = SpanRecorder()
    tracer = Tracer(probes(), rec)
    workload = cls(work_dir)
    try:
        with tracer:
            workload.setup(seed)
        return _traced(workload, rec, tracer, seconds)
    finally:
        workload.close()


def _traced(workload, rec, tracer, seconds: float):
    from twoclock.layers import PER_LAYER, ROOT as ROOT_SPAN, layer_metrics

    setup_spans = len(rec)
    root_id = rec.name_id(ROOT_SPAN)
    warm = _warm_up(workload)
    timed, plain_s, traced_s = [], [], []

    def wrap(call):
        def traced_call():
            with tracer:
                idx = rec.open(root_id)
                try:
                    return call()
                finally:
                    rec.close(idx)
        return traced_call

    spent = 0.0  # wall seconds of timed calls, as in the untraced run
    while spent < seconds or len(traced_s) < MIN_REPLAYS:
        v, plain = _timed_replay(workload)
        v.drop_samples()
        timed.append(v)
        counts = {}
        v, ts = _timed_replay(workload, wrap, counts)
        plain_s.append(_reference(plain))
        traced_s.append(_reference(ts))
        spent += _wall(plain) + _wall(ts)
        for older in timed:
            older.drop_samples()  # the newest traced replay's samples are reported
        timed.append(v)
    problems = _check(warm, timed)
    last = timed[-1]
    values = layer_metrics(
        rec,
        tracer.layer_of,
        ops=last.ops * len(traced_s),
        replays=len(traced_s),
        counts=counts,
        verdict=last,
        setup_spans=setup_spans,
        overhead=statistics.median(traced_s) / statistics.median(plain_s) - 1.0,
    )
    result = {
        "correct": not problems,
        "attempted": sum(v.ops for v in timed),
        "failed": sum(v.failed for v in timed),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER},
    }
    record = {
        "problems": problems,
        "spans": rec,
        "samples": {
            "untraced_replay_s": plain_s,
            "traced_replay_s": traced_s,
            "ops_per_replay": last.ops,
            "spans": len(rec),
        },
    }
    return result, record


def _commit() -> str:
    """The checkout's commit, read from ``.git`` when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args) -> dict:
    import scipy

    return {
        "cpu_model": _cpu_model(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


if __name__ == "__main__":
    sys.exit(main())
