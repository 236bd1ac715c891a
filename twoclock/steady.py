"""Steadiness runner: repeated runs, spreads against bounds, set comparison.

    python3 twoclock/steady.py run --runs 10 --out .bench_build/twoclock/set-a.json
    python3 twoclock/steady.py compare .bench_build/twoclock/set-a.json \\
        .bench_build/twoclock/set-b.json

``run`` runs every workload of ``BENCHMARK.json`` ``--runs`` times for
its ``run_seconds``, one process at a time, round-robin across
workloads (seed ``i`` for the ``i``-th round) so that
drift of the machine spreads evenly over them.  For each end-to-end
metric it prints the median, the quartiles (``statistics.quantiles``,
``n=4``) and the spread (quartile distance over median) against the
metric's bound from ``BENCHMARK.json``, aiming at a third of the bound.
``compare`` sets two such sets side by side: the second median's change
in the metric's worse direction, against the bound.  ``setup_s`` is
reported on its own line in both.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    return json.loads(lines[-1])


def collect(runs: int, spec: dict) -> dict:
    workloads = [w["name"] for w in spec["workloads"]]
    samples = {w: {} for w in workloads}
    for i in range(runs):
        for w in workloads:
            res = _run_once(w, i, spec["run_seconds"])
            if not res["correct"]:
                raise SystemExit(f"{w} seed {i}: incorrect output")
            for name, m in res["metrics"].items():
                samples[w].setdefault(name, []).append(m["value"])
            print(f"round {i} {w}: " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in res["metrics"].items()
            ), flush=True)
    return samples


def spread(values) -> tuple:
    """``(median, q1, q3, (q3 - q1) / median)``, quartiles from
    ``statistics.quantiles(values, n=4)``."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def report(samples: dict, spec: dict) -> bool:
    """Print each metric's spread; true when all are within their bounds."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w, metrics in samples.items():
        print(f"\n{w} ({len(next(iter(metrics.values())))} runs)")
        names = [n for n in metrics if n != "setup_s"] + ["setup_s"]
        for name in names:
            med, q1, q3, s = spread(metrics[name])
            bound = bounds[name]
            verdict = "ok" if s <= bound / 3 else ("wide" if s <= bound else "OVER")
            if name != "setup_s" and s > bound:
                ok = False
            label = "setup_s (own line)" if name == "setup_s" else name
            print(f"  {label:20s} median {med:.5g}  q1 {q1:.5g}  q3 {q3:.5g}  "
                  f"spread {s:.4f} / bound {bound}  {verdict}")
    return ok


def compare(a: dict, b: dict, spec: dict) -> bool:
    """Second set's median against the first's, in the worse direction."""
    worse_if_lower = {m["name"]: m["better"] == "higher" for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    for w in a:
        print(f"\n{w}")
        names = [n for n in a[w] if n != "setup_s"] + ["setup_s"]
        for name in names:
            ma = statistics.median(a[w][name])
            mb = statistics.median(b[w][name])
            change = (mb - ma) / ma if ma else 0.0
            worse = -change if worse_if_lower[name] else change
            flag = "ok" if worse <= bounds[name] else "WORSE"
            ok = ok and flag == "ok"
            label = "setup_s (own line)" if name == "setup_s" else name
            print(f"  {label:20s} {ma:.5g} -> {mb:.5g}  worse by {worse:+.4f} "
                  f"/ bound {bounds[name]}  {flag}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run", help="run every workload several times")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--out", required=True)
    cmp_ = sub.add_parser("compare", help="compare two sets written by run")
    cmp_.add_argument("first")
    cmp_.add_argument("second")
    args = parser.parse_args(argv)
    spec = _spec()
    if args.cmd == "run":
        samples = collect(args.runs, spec)
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(samples, indent=2) + "\n")
        return 0 if report(samples, spec) else 1
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    return 0 if compare(first, second, spec) else 1


if __name__ == "__main__":
    sys.exit(main())
