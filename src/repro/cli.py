"""Command-line interface: ``python -m repro <command>``.

Mirrors the spECK artifact's ``runspECK`` executable and adds the
evaluation entry points:

* ``multiply`` — run one SpGEMM (from a ``.mtx`` file or a generator
  family) through any of the implemented methods;
* ``bench`` — sweep the synthetic corpus and print the Table 3 statistics;
* ``tune`` — run the §5 auto-tuning procedure and print Table 2;
* ``spy`` — ASCII non-zero pattern of a matrix (Fig. 8 style);
* ``info`` — structural statistics of a matrix / multiplication;
* ``serve-bench`` — open-loop serving benchmark through ``repro.serve``
  (plan caching, batching, admission control; see docs/SERVING.md);
* ``cluster-bench`` — multi-node fleet benchmark through ``repro.cluster``
  (consistent-hash routing, plan replication, crash failover; see
  docs/SERVING.md);
* ``multigpu`` — one SpGEMM row-partitioned across N simulated GPUs;
* ``partitioned`` — one SpGEMM in device-memory-bounded slabs;
* ``check`` — differential & metamorphic correctness harness with
  failure minimization (see docs/TESTING.md).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .baselines import PAPER_LINEUP, all_algorithms
from .core import MultiplyContext
from .faults import FaultPlan, FaultSpecError, SpGEMMError, parse_fault_spec
from .gpu.presets import PRESETS
from .matrices import generators as gen
from .matrices import read_mtx
from .matrices.csr import CSR
from .matrices.io_mm import MatrixMarketError
from .serve.workload import WORKLOADS

__all__ = ["main", "build_parser"]

_FAMILIES = {
    "banded": lambda n, seed: gen.banded(n, 8, seed=seed),
    "mesh": lambda n, seed: gen.poisson2d(max(2, int(n**0.5))),
    "rmat": lambda n, seed: gen.rmat(max(4, n), 8, seed=seed),
    "circuit": lambda n, seed: gen.circuit(n, seed=seed),
    "uniform": lambda n, seed: gen.random_uniform(n, n, 8.0, seed=seed),
    "skew": lambda n, seed: gen.skew_single(n, 6, max(64, n // 8), seed=seed),
    "stripe": lambda n, seed: gen.dense_stripe(n, min(512, n), 24, seed=seed),
    "diagonal": lambda n, seed: gen.diagonal(n, seed=seed),
}


#: Flags ``serve-bench`` and ``cluster-bench`` share.  A ``(serve,
#: cluster)`` pair gives a per-command default or help text.
_BENCH_ARGS = [
    ("--workers", dict(type=int, default=2, help=(
        "simulated device streams draining the queue (virtual concurrency, "
        "unrelated to the bench suite's OS worker pool)",
        "simulated device streams per node (virtual concurrency, unrelated "
        "to the bench suite's OS worker pool)",
    ))),
    ("--rate", dict(type=float, default=(4000.0, 80_000.0), help=(
        "mean arrival rate, requests per virtual second",
        "mean arrival rate, requests per virtual second "
        "(default ~4x one node's capacity)",
    ))),
    ("--duration", dict(type=float, default=(5.0, 0.5),
                        help="virtual seconds of arrivals")),
    ("--alpha", dict(type=float, default=1.1,
                     help="Zipf skew of operand popularity")),
    ("--timeout", dict(type=float, default=(1.0, 0.25),
                       help="queue deadline in virtual seconds; 0 disables")),
    ("--seed", dict(type=int, default=0)),
    ("--workload", dict(choices=list(WORKLOADS), default="plain", help=(
        "request shape: plain multiplies, masked SpGEMM, chained products, "
        "or incremental row-delta updates (see docs/WORKLOADS.md)",
        "request shape replayed across the fleet (see docs/WORKLOADS.md)",
    ))),
    ("--chain-length", dict(type=int, default=3,
                            help="chain power k per request (--workload chain)")),
    ("--mask-density", dict(type=float, default=0.25,
                            help="share of the exact product's entries each "
                                 "mask keeps (--workload masked)")),
    ("--delta-frac", dict(type=float, default=0.02,
                          help="share of A's rows each delta rewrites "
                               "(--workload incremental)")),
    ("--cache-mb", dict(type=float, default=256.0, help=(
        "plan-cache byte budget in MB",
        "per-node plan-cache byte budget in MB",
    ))),
    ("--queue-depth", dict(type=int, default=(256, 128), help=(
        "admission bound on queued requests",
        "per-node admission bound on queued requests",
    ))),
    ("--faults", dict(metavar="SPEC", help=(
        "fault-injection plan threaded through every request",
        "fault-injection plan; node sites key on node names, e.g. "
        "'node_crash@node-1:n=500' or 'disk_corrupt@node-0:n=2' "
        "(see docs/ROBUSTNESS.md)",
    ))),
    ("--plan-store", dict(metavar="DIR", help=(
        "durable plan store directory: warm-start from plans persisted by "
        "earlier runs, persist this run's plans for the next one",
        "durable plan stores: each node persists plans under "
        "DIR/<node-name> and warm-starts from what a previous run left there",
    ))),
    ("--estimate", dict(action="store_true", help=(
        "sampled row/nnz estimation for admission footprints and "
        "cost-aware queue ordering",
        "per-node sampled footprint bounds for admission and router spill "
        "decisions",
    ))),
    ("--speculative", dict(action="store_true", help=(
        "plan cold requests from sampled estimates (bound-verified at "
        "execute time, exact-analysis fallback on violation; implies "
        "--estimate)",
        "nodes plan cold requests from sampled estimates (exact-analysis "
        "fallback on bound violation; implies --estimate)",
    ))),
    ("--json", dict(metavar="PATH", help=(
        "write the full report + metrics JSON here",
        "write the full report + fleet metrics JSON here",
    ))),
]


def _add_bench_args(sp, *, fleet: bool) -> None:
    """Add the shared bench flags with ``serve-bench`` or fleet values."""
    for flag, opts in _BENCH_ARGS:
        sp.add_argument(flag, **{
            k: v[fleet] if isinstance(v, tuple) else v for k, v in opts.items()
        })


def _workload_spec(args):
    """The replayed workload, from the shared bench flags."""
    from .serve import WorkloadSpec

    return WorkloadSpec(
        rate=args.rate,
        duration_s=args.duration,
        zipf_alpha=args.alpha,
        timeout_s=args.timeout if args.timeout > 0 else None,
        seed=args.seed,
        workload=args.workload,
        chain_length=args.chain_length,
        mask_density=args.mask_density,
        delta_frac=args.delta_frac,
    )


def _emit_bench_report(args, report, end: str = "") -> int:
    """Print a bench report, write its JSON (``end`` keeps each command's
    historical file ending), and exit 1 unless the report passed."""
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + end)
        print(f"wrote {args.json}")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_matrix_args(sp):
        sp.add_argument("--mtx", help="MatrixMarket file to load")
        sp.add_argument(
            "--family", choices=sorted(_FAMILIES), default="mesh",
            help="generator family when no --mtx is given",
        )
        sp.add_argument("--size", type=int, default=10_000,
                        help="rows (RMAT: scale) for the generator")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument(
            "--device", choices=sorted(PRESETS), default="titan-v",
            help="simulated GPU preset",
        )

    mult = sub.add_parser("multiply", help="run one SpGEMM")
    add_matrix_args(mult)
    mult.add_argument(
        "--methods", default="spECK",
        help="comma-separated method names, or 'all' (default: spECK)",
    )
    mult.add_argument(
        "--execute", action="store_true",
        help="compute C through spECK's executable accumulators",
    )
    mult.add_argument(
        "--faults", metavar="SPEC",
        help="fault-injection plan, e.g. 'alloc@spECK:n=2:transient' "
             "(see docs/ROBUSTNESS.md)",
    )

    bench = sub.add_parser("bench", help="corpus sweep + Table 3")
    bench.add_argument("--small", action="store_true",
                       help="use the fast 9-matrix test corpus")
    bench.add_argument(
        "--faults", metavar="SPEC",
        help="fault-injection plan applied to every (matrix, method) run",
    )
    bench.add_argument(
        "--checkpoint", metavar="PATH",
        help="append each finished case to this JSONL file; re-running "
             "with the same path resumes the sweep",
    )
    bench.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="evaluate cases on a pool of N forked workers (clamped to "
             "the CPU count; records are identical to a sequential sweep)",
    )

    tune = sub.add_parser("tune", help="auto-tune thresholds (Table 2)")
    tune.add_argument("--small", action="store_true")

    spy = sub.add_parser("spy", help="ASCII non-zero pattern")
    add_matrix_args(spy)
    spy.add_argument("--grid", type=int, default=32)

    info = sub.add_parser("info", help="structural statistics")
    add_matrix_args(info)

    sb = sub.add_parser(
        "serve-bench",
        help="open-loop serving benchmark (plan cache + scheduler)",
    )
    _add_bench_args(sb, fleet=False)
    sb.add_argument(
        "--device", choices=sorted(PRESETS), default="titan-v",
        help="simulated GPU preset",
    )

    cb = sub.add_parser(
        "cluster-bench",
        help="multi-node fleet benchmark (routing, replication, failover)",
    )
    cb.add_argument("--nodes", type=int, default=4,
                    help="fleet size")
    cb.add_argument("--devices", default="titan-v",
                    help="comma-separated device presets, cycled across "
                         "nodes (heterogeneous fleets)")
    _add_bench_args(cb, fleet=True)
    cb.add_argument("--spill-depth", type=int, default=8,
                    help="home queue depth at which requests spill to peers")
    cb.add_argument("--no-replication", action="store_true",
                    help="disable plan-replica fetches between nodes")
    cb.add_argument("--no-single-reference", action="store_true",
                    help="skip the 1-node throughput reference replay "
                         "(correctness digests are still checked)")
    cb.add_argument("--autoscale", action="store_true",
                    help="elastic fleet: --nodes is the initial size; an "
                         "SLO-driven autoscaler resizes the fleet within "
                         "[--min-nodes, --max-nodes] in virtual time")
    cb.add_argument("--min-nodes", type=int, default=1,
                    help="autoscaler floor on fleet size")
    cb.add_argument("--max-nodes", type=int, default=8,
                    help="autoscaler ceiling on fleet size")
    cb.add_argument("--no-warm-join", action="store_true",
                    help="joining nodes start cold instead of hydrating "
                         "from the plan store / plan index before traffic")
    cb.add_argument("--scale-interval", type=float, default=0.02,
                    help="virtual seconds between autoscaler evaluations")
    cb.add_argument("--target-p99", type=float, default=0.2,
                    help="latency SLO the autoscaler defends (fleet p99, "
                         "virtual seconds)")
    cb.add_argument("--replicate-top-k", type=int, default=4,
                    help="hottest plans proactively pushed to their spill "
                         "targets each autoscaler tick")

    mg = sub.add_parser(
        "multigpu", help="one SpGEMM row-partitioned across N simulated GPUs"
    )
    add_matrix_args(mg)
    mg.add_argument("--n-devices", type=int, default=4,
                    help="simulated GPUs the rows of A are split across")
    mg.add_argument("--balance", choices=("rows", "products"),
                    default="products",
                    help="row partitioner: equal rows or equal products")
    mg.add_argument("--gather", action="store_true",
                    help="add the interconnect cost of collecting C onto "
                         "one device")
    mg.add_argument(
        "--faults", metavar="SPEC",
        help="fault-injection plan; per-device scopes are tagged "
             "'<case>/devN', so 'alloc:matrix=*/dev1' targets one device",
    )
    mg.add_argument("--json", metavar="PATH",
                    help="write the result summary JSON here")

    pt = sub.add_parser(
        "partitioned", help="one SpGEMM in device-memory-bounded slabs"
    )
    add_matrix_args(pt)
    pt.add_argument("--budget-mb", type=float, default=0.0,
                    help="device-memory budget in MB (0: the device's "
                         "full global memory)")
    pt.add_argument(
        "--faults", metavar="SPEC",
        help="fault-injection plan; per-slab scopes are tagged "
             "'<case>/slabN', so 'alloc:matrix=*/slab1' targets one slab",
    )
    pt.add_argument("--json", metavar="PATH",
                    help="write the result summary JSON here")

    chk = sub.add_parser(
        "check",
        help="differential & metamorphic correctness harness",
    )
    chk.add_argument("--seed", type=int, default=0,
                     help="fuzzer seed; (seed, case index) fixes every case")
    chk.add_argument("--cases", type=int, default=100,
                     help="number of generated cases to run")
    chk.add_argument(
        "--faults", metavar="SPEC",
        help="fault-injection plan; switches the oracle to 'every failure "
             "is structured' mode",
    )
    chk.add_argument(
        "--mutate", metavar="NAME",
        help="test-only: plant a named engine or graph-workload bug the "
             "harness must catch (see repro.check.mutations and "
             "repro.check.graph_checks)",
    )
    chk.add_argument(
        "--artifact-dir", metavar="DIR",
        help="shrink failing cases and write .mtx+JSON reproducers here",
    )
    chk.add_argument(
        "--checkpoint", metavar="PATH",
        help="append each finished case to this JSONL file; re-running "
             "with the same path resumes the run",
    )
    chk.add_argument(
        "--replay", metavar="DIR",
        help="re-run the oracle on a reproducer artifact instead of fuzzing",
    )
    chk.add_argument("--no-laws", action="store_true",
                     help="skip the metamorphic/cost-model law checks")
    chk.add_argument(
        "--device", choices=sorted(PRESETS), default="titan-v",
        help="simulated GPU preset",
    )
    chk.add_argument("--json", metavar="PATH",
                     help="write the full report JSON here")
    return p


def _load_matrix(args) -> CSR:
    if args.mtx:
        return read_mtx(args.mtx)
    return _FAMILIES[args.family](args.size, args.seed)


def _fault_plan(args) -> Optional[FaultPlan]:
    spec = getattr(args, "faults", None)
    return parse_fault_spec(spec) if spec else None


def _cmd_multiply(args) -> int:
    a = _load_matrix(args)
    b = a if a.rows == a.cols else a.transpose()
    device = PRESETS[getattr(args, "device", "titan-v")]
    ctx = MultiplyContext(a, b)
    ctx.faults = _fault_plan(args)
    ctx.case_name = args.mtx or f"{args.family}-{args.size}"
    print(f"A: {a.rows} x {a.cols}, nnz {a.nnz}; products {ctx.total_products}")
    names = (
        PAPER_LINEUP if args.methods == "all" else [m.strip() for m in args.methods.split(",")]
    )
    if args.execute:
        from .core import speck_multiply

        res = speck_multiply(a, b, ctx=ctx, mode="execute", device=device)
        print(
            f"spECK (executed): C nnz {res.c.nnz}, "
            f"{res.time_s * 1e3:.3f} ms simulated, "
            f"{res.gflops(ctx.flops):.2f} GFLOPS"
        )
        return 0
    print(f"{'method':10s} {'time(ms)':>9s} {'GFLOPS':>8s} {'mem(MB)':>8s}")
    for algo in all_algorithms(device=device, names=names):
        r = algo.run(ctx)
        if not r.valid:
            kind = f"{r.failure_info.kind}: " if r.failure_info else ""
            print(f"{algo.name:10s}    FAILED  ({kind}{r.failure[:48]})")
            continue
        print(
            f"{algo.name:10s} {r.time_s * 1e3:>9.3f} "
            f"{r.gflops(ctx.flops):>8.2f} {r.peak_mem_bytes / 1e6:>8.2f}"
        )
    return 0


def _cmd_bench(args) -> int:
    from .eval import compute_table3, full_corpus, render_table3, run_suite, small_corpus

    cases = small_corpus() if args.small else full_corpus()
    result = run_suite(
        cases,
        verbose=True,
        faults=_fault_plan(args),
        checkpoint=getattr(args, "checkpoint", None),
        workers=getattr(args, "workers", 1),
    )
    print()
    print(render_table3(compute_table3(result), PAPER_LINEUP))
    return 0


def _cmd_tune(args) -> int:
    from .core.tuning import autotune
    from .eval import full_corpus, small_corpus

    cases = small_corpus() if args.small else full_corpus()
    res = autotune(cases)
    t2 = res.table2()
    print(f"{'':10s}{'ratio':>10s}{'rows':>10s}{'ratio*':>10s}{'rows*':>10s}")
    for stage in ("symbolic", "numeric"):
        row = t2[stage]
        print(
            f"{stage:10s}{row['ratio']:>10.2f}{row['rows']:>10d}"
            f"{row['ratio*']:>10.2f}{row['rows*']:>10d}"
        )
    print(f"average slowdown vs best combination: {res.final_slowdown * 100:.2f}%")
    print(f"best-combination accuracy: {res.accuracy * 100:.1f}%")
    return 0


def _cmd_spy(args) -> int:
    from .eval.report import spy_text

    a = _load_matrix(args)
    print(f"{a.rows} x {a.cols}, nnz {a.nnz}")
    print(spy_text(a, size=args.grid))
    return 0


def _cmd_info(args) -> int:
    a = _load_matrix(args)
    b = a if a.rows == a.cols else a.transpose()
    ctx = MultiplyContext(a, b)
    an = ctx.analysis
    nnz_rows = a.row_nnz()
    print(f"shape:         {a.rows} x {a.cols}")
    print(f"nnz(A):        {a.nnz}")
    print(f"nnz/row:       mean {nnz_rows.mean():.2f}, max {int(nnz_rows.max())}")
    print(f"products:      {ctx.total_products}")
    print(f"max row prods: {an.prod_max}")
    print(f"nnz(C):        {ctx.c_nnz}")
    print(f"compaction:    {ctx.compaction:.2f}")
    print(f"single-entry rows of A: {int((nnz_rows == 1).sum())}")
    return 0


def _cmd_serve_bench(args) -> int:
    from .serve import AdmissionPolicy, run_serve_bench

    report = run_serve_bench(
        spec=_workload_spec(args),
        device=PRESETS[args.device],
        n_workers=args.workers,
        plan_cache_bytes=int(args.cache_mb * 1e6),
        policy=AdmissionPolicy(max_queue_depth=args.queue_depth),
        faults=_fault_plan(args),
        plan_store_dir=args.plan_store,
        estimate=args.estimate,
        speculative=args.speculative,
    )
    return _emit_bench_report(args, report)


def _cmd_cluster_bench(args) -> int:
    from .cluster import ClusterSpec, run_cluster_bench

    spec = _workload_spec(args)
    try:
        cluster = ClusterSpec(
            n_nodes=args.nodes,
            devices=tuple(d.strip() for d in args.devices.split(",") if d.strip()),
            workers_per_node=args.workers,
            plan_cache_mb=args.cache_mb,
            queue_depth=args.queue_depth,
            spill_queue_depth=args.spill_depth,
            replicate_plans=not args.no_replication,
            seed=args.seed,
            plan_store_dir=args.plan_store,
            estimate=args.estimate,
            speculative=args.speculative,
            autoscale=args.autoscale,
            min_nodes=args.min_nodes,
            max_nodes=args.max_nodes,
            warm_join=not args.no_warm_join,
            scale_interval_s=args.scale_interval,
            target_p99_s=args.target_p99,
            replicate_top_k=args.replicate_top_k,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = run_cluster_bench(
        spec=spec,
        cluster=cluster,
        faults=_fault_plan(args),
        compare_single=not args.no_single_reference,
    )
    return _emit_bench_report(args, report, end="\n")


def _extension_summary(kind: str, res, case: str) -> dict:
    out = {
        "command": kind,
        "case": case,
        "valid": res.valid,
        "time_s": res.time_s if res.valid else None,
        "c_nnz": res.c.nnz if res.c is not None else None,
    }
    if res.failure_info is not None:
        out["failure"] = res.failure_info.as_dict()
    elif not res.valid:
        out["failure"] = {"message": res.failure}
    return out


def _emit_extension_result(args, kind: str, res, case: str, extra: str) -> int:
    if res.valid:
        print(f"{kind}: C nnz {res.c.nnz if res.c is not None else '-'}, "
              f"{res.time_s * 1e3:.3f} ms simulated{extra}")
    else:
        info = res.failure_info
        tag = f"{info.kind}/{info.stage}: " if info else ""
        print(f"{kind}: FAILED ({tag}{res.failure[:80]})")
    if args.json:
        import json as _json

        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(_extension_summary(kind, res, case), fh,
                       indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 0 if res.valid else 1


def _cmd_multigpu(args) -> int:
    from .extensions import multigpu_multiply

    a = _load_matrix(args)
    b = a if a.rows == a.cols else a.transpose()
    case = args.mtx or f"{args.family}-{args.size}"
    res = multigpu_multiply(
        a,
        b,
        args.n_devices,
        device=PRESETS[args.device],
        balance=args.balance,
        gather=args.gather,
        faults=_fault_plan(args),
        case_name=case,
    )
    extra = ""
    if res.valid:
        extra = (
            f" on {res.n_devices} devices "
            f"(compute {res.compute_s * 1e3:.3f} ms, "
            f"broadcast {res.broadcast_s * 1e3:.3f} ms"
            + (f", gather {res.gather_s * 1e3:.3f} ms" if args.gather else "")
            + ")"
        )
    return _emit_extension_result(args, "multigpu", res, case, extra)


def _cmd_partitioned(args) -> int:
    from .extensions import partitioned_multiply

    a = _load_matrix(args)
    b = a if a.rows == a.cols else a.transpose()
    case = args.mtx or f"{args.family}-{args.size}"
    res = partitioned_multiply(
        a,
        b,
        device=PRESETS[args.device],
        budget_bytes=int(args.budget_mb * 1e6) if args.budget_mb > 0 else None,
        faults=_fault_plan(args),
        case_name=case,
    )
    extra = ""
    if res.valid:
        extra = (
            f" in {res.n_slabs} slabs "
            f"(compute {res.compute_s * 1e3:.3f} ms, "
            f"transfer {res.transfer_s * 1e3:.3f} ms, "
            f"peak {res.peak_mem_bytes / 1e6:.1f} MB)"
        )
    return _emit_extension_result(args, "partitioned", res, case, extra)


def _cmd_check(args) -> int:
    import json as _json

    from .check import replay_reproducer, run_check
    from .check.graph_checks import GRAPH_MUTATIONS
    from .check.mutations import MUTATIONS

    device = PRESETS[args.device]
    if args.mutate and args.mutate not in MUTATIONS and args.mutate not in GRAPH_MUTATIONS:
        print(
            f"error: unknown mutation {args.mutate!r}; "
            f"have {sorted(MUTATIONS) + sorted(GRAPH_MUTATIONS)}",
            file=sys.stderr,
        )
        return 2
    if args.replay:
        report = replay_reproducer(
            args.replay, device=device, mutation=args.mutate or None
        )
    else:
        report = run_check(
            args.seed,
            args.cases,
            device=device,
            faults=_fault_plan(args),
            mutation=args.mutate or None,
            artifact_dir=args.artifact_dir,
            checkpoint=args.checkpoint,
            laws=not args.no_laws,
            verbose=True,
        )
    print(report.render())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.json}")
    return report.exit_code


_COMMANDS = {
    "multiply": _cmd_multiply,
    "bench": _cmd_bench,
    "tune": _cmd_tune,
    "spy": _cmd_spy,
    "info": _cmd_info,
    "serve-bench": _cmd_serve_bench,
    "cluster-bench": _cmd_cluster_bench,
    "multigpu": _cmd_multigpu,
    "partitioned": _cmd_partitioned,
    "check": _cmd_check,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for ``python -m repro``.

    User errors — malformed matrices, bad fault specs, missing files,
    structured simulation failures — exit with code 2 and a one-line
    message on stderr instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FaultSpecError as exc:
        print(f"error: invalid --faults spec: {exc}", file=sys.stderr)
    except MatrixMarketError as exc:
        print(f"error: bad MatrixMarket input: {exc}", file=sys.stderr)
    except SpGEMMError as exc:
        print(f"error: {exc.kind} failure: {exc}", file=sys.stderr)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
