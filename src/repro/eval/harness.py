"""Evaluation harness: run algorithms over a corpus, collect records.

One :class:`RunRecord` per (matrix, algorithm) holds everything the tables
and figures need: simulated time, peak memory, validity, FLOPs.  The
harness computes the exact structural facts of each matrix once (via the
shared :class:`~repro.core.context.MultiplyContext`) and hands them to
every algorithm, so a full corpus sweep is dominated by one exact multiply
per matrix rather than one per (matrix × algorithm).

Robustness (see ``docs/ROBUSTNESS.md``): the harness is crash-proof — a
failing algorithm produces an invalid :class:`RunRecord` carrying a
structured :class:`~repro.faults.FailureInfo` rather than killing the
sweep — and :func:`run_suite` can checkpoint each finished case to a JSONL
file and resume an interrupted sweep from it.

Parallel sweeps run on a fork-based
:class:`~concurrent.futures.ProcessPoolExecutor`, one task per case:
workers inherit the case list at fork time, build each case's operands
from its own seeded generator and return records as checksummed Plan-IR
frames (:func:`repro.serve.plan_ir.encode_record`).  If a worker dies,
the pool breaks and the parent evaluates every unfinished case inline,
so the sweep (and its checkpoint) always completes.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..baselines import SpGEMMAlgorithm, all_algorithms
from ..core.context import MultiplyContext
from ..faults import FailureInfo, FaultPlan
from ..gpu import DeviceSpec, TITAN_V
from ..result import SpGEMMResult
from ..serve.plan_ir import decode_record, encode_record
from .checkpoint import append_jsonl, iter_jsonl, repair_torn_tail
from .suite import MatrixCase

__all__ = [
    "RunRecord",
    "MatrixRecord",
    "EvalResult",
    "run_suite",
    "evaluate_case",
    "effective_workers",
]


def _jsonable(obj: object) -> object:
    """Coerce numpy scalars/arrays (as found in decision dicts) to JSON."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    item = getattr(obj, "item", None)
    if callable(item):
        try:
            return _jsonable(item())
        except (TypeError, ValueError):
            pass
    tolist = getattr(obj, "tolist", None)
    if callable(tolist):
        return _jsonable(tolist())
    return str(obj)


@dataclass
class RunRecord:
    """Outcome of one algorithm on one matrix."""

    matrix: str
    method: str
    time_s: float
    peak_mem_bytes: int
    valid: bool
    sorted_output: bool
    stage_times: Dict[str, float] = field(default_factory=dict)
    decisions: Dict[str, object] = field(default_factory=dict)
    #: Human-readable failure reason (empty for valid runs).
    failure: str = ""
    #: Structured failure classification (``None`` for valid runs).
    failure_info: Optional[FailureInfo] = None
    #: Retry attempts consumed before this outcome.
    retries: int = 0

    def gflops(self, flops: int) -> float:
        if not self.valid or self.time_s <= 0:
            return 0.0
        return flops / self.time_s / 1e9

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSONL checkpoints."""
        return {
            "matrix": self.matrix,
            "method": self.method,
            "time_s": self.time_s,
            "peak_mem_bytes": int(self.peak_mem_bytes),
            "valid": bool(self.valid),
            "sorted_output": bool(self.sorted_output),
            "stage_times": _jsonable(self.stage_times),
            "decisions": _jsonable(self.decisions),
            "failure": self.failure,
            "failure_info": (
                self.failure_info.as_dict() if self.failure_info else None
            ),
            "retries": int(self.retries),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "RunRecord":
        info = d.get("failure_info")
        return cls(
            matrix=str(d["matrix"]),
            method=str(d["method"]),
            time_s=float(d["time_s"]),
            peak_mem_bytes=int(d["peak_mem_bytes"]),
            valid=bool(d["valid"]),
            sorted_output=bool(d.get("sorted_output", True)),
            stage_times=dict(d.get("stage_times") or {}),
            decisions=dict(d.get("decisions") or {}),
            failure=str(d.get("failure", "")),
            failure_info=FailureInfo.from_dict(info) if info else None,
            retries=int(d.get("retries", 0)),
        )


@dataclass
class MatrixRecord:
    """Structural facts of one corpus matrix (Table 4 columns)."""

    name: str
    family: str
    rows: int
    cols: int
    nnz_a: int
    products: int
    nnz_c: int
    #: Longest output row (Fig. 12's x-axis).
    max_c_row_nnz: int = 0

    @property
    def flops(self) -> int:
        return 2 * self.products

    @property
    def compaction(self) -> float:
        return self.products / max(1, self.nnz_c)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "family": self.family,
            "rows": int(self.rows),
            "cols": int(self.cols),
            "nnz_a": int(self.nnz_a),
            "products": int(self.products),
            "nnz_c": int(self.nnz_c),
            "max_c_row_nnz": int(self.max_c_row_nnz),
        }

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "MatrixRecord":
        return cls(
            name=str(d["name"]),
            family=str(d.get("family", "")),
            rows=int(d["rows"]),
            cols=int(d["cols"]),
            nnz_a=int(d["nnz_a"]),
            products=int(d["products"]),
            nnz_c=int(d["nnz_c"]),
            max_c_row_nnz=int(d.get("max_c_row_nnz", 0)),
        )


@dataclass
class EvalResult:
    """All records of one corpus sweep."""

    matrices: Dict[str, MatrixRecord] = field(default_factory=dict)
    runs: List[RunRecord] = field(default_factory=list)

    def methods(self) -> List[str]:
        seen: List[str] = []
        for r in self.runs:
            if r.method not in seen:
                seen.append(r.method)
        return seen

    def by_matrix(self, matrix: str) -> List[RunRecord]:
        return [r for r in self.runs if r.matrix == matrix]

    def by_method(self, method: str) -> List[RunRecord]:
        return [r for r in self.runs if r.method == method]

    def record(self, matrix: str, method: str) -> Optional[RunRecord]:
        for r in self.runs:
            if r.matrix == matrix and r.method == method:
                return r
        return None


def evaluate_case(
    case: MatrixCase,
    algorithms: Sequence[SpGEMMAlgorithm],
    *,
    release: bool = True,
    faults: Optional[FaultPlan] = None,
) -> tuple[MatrixRecord, List[RunRecord]]:
    """Run every algorithm on one corpus case.

    Crash-proof: an exception escaping ``algo.run`` — a structured
    :class:`~repro.faults.SpGEMMError` or any unexpected crash — is
    converted into an invalid :class:`RunRecord` with a
    :class:`~repro.faults.FailureInfo`, so one bad (matrix, method) pair
    can never kill a sweep.
    """
    a, b = case.matrices()
    ctx = MultiplyContext(a, b)
    ctx.faults = faults
    ctx.case_name = case.name
    matrix_record = MatrixRecord(
        name=case.name,
        family=case.family,
        rows=a.rows,
        cols=b.cols,
        nnz_a=a.nnz,
        products=ctx.total_products,
        nnz_c=ctx.c_nnz,
        max_c_row_nnz=int(ctx.c_row_nnz.max()) if ctx.c_row_nnz.size else 0,
    )
    runs: List[RunRecord] = []
    for algo in algorithms:
        try:
            res: SpGEMMResult = algo.run(ctx)
        except Exception as exc:  # noqa: BLE001 - sweep must survive anything
            res = SpGEMMResult.failed(algo.name, FailureInfo.from_exception(exc))
        runs.append(
            RunRecord(
                matrix=case.name,
                method=res.method,
                time_s=res.time_s,
                peak_mem_bytes=res.peak_mem_bytes,
                valid=res.valid,
                sorted_output=res.sorted_output,
                stage_times=res.stage_times,
                decisions=res.decisions,
                failure=res.failure,
                failure_info=res.failure_info,
                retries=res.retries,
            )
        )
    if release:
        case.release()
    return matrix_record, runs


#: One finished case: its matrix record and one run record per algorithm.
_CaseRecords = Tuple[MatrixRecord, List[RunRecord]]


def _load_checkpoint(path: str) -> Dict[str, _CaseRecords]:
    """Read finished cases from a JSONL checkpoint (missing file is empty)."""
    out: Dict[str, _CaseRecords] = {}
    for entry in iter_jsonl(path):
        mrec = MatrixRecord.from_dict(entry["matrix"])
        out[mrec.name] = (mrec, [RunRecord.from_dict(r) for r in entry["runs"]])
    return out


#: State of a pool sweep, ``(cases, algorithms, faults)``, set in each
#: forked worker by :func:`_init_worker`.  Cases hold generator closures
#: and algorithms hold device closures, neither of which pickles, so they
#: reach the workers through fork-time memory inheritance.
_POOL_STATE: Optional[
    Tuple[List[MatrixCase], List[SpGEMMAlgorithm], Optional[FaultPlan]]
] = None

#: Test hook: case names whose evaluation makes a *worker* die abruptly
#: (``os._exit``), exercising the parent's crash-recovery path.  Only
#: consulted inside pool workers; inherited at fork time.
_CRASH_CASES: Set[str] = set()


def effective_workers(workers: int) -> int:
    """Requested worker count clamped to the machine's CPU count.

    Oversubscribing a CPU-bound pool only adds scheduling noise, so
    :func:`run_suite` (and the wall-clock bench) run with at most one
    worker per core.
    """
    return max(1, min(int(workers), os.cpu_count() or 1))


def _init_worker(state) -> None:
    """Pool initializer: keep the fork-inherited sweep state."""
    global _POOL_STATE
    _POOL_STATE = state


def _pool_case(idx: int) -> bytes:
    """Evaluate case ``idx`` in a pool worker; return its record frame.

    The worker builds the operands from the case's own seeded generator,
    exactly as the sequential path does, so every byte evaluated matches
    a ``workers=1`` sweep.  The records travel back as one checksummed
    Plan-IR frame (:func:`~repro.serve.plan_ir.encode_record`): a torn
    or corrupted transfer raises ``PlanIRError`` in the parent instead of
    silently damaging a record.
    """
    assert _POOL_STATE is not None
    case_list, algos, faults = _POOL_STATE
    case = case_list[idx]
    if case.name in _CRASH_CASES:
        os._exit(17)
    mrec, runs = evaluate_case(case, algos, faults=faults)
    return encode_record(
        {
            "idx": idx,
            "matrix": mrec.as_dict(),
            "runs": [r.as_dict() for r in runs],
        }
    )


def _pool_sweep(
    case_list: List[MatrixCase],
    pending: List[int],
    algos: List[SpGEMMAlgorithm],
    faults: Optional[FaultPlan],
    n_proc: int,
) -> Iterator[Tuple[int, _CaseRecords]]:
    """Evaluate ``pending`` on ``n_proc`` forked workers, in completion order.

    Yields ``(idx, (matrix_record, runs))`` per case as it finishes.  A
    worker death breaks the whole pool: the cases it had not yet yielded
    are left for the caller to evaluate inline.
    """
    pool = ProcessPoolExecutor(
        n_proc,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=((case_list, algos, faults),),
    )
    try:
        futures = [pool.submit(_pool_case, idx) for idx in pending]
        for fut in as_completed(futures):
            try:
                frame = fut.result()
            except BrokenProcessPool:
                continue
            rec = decode_record(frame)
            yield int(rec["idx"]), (
                MatrixRecord.from_dict(rec["matrix"]),
                [RunRecord.from_dict(r) for r in rec["runs"]],
            )
    finally:
        pool.shutdown(cancel_futures=True)


def _report_case(mrec: MatrixRecord, runs: List[RunRecord]) -> None:  # pragma: no cover
    """One console line per finished case (console convenience)."""
    valid = [r for r in runs if r.valid]
    if valid:
        best = min(valid, key=lambda r: r.time_s)
        winner, best_t = best.method, best.time_s
    else:
        winner, best_t = "-", float("inf")
    print(
        f"{mrec.name:24s} products={mrec.products:>10d} "
        f"best={winner:10s} {best_t * 1e3:8.3f} ms"
    )


def run_suite(
    cases: Iterable[MatrixCase],
    algorithms: Optional[Sequence[SpGEMMAlgorithm]] = None,
    device: DeviceSpec = TITAN_V,
    *,
    verbose: bool = False,
    faults: Optional[FaultPlan] = None,
    checkpoint: Optional[str] = None,
    workers: int = 1,
) -> EvalResult:
    """Sweep a corpus with a set of algorithms (the paper line-up by default).

    With ``checkpoint`` set, each finished case is appended to the JSONL
    file as ``{"matrix": ..., "runs": [...]}``; re-running with the same
    path resumes the sweep, skipping cases already on disk.

    With ``workers > 1`` the pending cases fan out over a fork-based
    process pool (see :func:`_pool_sweep`), one task per case.  Records
    are identical to a sequential sweep — workers build each case's
    operands from its own seeded generator, and fault plans derive every
    coin flip from (seed, rule, method, matrix, event counter), so
    injection is order-independent by construction.  The checkpoint is
    appended in completion order (each case lands the moment it
    finishes, preserving crash-proof resume).  If a worker dies, the
    parent evaluates every unfinished case inline.  ``workers`` is
    clamped to the CPU count (oversubscription only adds noise), and the
    sweep runs sequentially when the platform lacks ``fork`` (the corpus
    cases hold generator closures that cannot be pickled to spawned
    workers) or only one case is pending.

    The result holds exactly the requested cases, in corpus order,
    whether they come from the checkpoint, the pool or the sequential
    path.
    """
    algos = list(algorithms) if algorithms is not None else all_algorithms(device)
    case_list = list(cases)
    saved = _load_checkpoint(checkpoint) if checkpoint else {}
    repair_torn_tail(checkpoint)
    finished = {c.name: saved[c.name] for c in case_list if c.name in saved}
    if verbose:  # pragma: no cover - console convenience
        for name in finished:
            print(f"{name:24s} (checkpointed, skipped)")
    pending = [i for i, c in enumerate(case_list) if c.name not in finished]

    def accept(name: str, records: _CaseRecords) -> None:
        finished[name] = records
        mrec, runs = records
        append_jsonl(
            checkpoint,
            {"matrix": mrec.as_dict(), "runs": [r.as_dict() for r in runs]},
        )
        if verbose:  # pragma: no cover - console convenience
            _report_case(mrec, runs)

    n_proc = min(effective_workers(workers), len(pending))
    if n_proc > 1 and "fork" in multiprocessing.get_all_start_methods():
        for idx, records in _pool_sweep(case_list, pending, algos, faults, n_proc):
            accept(case_list[idx].name, records)
    # The sequential sweep, and the inline rescue of cases a broken pool
    # left unfinished.
    for idx in pending:
        case = case_list[idx]
        if case.name not in finished:
            accept(case.name, evaluate_case(case, algos, faults=faults))

    out = EvalResult()
    for case in case_list:
        mrec, runs = finished[case.name]
        out.matrices[case.name] = mrec
        out.runs.extend(runs)
    return out
