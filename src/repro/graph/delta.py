"""Incremental SpGEMM: patch ``C = A · B`` after a row-level delta to A.

Dynamic-graph pipelines (streaming triangle counts, evolving MCL flows,
re-meshed AMG hierarchies) change a *few rows* of A between multiplies.
Recomputing the whole product discards the dominant unchanged part of C
— and, with the plan cache, the dominant unchanged part of spECK's
analysis and binning artifacts too.

The contract here is **bit-exactness**: every row of C is either copied
verbatim from the previous product or recomputed by the very same
engine that a full recomputation would run, so the incremental result is
bit-identical to multiplying from scratch (the differential oracle in
:mod:`repro.check` pins exactly this).  That forces the *blast radius*
— the set of output rows that must be recomputed — to be conservative:

* every row named by the delta (its A-row changed), plus
* when B is A itself (``A · A``-style iterations), every row of the new
  A that *references* a changed row — B's row ``j`` feeds every output
  row whose A-row holds column ``j``.

Deltas are invertible (:func:`invert_delta` captures the replaced rows),
and ``apply ∘ apply⁻¹`` restores A bit-exactly — the hypothesis property
the fuzz suite leans on.  Past :data:`RECOMPUTE_THRESHOLD` the engine
falls back to a plain full multiply: once most rows are dirty, splicing
costs more than it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Union

import numpy as np

from ..core.analysis import RowAnalysis, analyze
from ..core.speck import SpeckEngine
from ..faults import FaultPlan
from ..matrices.csr import CSR, INDEX_DTYPE, VALUE_DTYPE, expand_ranges
from ..result import SpGEMMResult
from ..serve.service import multiply_via

__all__ = [
    "RECOMPUTE_THRESHOLD",
    "RowDelta",
    "apply_delta",
    "blast_radius",
    "incremental_multiply",
    "invert_delta",
    "random_delta",
]

#: Share of output rows past which an update recomputes the whole product.
RECOMPUTE_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# Deltas
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RowDelta:
    """A structural row-replacement delta against one matrix.

    ``rows`` lists the affected row ids (sorted, unique); ``payload`` is a
    ``(len(rows), cols)`` CSR whose row ``k`` is the complete *new*
    content of row ``rows[k]`` — an empty payload row deletes the row.
    Full replacement (rather than entry-wise edits) keeps application and
    inversion trivially bit-exact.
    """

    rows: np.ndarray
    payload: CSR

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RowDelta(rows={self.rows.size}, payload_nnz={self.payload.nnz})"
        )


def random_delta(
    a: CSR,
    *,
    rng: Union[int, np.random.Generator],
    frac: float = 0.15,
    max_row_nnz: Optional[int] = None,
) -> RowDelta:
    """A seeded structural delta touching ``ceil(frac · rows)`` rows.

    Each chosen row is replaced with fresh random content (possibly
    empty — deletions are part of the family).  Deterministic given the
    seed; the fuzz families and the serve-bench workload builder both
    derive their deltas here.
    """
    if not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)
    if a.rows == 0:
        return RowDelta(
            rows=np.empty(0, dtype=INDEX_DTYPE),
            payload=CSR(
                np.zeros(1, dtype=INDEX_DTYPE),
                np.empty(0, dtype=INDEX_DTYPE),
                np.empty(0, dtype=VALUE_DTYPE),
                (0, a.cols),
                check=False,
            ),
        )
    n = max(1, min(a.rows, int(round(frac * a.rows))))
    rows = np.sort(rng.choice(a.rows, size=n, replace=False))
    if max_row_nnz is None:
        mean_nnz = a.nnz / max(a.rows, 1)
        max_row_nnz = max(1, min(a.cols, int(np.ceil(2.0 * mean_nnz)) + 1))
    coo_rows, coo_cols, coo_vals = [], [], []
    for k in range(n):
        nnz_k = int(rng.integers(0, max_row_nnz + 1))
        if nnz_k == 0:
            continue
        cols_k = np.sort(rng.choice(a.cols, size=nnz_k, replace=False))
        coo_rows.append(np.full(nnz_k, k, dtype=INDEX_DTYPE))
        coo_cols.append(cols_k.astype(INDEX_DTYPE))
        coo_vals.append(rng.uniform(-1.0, 1.0, size=nnz_k))
    if coo_rows:
        payload = CSR.from_coo(
            np.concatenate(coo_rows),
            np.concatenate(coo_cols),
            np.concatenate(coo_vals),
            (n, a.cols),
            sum_duplicates=False,
        )
    else:
        payload = CSR(
            np.zeros(n + 1, dtype=INDEX_DTYPE),
            np.empty(0, dtype=INDEX_DTYPE),
            np.empty(0, dtype=VALUE_DTYPE),
            (n, a.cols),
            check=False,
        )
    return RowDelta(rows=rows, payload=payload)


def _splice_rows(base: CSR, rows: np.ndarray, repl: CSR) -> CSR:
    """Replace ``rows`` of ``base`` with the rows of ``repl``, verbatim.

    Pure array copies — unchanged rows keep their exact bits, which is
    what makes both :func:`apply_delta` round-trips and incremental
    C-patching bit-exact.
    """
    counts = base.row_nnz().copy()
    counts[rows] = repl.row_nnz()
    indptr = np.zeros(base.rows + 1, dtype=INDEX_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    indices = np.empty(int(indptr[-1]), dtype=INDEX_DTYPE)
    data = np.empty(int(indptr[-1]), dtype=VALUE_DTYPE)

    keep = np.ones(base.rows, dtype=bool)
    keep[rows] = False
    keep_rows = np.flatnonzero(keep)
    src_old = expand_ranges(base.indptr[keep_rows], counts[keep_rows])
    dst_old = expand_ranges(indptr[keep_rows], counts[keep_rows])
    indices[dst_old] = base.indices[src_old]
    data[dst_old] = base.data[src_old]

    dst_new = expand_ranges(indptr[rows], counts[rows])
    indices[dst_new] = repl.indices
    data[dst_new] = repl.data
    return CSR(indptr, indices, data, base.shape, check=False)


def apply_delta(a: CSR, delta: RowDelta) -> CSR:
    """The new matrix with the delta's rows replaced (bit-exact splice)."""
    if delta.payload.cols != a.cols:
        raise ValueError(
            f"delta is for {delta.payload.cols}-column matrices, "
            f"a has {a.cols}"
        )
    return _splice_rows(a, delta.rows, delta.payload)


def invert_delta(a: CSR, delta: RowDelta) -> RowDelta:
    """The delta that undoes ``delta`` when applied to ``apply_delta(a, delta)``.

    Captures ``a``'s current content of the affected rows, so
    ``apply_delta(apply_delta(a, d), invert_delta(a, d))`` restores ``a``
    bit-exactly.
    """
    return RowDelta(rows=delta.rows, payload=a.select_rows(delta.rows))


# ---------------------------------------------------------------------------
# Blast radius
# ---------------------------------------------------------------------------
def blast_radius(
    a_new: CSR, delta: RowDelta, *, self_product: bool = False
) -> np.ndarray:
    """Output rows of ``C = A_new · B`` that may differ from the old product.

    With an independent (unchanged) B, only the delta's own rows can
    change.  When B *is* A (``self_product``), a changed row ``j`` also
    flows into every output row whose A-row references column ``j`` —
    those referencing rows are found with one pass over ``A_new``'s
    column indices.  Conservative by construction: a recomputed row that
    happens to come out identical costs time, never correctness.
    """
    if not self_product or delta.rows.size == 0:
        return delta.rows.copy()
    hits = np.isin(a_new.indices, delta.rows)
    referencing = np.unique(a_new.row_ids()[hits])
    return np.union1d(delta.rows, referencing)


# ---------------------------------------------------------------------------
# Incremental multiply
# ---------------------------------------------------------------------------
def _patched_plan(old_plan, key, sub_analysis, affected, c_row_nnz, device, params):
    """A ready plan for the *new* operands, row-patched from the old one.

    Per-row analysis arrays are copied and overwritten only at the
    affected rows (the aggregates recompute in ``RowAnalysis.__post_init__``);
    the binning decisions and plans come from the same
    :func:`~repro.core.global_lb.plan_stage` calls on the same exact
    inputs (:func:`~repro.core.global_lb.symbolic_inputs`,
    :func:`~repro.core.global_lb.numeric_inputs`) as the engine's cold
    exact path, and the pass records from the same ``run_pass``, so a
    later cold multiply of the new operands produces an identical plan.
    Host-side maintenance — none of it is charged device time.
    """
    from ..core.config import build_configs
    from ..core.global_lb import numeric_inputs, plan_stage, symbolic_inputs
    from ..core.passes import run_pass
    from ..serve.plan_cache import CachedPlan

    old = old_plan.analysis
    patched = {}
    for name in (
        "products", "max_ref_row", "col_min", "col_max", "a_row_nnz",
        "adjacency",
    ):
        arr = getattr(old, name).copy()
        arr[affected] = getattr(sub_analysis, name)
        patched[name] = arr
    analysis = RowAnalysis(**patched)

    configs = build_configs(device)
    sym_inputs = symbolic_inputs(analysis)
    num_inputs = numeric_inputs(c_row_nnz, params)
    use_lb_sym, plan_sym = plan_stage(
        "symbolic", sym_inputs, analysis.rows, params, configs
    )
    use_lb_num, plan_num = plan_stage(
        "numeric", num_inputs, analysis.rows, params, configs
    )
    sym = run_pass(
        "symbolic", analysis, plan_sym, c_row_nnz, configs, params, device
    )
    num = run_pass(
        "numeric", analysis, plan_num, c_row_nnz, configs, params, device
    )
    plan = CachedPlan(key=key)
    plan.populate(
        analysis=analysis,
        c_row_nnz=c_row_nnz,
        use_lb_symbolic=use_lb_sym,
        use_lb_numeric=use_lb_num,
        ratio_symbolic=float(sym_inputs[1]),
        ratio_numeric=float(num_inputs[1]),
        plan_sym=plan_sym,
        plan_num=plan_num,
        sym=sym,
        num=num,
    )
    return plan


def incremental_multiply(
    a_old: CSR,
    b: CSR,
    c_old: CSR,
    delta: RowDelta,
    *,
    service=None,
    engine: Optional[SpeckEngine] = None,
    mode: str = "model",
    blast_mode: str = "auto",
    faults: Optional[FaultPlan] = None,
    case_name: str = "",
    brownout=None,
) -> SpGEMMResult:
    """Update ``C = A · B`` after a row delta to A, bit-exactly.

    ``c_old`` must be the engine's exact product of ``(a_old, b)``.  When
    ``b is a_old`` the multiply is treated as a self-product (``A · A``):
    B changes along with A and the blast radius widens to referencing
    rows.  Affected output rows are recomputed by multiplying the
    affected A-rows (as a sub-matrix) through the engine and spliced into
    ``c_old``; untouched rows are copied verbatim.  That row-subset
    product always runs on the bare engine (``service.engine`` when a
    service is given): it must never enter the plan cache or the store.

    Past :data:`RECOMPUTE_THRESHOLD` (recomputed-rows fraction) the engine
    recomputes everything — through the service when one is given, at
    the dispatch's ``brownout`` rung, so the full product still enjoys
    plan caching.  Below it, if the service holds a cached plan for the
    *old* operands, a row-patched plan for the new operands is installed
    (:func:`_patched_plan`), so the next request for the updated
    structure is a plan hit without any cold analysis.

    Returns one ``"incremental"`` :class:`~repro.result.SpGEMMResult`
    whose ``decisions`` carry ``rows_total``, ``rows_recomputed``,
    ``recompute_ratio``, ``full_recompute`` and, on the patch path,
    ``plan_patched``.

    ``blast_mode`` is ``"auto"`` (conservative, correct) or ``"narrow"``
    (delta rows only, *ignoring* self-product data flow — kept as the
    planted-bug hook the differential oracle must catch; never use it
    for real work).
    """
    if mode not in ("model", "execute"):
        raise ValueError(f"unknown mode {mode!r}")
    if blast_mode not in ("auto", "narrow"):
        raise ValueError(f"unknown blast_mode {blast_mode!r}")
    if c_old.shape != (a_old.rows, b.cols):
        raise ValueError(
            f"c_old shape {c_old.shape} does not match "
            f"({a_old.rows}, {b.cols})"
        )
    self_product = b is a_old
    a_new = apply_delta(a_old, delta)
    b_new = a_new if self_product else b
    rows_total = a_new.rows

    if engine is None:
        engine = service.engine if service is not None else SpeckEngine()

    if blast_mode == "narrow":
        affected = delta.rows.copy()
    else:
        affected = blast_radius(a_new, delta, self_product=self_product)
    ratio = affected.size / rows_total if rows_total else 0.0

    decisions: Dict[str, object] = {
        "incremental": True,
        "delta_rows": int(delta.rows.size),
        "blast_rows": int(affected.size),
        "blast_mode": blast_mode,
        "self_product": self_product,
        "rows_total": int(rows_total),
    }

    if ratio > RECOMPUTE_THRESHOLD or affected.size == 0:
        # ---- full recompute fallback (or an empty delta: nothing to do,
        # but the product is recomputed through the normal path so the
        # caller still gets a fresh engine result).
        res = multiply_via(
            service, engine, a_new, b_new, mode=mode, faults=faults,
            case_name=case_name, brownout=brownout,
        )
        decisions["full_recompute"] = True
        decisions["recompute_ratio"] = 1.0
        decisions["rows_recomputed"] = int(rows_total)
        decisions.update(res.decisions)
        return _incremental_result(res, res.c, decisions)

    # ---- incremental path: multiply only the affected rows ------------
    sub = a_new.select_rows(affected)
    res = multiply_via(
        None, engine, sub, b_new, mode=mode, faults=faults,
        case_name=case_name,
    )
    if not res.valid:
        return _incremental_result(res, None, decisions)
    c_new = _splice_rows(c_old, affected, res.c)

    # ---- patch the cached plan for the new structure -------------------
    plan_patched = False
    if service is not None:
        from ..serve.plan_cache import plan_key

        old_plan = service.plans.peek(plan_key(a_old, b))
        if old_plan is not None and old_plan.ready:
            sub_analysis = analyze(sub, b_new)
            new_nnz = old_plan.c_row_nnz.copy()
            new_nnz[affected] = res.c.row_nnz()
            new_plan = _patched_plan(
                old_plan, plan_key(a_new, b_new), sub_analysis, affected,
                new_nnz, engine.device, engine.params,
            )
            # Adopted before it is stamped, so adopt has no checksum to
            # re-verify: the stamp encodes the plan once, for the store too.
            service.plans.adopt(new_plan)
            service.persist_plan(new_plan)
            plan_patched = True
            service.metrics.counter(
                "service.plans_patched",
                "cached plans row-patched after an incremental delta",
            ).inc()

    decisions["full_recompute"] = False
    decisions["recompute_ratio"] = float(ratio)
    decisions["rows_recomputed"] = int(affected.size)
    decisions["plan_patched"] = plan_patched
    return _incremental_result(res, c_new, decisions)


def _incremental_result(
    res: SpGEMMResult, c: Optional[CSR], decisions: Dict[str, object]
) -> SpGEMMResult:
    """The ``"incremental"`` result of the multiply ``res`` that ran:
    its time, memory, stage times and retries with the updated ``c``, or
    its structured failure."""
    if not res.valid:
        out = SpGEMMResult.failed("incremental", res.failure_info)
        out.decisions.update(decisions)
        return out
    return SpGEMMResult(
        method="incremental", c=c, time_s=res.time_s,
        peak_mem_bytes=res.peak_mem_bytes,
        stage_times=dict(res.stage_times), retries=res.retries,
        decisions=decisions,
    )
