"""The spECK pipeline (paper §4, Fig. 2).

Six stages: row analysis → (conditional) global load balancing → symbolic
SpGEMM → (conditional) global load balancing → numeric SpGEMM → sorting.
Each stage consumes only information gathered by the earlier ones, and the
two load-balancing stages run only when the auto-tuned thresholds predict
the gain exceeds the cost — the paper's central idea of *conditional*
lightweight analysis.

Two modes:

* ``mode="model"`` (default) — full cost simulation; the result matrix is
  taken from the shared exact engine.  Used by the evaluation harness.
* ``mode="execute"`` — additionally computes C through the *executable*
  accumulators (real linear-probing hash maps, windowed dense arrays,
  direct referencing), following the same per-row decisions.  Used by the
  test suite to prove the adaptive pipeline is numerically correct.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve uses core)
    from ..estimate.sampler import MultiplyEstimate
    from ..serve.plan_cache import CachedPlan

from ..faults import FaultScope, SpGEMMError
from ..gpu import DeviceSpec, MemoryLedger, TITAN_V
from ..gpu.trace import Trace
from ..matrices.csr import CSR
from ..result import SpGEMMResult
from .analysis import RowAnalysis, analysis_time_s
from .config import KernelConfig, build_configs
from .batch_execute import execute_batched, execute_scalar
from .context import MultiplyContext, device_csr_bytes
from .global_lb import (
    BlockPlan, StageInputs, load_balance_time_s, numeric_inputs, plan_stage,
    symbolic_inputs,
)
from .params import DEFAULT_PARAMS, SpeckParams
from .passes import PassResult, radix_sort_time_s, run_pass

__all__ = ["speck_multiply", "PlanHit", "SpeckEngine"]


@dataclass(frozen=True)
class PlanHit:
    """What every hit on one ready plan charges, derived once per plan.

    A hit reuses the plan's row analysis, block plans and pass records,
    so its stage times, total, output size and (absent an injected spill)
    decisions are constants of the plan and the engine's device.  The
    engine builds this on a plan's first hit and keeps it on the plan
    (:attr:`~repro.serve.plan_cache.CachedPlan.hit_record`); each hit
    copies the two dicts.
    """

    #: The engine whose device and configurations priced the record.
    engine: "SpeckEngine"
    #: The pristine numeric pass record every hit charges.
    num: PassResult
    #: Non-zeros of C, summed once from the plan's row sizes.
    c_nnz: int
    #: Device bytes of C (the hit's one output allocation).
    output_bytes: int
    #: The hit's stage times and decisions; each hit copies both.
    stage_times: Dict[str, float]
    decisions: Dict[str, object]
    #: Call overhead plus every stage: a hit's modelled seconds.
    time_s: float


def _pass_decisions(
    use_lb_sym: bool, use_lb_num: bool, ratio_sym: float, ratio_num: float,
    sym: PassResult, num: PassResult,
) -> Dict[str, object]:
    """The decision entries every successful attempt reports."""
    return dict(
        used_lb_symbolic=use_lb_sym,
        used_lb_numeric=use_lb_num,
        ratio_symbolic=ratio_sym,
        ratio_numeric=ratio_num,
        accum_blocks_symbolic=sym.accum_blocks,
        accum_blocks_numeric=num.accum_blocks,
        global_hash_blocks=sym.global_hash_blocks + num.global_hash_blocks,
        mean_group_size=num.mean_group_size,
        mean_utilization=num.mean_utilization,
    )


def _trace_kernels(
    trace: Trace, stage: str, rec: PassResult, configs: list[KernelConfig]
) -> None:
    """One trace record per configuration ``rec`` launched."""
    for cfg_id, t in sorted(rec.kernel_times.items()):
        trace.record(
            f"{stage} k{cfg_id}", t, category="kernel",
            meta={
                "threads": configs[cfg_id].threads,
                "scratch": configs[cfg_id].scratch_bytes,
            },
        )


def _trace_numeric(
    trace: Trace, num: PassResult, sorting_s: float, use_lb_sym: bool,
    use_lb_num: bool, configs: list[KernelConfig],
) -> None:
    """The trace records a cold attempt and a hit share: numeric kernels,
    the radix sort and the decision mark."""
    _trace_kernels(trace, "numeric", num, configs)
    if sorting_s > 0:
        trace.record(
            "radix sort", sorting_s, category="stage",
            meta={"entries": num.radix_entries},
        )
    trace.mark(
        "decisions",
        lb_symbolic=use_lb_sym,
        lb_numeric=use_lb_num,
        accumulators=str(num.accum_blocks),
    )


class SpeckEngine:
    """Reusable spECK instance bound to a device and parameter set."""

    def __init__(
        self,
        device: DeviceSpec = TITAN_V,
        params: SpeckParams = DEFAULT_PARAMS,
        name: str = "spECK",
    ) -> None:
        self.device = device
        self.params = params
        self.name = name
        self.configs: list[KernelConfig] = build_configs(device)

    # ------------------------------------------------------------------
    def multiply(
        self,
        a: CSR,
        b: CSR,
        *,
        ctx: Optional[MultiplyContext] = None,
        mode: str = "model",
        trace: Optional[Trace] = None,
        plan: Optional["CachedPlan"] = None,
        estimate: Optional["MultiplyEstimate"] = None,
    ) -> SpGEMMResult:
        """Run the full pipeline on ``C = A · B``.

        Pass a :class:`~repro.gpu.trace.Trace` to record a structured
        timeline of stages and per-configuration kernel launches.

        Pass a :class:`~repro.serve.plan_cache.CachedPlan` to reuse (or,
        on the first call, capture) the structure-derived stages.  A ready
        plan skips row analysis, both load-balancing stages and the whole
        symbolic pass — their outputs depend only on the operand structure
        the plan was keyed on — so the cost model charges only the numeric
        pass, sorting, and call overhead (see :meth:`_hit`).  An unready
        plan is populated from the cold run's artifacts as a side effect.

        Pass a :class:`~repro.estimate.MultiplyEstimate` to plan
        *speculatively* on a cold run: the estimation kernel's modelled
        time replaces the exact analysis and symbolic stages, the output
        is allocated at the estimate's confidence bound, and the
        load-balancing decisions come from the sampled ratios.  The
        realized stats are verified against the bounds; a violation
        charges the full exact pipeline into ``stage_times["fallback"]``
        and re-derives every decision exactly.  The executed result is
        bit-identical either way (ignored when a ready plan is supplied —
        a hit is cheaper than any estimate).

        Resilience policy: a retryable failure (device OOM, injected
        transient fault) triggers one fallback attempt with global load
        balancing forced on in both stages and the opt-in 96 KB scratchpad
        configuration disabled.  The wasted first attempt plus one
        re-allocation is charged to the model — it appears in the result's
        ``stage_times["retry"]``, total time, and the trace.
        """
        if mode not in ("model", "execute"):
            raise ValueError(f"unknown mode {mode!r}")
        ctx = ctx or MultiplyContext(a, b)
        fault_plan = getattr(ctx, "faults", None)
        scope = (
            fault_plan.scope(self.name, getattr(ctx, "case_name", ""))
            if fault_plan is not None
            else FaultScope(None, self.name)
        )
        try:
            if plan is not None and plan.ready:
                return self._hit(ctx, plan, mode, trace, scope)
            return self._attempt(
                ctx, mode, trace, self.params, self.configs, scope,
                retry_s=0.0, plan=plan, estimate=estimate,
            )
        except SpGEMMError as err:
            wasted = err.partial_time_s + self.device.malloc_s
            if not err.retryable:
                return SpGEMMResult.failed(self.name, err)
            # Fallback attempt: forced global LB, reduced per-block scratch.
            scope.new_attempt()
            retry_params = self.params.with_overrides(
                force_lb_symbolic=True, force_lb_numeric=True
            )
            retry_configs = (
                self.configs[:-1] if len(self.configs) > 1 else self.configs
            )
            if trace is not None:
                trace.record(
                    "retry (fallback)", wasted, category="stage",
                    meta={
                        "cause": err.kind,
                        "forced_global_lb": True,
                        "reduced_scratch": True,
                    },
                )
            try:
                # The fallback recomputes from scratch (forced LB and a
                # reduced config set invalidate any cached plan; the retry
                # runs exact — re-speculating after a failure is pointless).
                # A failed hit seeded ctx, so no structure is recomputed.
                res = self._attempt(
                    ctx, mode, trace, retry_params, retry_configs, scope,
                    retry_s=wasted, plan=None,
                )
            except SpGEMMError as err2:
                return SpGEMMResult.failed(self.name, err2, retries=1)
            res.retries = 1
            res.decisions["retried"] = True
            res.decisions["retry_cause"] = err.kind
            return res

    # ------------------------------------------------------------------
    def _attempt(
        self,
        ctx: MultiplyContext,
        mode: str,
        trace: Optional[Trace],
        params: SpeckParams,
        configs: list[KernelConfig],
        scope: FaultScope,
        retry_s: float,
        plan: Optional["CachedPlan"] = None,
        estimate: Optional["MultiplyEstimate"] = None,
    ) -> SpGEMMResult:
        """One cold pipeline attempt (a ready plan is served by
        :meth:`_hit` instead); raises :class:`SpGEMMError` on failure with
        the simulated time already spent attached.  An unready ``plan`` is
        populated from the attempt's artifacts."""
        a = ctx.a
        device = self.device
        bins_bytes = 8 * a.rows + 64 * len(configs)
        analysis = ctx.analysis
        stage_times: dict[str, float] = {}
        decisions: dict[str, object] = {}

        try:
            ledger = MemoryLedger(
                device, resident_bytes=ctx.input_bytes, faults=scope
            )
            speculative = estimate is not None
            if speculative:
                # ---- 1+3 replaced: sampled estimation -----------------
                # The estimation kernel stands in for the exact
                # analysis and symbolic passes; its bounds are
                # verified below once the realized structure is known.
                scope.enter_stage("estimate")
                scope.on_launch("estimate")
                skew = scope.estimate_skew()
                est = estimate if skew is None else estimate.skewed(skew)
                if skew is not None:
                    decisions["estimate_skew"] = float(skew)
                stage_times["estimate"] = est.time_s
                stage_times["analysis"] = 0.0
                sym_inputs = (
                    analysis.products,
                    float(est.ratio_symbolic),
                    int(est.prod_max.bound),
                )
            else:
                # ---- 1. row analysis ---------------------------------
                scope.enter_stage("analysis")
                scope.on_launch("analysis")
                stage_times["analysis"] = analysis_time_s(a.nnz, device)
                sym_inputs = symbolic_inputs(analysis)
            ratio_sym = sym_inputs[1]

            # ---- 2. symbolic load balancing ---------------------------
            scope.enter_stage("symbolic_lb")
            use_lb_sym, plan_sym, stage_times["symbolic_lb"] = self._bin_stage(
                "symbolic", sym_inputs, a.rows, params, configs, scope
            )
            if use_lb_sym:
                ledger.alloc(bins_bytes, "symbolic bins")

            # ---- 3. symbolic SpGEMM -----------------------------------
            scope.enter_stage("symbolic")
            c_row_nnz = ctx.c_row_nnz
            if speculative:
                # The symbolic kernel is skipped: C is allocated at
                # the estimate's confidence bound and the numeric
                # kernels emit row sizes directly into it.
                stage_times["symbolic"] = 0.0
                ledger.alloc(
                    device_csr_bytes(a.rows, int(est.c_nnz.bound)),
                    "C (speculative bound)",
                )
                decisions["speculative"] = True
                decisions["estimate_sample_size"] = est.sample_size
                bound_ok = (
                    analysis.prod_max <= est.prod_max.bound
                    and ctx.c_nnz <= est.c_nnz.bound
                    and analysis.prod_total <= est.products.bound
                )
                if bound_ok:
                    # The symbolic plan is final: price its record
                    # for the plan.  run_pass is host-side pure, so
                    # no symbolic kernels run (hence no launch or
                    # spill sites).
                    sym = sym_pristine = run_pass(
                        "symbolic", analysis, plan_sym, c_row_nnz,
                        configs, params, device,
                    )
                else:
                    # ---- fallback: the realized stats exceed the
                    # estimate's bounds — run the full exact analysis
                    # and symbolic pass after the fact, re-deriving
                    # every decision exactly, and charge it all into
                    # stage_times["fallback"].  The wasted estimation
                    # time and oversized/undersized C stay charged too.
                    scope.enter_stage("fallback")
                    scope.on_launch("analysis")
                    fallback_s = analysis_time_s(a.nnz, device)
                    sym_inputs = symbolic_inputs(analysis)
                    ratio_sym = sym_inputs[1]
                    spec_binned = use_lb_sym  # bins already allocated
                    use_lb_sym, plan_sym, lb_s = self._bin_stage(
                        "symbolic", sym_inputs, a.rows, params, configs, scope
                    )
                    if use_lb_sym and not spec_binned:
                        ledger.alloc(bins_bytes, "symbolic bins")
                    fallback_s += lb_s
                    sym_pristine, sym = self._symbolic_pass(
                        analysis, plan_sym, c_row_nnz, params, configs,
                        scope, ledger, decisions,
                    )
                    fallback_s += sym.time_s
                    stage_times["fallback"] = fallback_s
                    ledger.alloc(ctx.output_bytes, "C")
                    decisions["speculative_fallback"] = True
                    if plan is not None:
                        # The fallback computed the full exact pipeline:
                        # the captured plan is as good as a full-mode one.
                        plan.mode = "full"
                    speculative = False
            else:
                sym_pristine, sym = self._symbolic_pass(
                    analysis, plan_sym, c_row_nnz, params, configs,
                    scope, ledger, decisions,
                )
                stage_times["symbolic"] = sym.time_s

                # Output allocation (excluded from time per the paper's
                # methodology, included in peak memory).
                ledger.alloc(ctx.output_bytes, "C")

            # ---- 4. numeric load balancing ----------------------------
            scope.enter_stage("numeric_lb")
            if speculative:
                # Conservative speculative sizing: bin capacities from
                # the per-row product counts (always >= the output row
                # sizes the exact path would use), decision ratio from
                # the sampled output stats.
                fill = max(params.numeric_max_fill, 1e-9)
                num_inputs = (
                    np.ceil(analysis.products / fill).astype(np.int64),
                    float(est.ratio_numeric),
                    int(np.ceil(est.c_row_max.bound / fill)),
                )
            else:
                num_inputs = numeric_inputs(c_row_nnz, params)
            ratio_num = num_inputs[1]
            use_lb_num, plan_num, stage_times["numeric_lb"] = self._bin_stage(
                "numeric", num_inputs, a.rows, params, configs, scope
            )
            if use_lb_num:
                ledger.alloc(bins_bytes, "numeric bins")

            # ---- 5. numeric SpGEMM ------------------------------------
            scope.enter_stage("numeric")
            scope.on_launch("numeric")
            num_pristine = run_pass(
                "numeric", analysis, plan_num, c_row_nnz, configs, params, device
            )
            num = self._spill(
                "numeric", num_pristine, c_row_nnz, configs, scope, ledger, decisions
            )
            stage_times["numeric"] = num.time_s

            # ---- 6. sorting -------------------------------------------
            scope.enter_stage("sorting")
            if num.radix_entries:
                scope.on_launch("sorting")
                ledger.alloc(num.radix_entries * 8, "radix key buffers")
            stage_times["sorting"] = radix_sort_time_s(num.radix_entries, device)

        except SpGEMMError as err:
            # Charge the partial attempt so retry policies can account it.
            err.partial_time_s = device.call_overhead_s + sum(stage_times.values())
            raise

        if trace is not None:
            trace.record("call overhead", device.call_overhead_s, category="host")
            if "estimate" in stage_times:
                trace.record(
                    "estimate (sampled)", stage_times["estimate"],
                    category="stage",
                    meta={"sample": decisions.get("estimate_sample_size")},
                )
            if stage_times["analysis"] > 0.0:
                trace.record(
                    "analysis", stage_times["analysis"], category="stage"
                )
            if "fallback" in stage_times:
                trace.record(
                    "fallback (exact)", stage_times["fallback"],
                    category="stage",
                    meta={"cause": "estimate bound exceeded"},
                )
            if use_lb_sym:
                trace.record(
                    "symbolic LB", stage_times["symbolic_lb"], category="stage",
                    meta={"blocks": plan_sym.n_blocks},
                )
            _trace_kernels(trace, "symbolic", sym, configs)
            if use_lb_num:
                trace.record(
                    "numeric LB", stage_times["numeric_lb"], category="stage",
                    meta={"blocks": plan_num.n_blocks},
                )
            _trace_numeric(trace, num, stage_times["sorting"], use_lb_sym,
                           use_lb_num, configs)

        if retry_s > 0.0:
            stage_times["retry"] = retry_s
        total = device.call_overhead_s + sum(stage_times.values())
        if plan is not None:
            # Capture the cold run's structural artifacts for reuse.
            plan.populate(
                analysis=analysis,
                c_row_nnz=c_row_nnz,
                use_lb_symbolic=use_lb_sym,
                use_lb_numeric=use_lb_num,
                ratio_symbolic=float(ratio_sym),
                ratio_numeric=float(ratio_num),
                plan_sym=plan_sym,
                plan_num=plan_num,
                sym=sym_pristine,
                num=num_pristine,
            )
            decisions["plan_cache"] = "miss"
        decisions.update(
            _pass_decisions(use_lb_sym, use_lb_num, ratio_sym, ratio_num, sym, num)
        )

        return SpGEMMResult(
            method=self.name,
            c=(
                self._execute(a, ctx.b, ctx)
                if mode == "execute"
                else lambda: ctx.c  # built on the first read of result.c
            ),
            time_s=total,
            peak_mem_bytes=ledger.peak,
            stage_times=stage_times,
            decisions=decisions,
        )

    # ------------------------------------------------------------------
    def _hit(
        self,
        ctx: MultiplyContext,
        plan: "CachedPlan",
        mode: str,
        trace: Optional[Trace],
        scope: FaultScope,
    ) -> SpGEMMResult:
        """Serve a ready plan; raises :class:`SpGEMMError` on failure with
        the simulated time already spent attached.

        Analysis, both binning stages and the symbolic pass derive from
        the operand structure alone; the plan holds their outputs, so the
        model charges them nothing and no kernels (hence no fault sites)
        run for them.  Every other number comes from the plan's
        :class:`PlanHit`, built on its first hit.  What runs per request
        are the fault sites a hit can meet, in pipeline order: the C
        allocation in the ``numeric_lb`` stage, the numeric launch, an
        injected spill with its global-map pool, and the sorting launch
        and key-buffer allocation.
        """
        rec = plan.hit_record
        if rec is None or rec.engine is not self:
            rec = plan.hit_record = self._plan_hit(plan)
        ctx.seed_structure(plan.analysis, plan.c_row_nnz, rec.c_nnz)
        device = self.device
        decisions: Dict[str, object] = {"plan_cache": "hit"}
        numeric_s = 0.0
        try:
            ledger = MemoryLedger(
                device, resident_bytes=ctx.input_bytes, faults=scope
            )
            scope.enter_stage("numeric_lb")
            # Output allocation (excluded from time per the paper's
            # methodology, included in peak memory).
            ledger.alloc(rec.output_bytes, "C")
            scope.enter_stage("numeric")
            scope.on_launch("numeric")
            num = self._spill(
                "numeric", rec.num, plan.c_row_nnz, self.configs, scope,
                ledger, decisions,
            )
            numeric_s = num.time_s
            scope.enter_stage("sorting")
            if num.radix_entries:
                scope.on_launch("sorting")
                ledger.alloc(num.radix_entries * 8, "radix key buffers")
        except SpGEMMError as err:
            err.partial_time_s = device.call_overhead_s + numeric_s
            raise

        stage_times = dict(rec.stage_times)
        if trace is not None:
            trace.record("call overhead", device.call_overhead_s, category="host")
            trace.mark("plan cache hit", key=plan.key)
            _trace_numeric(trace, num, stage_times["sorting"],
                           plan.use_lb_symbolic, plan.use_lb_numeric, self.configs)
        if num is rec.num:
            decisions = dict(rec.decisions)
        else:  # an injected spill charged a copy of the plan's record
            decisions.update(_pass_decisions(
                plan.use_lb_symbolic, plan.use_lb_numeric, plan.ratio_symbolic,
                plan.ratio_numeric, plan.sym, num,
            ))
        return SpGEMMResult(
            method=self.name,
            c=(
                self._execute(ctx.a, ctx.b, ctx)
                if mode == "execute"
                else lambda: ctx.c  # built on the first read of result.c
            ),
            time_s=rec.time_s,
            peak_mem_bytes=ledger.peak,
            stage_times=stage_times,
            decisions=decisions,
        )

    def _plan_hit(self, plan: "CachedPlan") -> PlanHit:
        """Price every hit on ``plan`` once: the per-plan constants."""
        num = plan.num
        if num is None:  # populated without a numeric record: price it once
            num = run_pass(
                "numeric", plan.analysis, plan.plan_num, plan.c_row_nnz,
                self.configs, self.params, self.device,
            )
        c_nnz = int(plan.c_row_nnz.sum())
        stage_times = dict(
            analysis=0.0, symbolic_lb=0.0, symbolic=0.0, numeric_lb=0.0,
            numeric=num.time_s,
            sorting=radix_sort_time_s(num.radix_entries, self.device),
        )
        return PlanHit(
            engine=self,
            num=num,
            c_nnz=c_nnz,
            output_bytes=device_csr_bytes(plan.c_row_nnz.size, c_nnz),
            stage_times=stage_times,
            decisions={"plan_cache": "hit", **_pass_decisions(
                plan.use_lb_symbolic, plan.use_lb_numeric, plan.ratio_symbolic,
                plan.ratio_numeric, plan.sym, num,
            )},
            time_s=self.device.call_overhead_s + sum(stage_times.values()),
        )

    # ------------------------------------------------------------------
    def _bin_stage(
        self, stage: str, inputs: StageInputs, rows: int, params: SpeckParams,
        configs: list[KernelConfig], scope: FaultScope,
    ) -> tuple[bool, BlockPlan, float]:
        """Decide and bin one stage: ``(use_lb, plan, LB time)``.  The
        binning kernel (and its launch site) runs only when it bins."""
        use_lb, block_plan = plan_stage(stage, inputs, rows, params, configs)
        if not use_lb:
            return False, block_plan, 0.0
        scope.on_launch(f"{stage}_lb")
        return True, block_plan, load_balance_time_s(rows, len(configs), self.device)

    def _symbolic_pass(
        self, analysis: RowAnalysis, plan_sym: BlockPlan, c_row_nnz: np.ndarray,
        params: SpeckParams, configs: list[KernelConfig], scope: FaultScope,
        ledger: MemoryLedger, decisions: dict,
    ) -> tuple[PassResult, PassResult]:
        """The exact symbolic pass: ``(pristine record, charged record)``."""
        scope.on_launch("symbolic")
        sym = run_pass(
            "symbolic", analysis, plan_sym, c_row_nnz, configs, params, self.device
        )
        return sym, self._spill(
            "symbolic", sym, c_row_nnz, configs, scope, ledger, decisions
        )

    def _spill(
        self, stage: str, rec: PassResult, c_row_nnz: np.ndarray,
        configs: list[KernelConfig], scope: FaultScope, ledger: MemoryLedger,
        decisions: dict,
    ) -> PassResult:
        """Apply an injected spill, then allocate the pass's global-map pool
        (8 B per entry symbolic, 16 B numeric); returns the charged record."""
        if scope.force_spill(stage) and not rec.global_hash_blocks:
            # Injected scratchpad overflow: at least one block's hash map
            # outgrew its scratch capacity and continues in global memory.
            # Copy-on-write keeps any cached plan's record pristine.
            rec = replace(
                rec,
                global_hash_blocks=1,
                global_hash_max_entries=max(
                    int(c_row_nnz.max()) if c_row_nnz.size else 1, 1
                ),
            )
            decisions[f"forced_spill_{stage}"] = True
        if rec.global_hash_blocks:
            pool = min(
                self.device.concurrency(configs[-1].threads, configs[-1].scratch_bytes),
                rec.global_hash_blocks,
            )
            entry_bytes = 8 if stage == "symbolic" else 16
            ledger.alloc(
                pool * rec.global_hash_max_entries * entry_bytes,
                f"{stage} global maps",
            )
        return rec

    # ------------------------------------------------------------------
    def _execute(self, a: CSR, b: CSR, ctx: MultiplyContext) -> CSR:
        """Compute C through the executable accumulators, following the
        same per-row method decisions as the cost model.

        Dispatches on ``params.execute_engine``: the batched engine
        computes whole (method, config) groups with flat numpy kernels;
        the scalar engine is the original row loop kept as its oracle.

        Masked multiplies (``repro.graph.masked``) hand the engine a
        :class:`~repro.graph.masked.MaskedContext` whose *modelled* facts
        are mask-pruned; the executable accumulators still need the full
        product's structure (each surviving entry is accumulated in its
        full-product slot, so its value is unchanged by the mask), which
        the masked context exposes as ``ctx.inner``.  The pruned-column
        filter is applied afterwards — bit-identical to accumulating only
        the surviving columns, because each output entry's accumulation
        order never depends on the other columns' presence.
        """
        engine = execute_scalar if self.params.execute_engine == "scalar" else execute_batched
        inner = getattr(ctx, "inner", None)
        facts = inner if inner is not None else ctx
        c, _ = engine(
            a, b, facts.analysis, facts.c_row_nnz, self.params, self.configs
        )
        apply_mask = getattr(ctx, "apply_mask", None)
        if apply_mask is not None:
            c = apply_mask(c)
        return c


def speck_multiply(
    a: CSR,
    b: CSR,
    *,
    device: DeviceSpec = TITAN_V,
    params: SpeckParams = DEFAULT_PARAMS,
    ctx: Optional[MultiplyContext] = None,
    mode: str = "model",
) -> SpGEMMResult:
    """Convenience wrapper: run spECK once on ``(A, B)``."""
    return SpeckEngine(device, params).multiply(a, b, ctx=ctx, mode=mode)
