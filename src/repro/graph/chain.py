"""Chained SpGEMM: ``A^k`` and general multiply pipelines with plan reuse.

Graph analytics rarely multiplies once: MCL squares a flow matrix until
convergence, multi-hop reachability computes ``A^k``, AMG chains
``R · A · P``.  Each iteration's operands are *produced by the previous
iteration*, which changes the serving economics in two ways this module
exploits:

* **plan reuse** — iterates often stabilise structurally (MCL's late
  iterations, re-running a chain on refreshed values), so every multiply
  routes through the plan cache and the chain reports its cumulative
  hit/miss counters;
* **estimate seeding** — a *cold* iteration never needs to sample: the
  previous iteration computed its output exactly, so the next multiply's
  per-row product counts are derivable in one cheap pass
  (:func:`~repro.estimate.seeded_estimate`) and the engine plans
  speculatively with bounds that hold by construction — the
  exact-analysis fallback is provably dead.

:class:`ChainRunner` is the iteration primitive (one multiply at a time,
counters accumulated across steps) that :func:`chain_apply` /
:func:`chain` wrap and :func:`repro.apps.mcl.markov_clustering` builds
its expansion step on.  The differential oracle in :mod:`repro.check`
pins ``chain(A, k)`` to k sequential full multiplies, bit-identically.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..core.speck import SpeckEngine
from ..estimate import seeded_estimate
from ..faults import FaultPlan
from ..matrices.csr import CSR
from ..result import SpGEMMResult
from ..serve.service import multiply_via

__all__ = ["ChainRunner", "chain", "chain_apply"]


class ChainRunner:
    """Stateful iteration primitive for chained multiplies.

    One ``step`` runs one multiply through the service (plan cache,
    metrics, faults) or a standalone engine, accumulating the chain-level
    counters — plan-cache hits/misses and how many cold steps were
    planned from seeded estimates.  The first step always plans exactly
    (there is no previous iteration to seed from); later cold steps are
    seeded from the previous step's output.
    """

    def __init__(
        self,
        *,
        service=None,
        engine: Optional[SpeckEngine] = None,
        mode: str = "model",
        faults: Optional[FaultPlan] = None,
        case_name: str = "",
    ) -> None:
        if service is None and engine is None:
            engine = SpeckEngine()
        self.service = service
        self.engine = engine
        self.device = service.device if service is not None else engine.device
        self.mode = mode
        self.faults = faults
        self.case_name = case_name
        self.plan_hits = 0
        self.plan_misses = 0
        self.seeded = 0
        self.steps = 0
        self._primed = False

    def step(self, a: CSR, b: CSR, *, brownout=None) -> SpGEMMResult:
        """Run one ``C = A · B`` of the chain and accumulate counters."""
        estimate = None
        if self._primed and not self._plan_ready(a, b):
            estimate = seeded_estimate(a, b, device=self.device)
        res = multiply_via(
            self.service, self.engine, a, b, mode=self.mode,
            faults=self.faults, case_name=self.case_name, brownout=brownout,
            estimate=estimate,
        )
        self.steps += 1
        if res.valid:
            self._primed = True
            cache = res.decisions.get("plan_cache")
            if cache == "hit":
                self.plan_hits += 1
            elif cache == "miss":
                self.plan_misses += 1
            if estimate is not None and res.decisions.get("speculative"):
                self.seeded += 1
        return res

    def _plan_ready(self, a: CSR, b: CSR) -> bool:
        """Would this multiply hit a ready cached plan?  Seeding an
        estimate is pure waste on a hit — the service ignores it — so the
        runner peeks (stat-neutral) before paying the exact row pass."""
        if self.service is None:
            return False
        from ..serve.plan_cache import plan_key

        plan = self.service.plans.peek(plan_key(a, b))
        return plan is not None and plan.ready

    def counters(self) -> Dict[str, int]:
        return {
            "chain_steps": self.steps,
            "chain_plan_hits": self.plan_hits,
            "chain_plan_misses": self.plan_misses,
            "chain_seeded": self.seeded,
        }


def chain_apply(
    a: CSR,
    bs: Sequence[CSR],
    *,
    service=None,
    engine: Optional[SpeckEngine] = None,
    mode: str = "model",
    faults: Optional[FaultPlan] = None,
    case_name: str = "",
    brownout=None,
) -> SpGEMMResult:
    """Left-fold multiply: ``C = (((A · B₁) · B₂) ⋯ ) · Bₖ``.

    Every step runs through one :class:`ChainRunner`.  The result is one
    ``"chain"`` :class:`~repro.result.SpGEMMResult`: summed time, stage
    times and retries, the largest step's peak memory, and the runner's
    counters (``chain_steps``, ``chain_plan_hits``, ``chain_plan_misses``,
    ``chain_seeded``) in ``decisions``.  A failed step stops the chain and
    its structured failure comes back as a failed result.
    """
    runner = ChainRunner(
        service=service, engine=engine, mode=mode, faults=faults,
        case_name=case_name,
    )
    c = a
    time_s = 0.0
    peak = 0
    retries = 0
    stage_times: Dict[str, float] = {}
    for b in bs:
        res = runner.step(c, b, brownout=brownout)
        if not res.valid:
            out = SpGEMMResult.failed("chain", res.failure_info)
            out.decisions.update(runner.counters())
            return out
        time_s += res.time_s
        peak = max(peak, res.peak_mem_bytes)
        retries += res.retries
        for name, t in res.stage_times.items():
            stage_times[name] = stage_times.get(name, 0.0) + float(t)
        c = res.c
    return SpGEMMResult(
        method="chain", c=c, time_s=time_s, peak_mem_bytes=peak,
        stage_times=stage_times, retries=retries,
        decisions=runner.counters(),
    )


def chain(
    a: CSR,
    k: int,
    **kwargs,
) -> SpGEMMResult:
    """Compute ``A^k`` (``k >= 1``) as a chained product.

    ``chain(A, 1)`` is ``A`` itself with zero multiplies; higher powers
    run ``k - 1`` sequential multiplies through
    :func:`chain_apply`, reusing plans and seeding estimates across
    iterations.
    """
    if a.rows != a.cols:
        raise ValueError(f"chain needs a square matrix, got {a.shape}")
    if k < 1:
        raise ValueError(f"chain power must be >= 1, got {k}")
    return chain_apply(a, [a] * (k - 1), **kwargs)
