"""Differential oracles for the graph workloads (:mod:`repro.graph`).

Each engine is pinned to a definition that is *independent of its own
cleverness*:

* **masked** — ``multiply_masked(A, B, M)`` must equal the dense-mask
  post-filter of the full product: bit-identical to
  ``mask(engine(A, B), pattern(M))`` in execute mode and to
  ``mask(esc(A, B), pattern(M))`` in model mode.  The mask-pruned
  analysis, binning and plan tagging must never change a surviving bit.
* **chained** — ``chain(A, k)`` must equal ``k`` sequential full
  multiplies, bit-identically, regardless of plan reuse or seeded
  speculative planning along the way.
* **incremental** — applying a row delta and patching ``C`` must be
  bit-identical to recomputing the product from scratch, and
  ``apply ∘ apply⁻¹`` must restore ``A`` bit-exactly.

Masks and deltas are derived from the case's ``(seed, index)`` through
dedicated :class:`numpy.random.SeedSequence` branches, so a failing case
name regenerates the exact workload — same property the base generator
gives plain operands.

``GRAPH_MUTATIONS`` plants one bug per engine (mask over-pruning, a
skipped final chain multiply, a blast radius that ignores self-product
data flow); ``repro check --mutate <name>`` must catch each one.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..core.params import DEFAULT_PARAMS
from ..core.speck import SpeckEngine
from ..faults import FaultPlan
from ..gpu import DeviceSpec, TITAN_V
from ..kernels.reference import esc_multiply
from ..matrices import ops
from ..matrices.csr import CSR
from .generator import CheckCase
from .oracle import CaseVerdict, _check_failure_shape, diff_bitwise

__all__ = ["GRAPH_MUTATIONS", "delta_for", "mask_for", "run_graph_checks"]

#: Planted graph-engine bugs, name -> the workload whose oracle must
#: catch it (see module docstring).  Routed by ``repro check --mutate``
#: alongside the engine mutations in :data:`repro.check.mutations.MUTATIONS`.
GRAPH_MUTATIONS: Dict[str, str] = {
    "mask-overprune": "masked",
    "chain-skip-last": "chain",
    "delta-narrow-blast": "incremental",
}

#: SeedSequence branch constants so workload randomness never collides
#: with the case generator's own stream.
_MASK_BRANCH = 0x6D61736B  # "mask"
_DELTA_BRANCH = 0x64656C74  # "delt"


def mask_for(seed: int, index: int, shape) -> CSR:
    """The deterministic mask of case ``(seed, index)`` at ``shape``.

    Parameterised on the shape (not the case object) so the ddmin
    minimizer regenerates a same-family mask for every shrunk operand
    pair.
    """
    rows, cols = int(shape[0]), int(shape[1])
    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(index), _MASK_BRANCH])
    )
    density = float(rng.uniform(0.05, 0.45))
    k = max(1, int(round(rows * cols * density)))
    r = rng.integers(0, max(rows, 1), size=k)
    c = rng.integers(0, max(cols, 1), size=k)
    v = np.ones(k, dtype=np.float64)
    return CSR.from_coo(r, c, v, (rows, cols), sum_duplicates=False)


def delta_for(seed: int, index: int, a: CSR):
    """The deterministic row delta of case ``(seed, index)`` against ``a``."""
    from ..graph.delta import random_delta

    rng = np.random.default_rng(
        np.random.SeedSequence([int(seed), int(index), _DELTA_BRANCH])
    )
    return random_delta(a, rng=rng, frac=0.2)


def run_graph_checks(
    verdict: CaseVerdict,
    case: CheckCase,
    device: DeviceSpec = TITAN_V,
    *,
    faults: Optional[FaultPlan] = None,
    graph_mutation: Optional[str] = None,
) -> None:
    """Run the three graph-workload oracles on one case.

    Appends failures to ``verdict`` in the oracle's usual
    ``check``/``detail`` shape.  References are always computed
    fault-free; with ``faults`` set the workload runs may die, but only
    with structured in-taxonomy failures — a *valid* result must still
    be bit-identical (that is how ``mask_drop`` silent corruption is
    caught).
    """
    from ..graph.chain import chain_apply
    from ..graph.delta import (
        apply_delta,
        incremental_multiply,
        invert_delta,
    )
    from ..graph.masked import MaskedContext, _drop_entries, multiply_masked
    from ..serve.service import multiply_via

    a, b = case.a, case.b
    engine = SpeckEngine(device, DEFAULT_PARAMS)

    # Fault-free full execute product: the masked reference and the
    # incremental starting point (computed once, shared).
    full_exec = engine.multiply(a, b, mode="execute")
    if not full_exec.valid:
        verdict.fail(
            "graph:reference",
            f"fault-free full execute failed: {full_exec.failure}",
        )
        return

    # ---- masked ------------------------------------------------------
    m = mask_for(case.seed, case.index, (a.rows, b.cols))
    masked_ref = ops.mask(full_exec.c, ops.pattern(m))
    if graph_mutation == "mask-overprune":
        # Planted bug: the pruned-column set loses entries it must keep
        # (the same corruption the ``mask_drop`` fault site injects).
        allowed = _drop_entries(ops.pattern(m), 0.5)
        res = multiply_via(
            None, engine, a, b, ctx=MaskedContext(a, b, m, allowed=allowed),
            mode="execute", faults=faults, case_name=case.name,
        )
    else:
        res = multiply_masked(
            a, b, m, mode="execute", engine=engine,
            faults=faults, case_name=case.name,
        )
    if not res.valid:
        _check_failure_shape(verdict, "masked", res.failure_info, faults)
    else:
        mismatch = diff_bitwise(masked_ref, res.c)
        if mismatch is not None:
            verdict.fail("differential:masked", mismatch)
    # Model mode must agree with the ESC reference bitwise (pre-filtered
    # accumulation == post-filter, the core masked-execution claim).
    res_m = multiply_masked(a, b, m, mode="model", engine=engine)
    if res_m.valid:
        mismatch = diff_bitwise(
            ops.mask(esc_multiply(a, b), ops.pattern(m)), res_m.c
        )
        if mismatch is not None:
            verdict.fail("differential:masked-model", mismatch)

    # ---- chained (square operands only: A^3) -------------------------
    if a.rows == a.cols:
        bs = [a, a]
        run_bs = bs[:-1] if graph_mutation == "chain-skip-last" else bs
        cr = chain_apply(
            a, run_bs, engine=engine, mode="execute",
            faults=faults, case_name=case.name,
        )
        ref = a
        for step_b in bs:
            ref = engine.multiply(ref, step_b, mode="execute").c
        if not cr.valid:
            _check_failure_shape(verdict, "chain", cr.failure_info, faults)
        else:
            mismatch = diff_bitwise(ref, cr.c)
            if mismatch is not None:
                verdict.fail("differential:chain", mismatch)

    # ---- incremental -------------------------------------------------
    delta = delta_for(case.seed, case.index, a)
    a_new = apply_delta(a, delta)
    blast = "narrow" if graph_mutation == "delta-narrow-blast" else "auto"

    # Round-trip law first: pure host splicing, no engine involved.
    back = apply_delta(a_new, invert_delta(a, delta))
    mismatch = diff_bitwise(a, back)
    if mismatch is not None:
        verdict.fail("law:delta-roundtrip", mismatch)

    # When B *is* A (b_mode "same"), the update is a self-product: the
    # delta changes both operands and the full-recompute reference is
    # A_new · A_new, not A_new · A_old.
    self_prod = b is a
    inc = incremental_multiply(
        a, b, full_exec.c, delta, engine=engine, mode="execute",
        blast_mode=blast, faults=faults, case_name=case.name,
    )
    if not inc.valid:
        _check_failure_shape(verdict, "incremental", inc.failure_info, faults)
    else:
        ref_new = engine.multiply(
            a_new, a_new if self_prod else b, mode="execute"
        )
        if ref_new.valid:
            mismatch = diff_bitwise(ref_new.c, inc.c)
            if mismatch is not None:
                verdict.fail("differential:incremental", mismatch)

    # Self-product variant: B is A itself, so the delta also changes B
    # and the blast radius must widen to referencing rows — exactly what
    # the narrow-blast planted bug gets wrong.  (Redundant when the main
    # check above already was a self-product.)
    if a.rows == a.cols and not self_prod:
        c_aa = engine.multiply(a, a, mode="execute")
        if c_aa.valid:
            inc2 = incremental_multiply(
                a, a, c_aa.c, delta, engine=engine, mode="execute",
                blast_mode=blast, faults=faults, case_name=case.name,
            )
            if not inc2.valid:
                _check_failure_shape(
                    verdict, "incremental-self", inc2.failure_info, faults
                )
            else:
                ref2 = engine.multiply(a_new, a_new, mode="execute")
                if ref2.valid:
                    mismatch = diff_bitwise(ref2.c, inc2.c)
                    if mismatch is not None:
                        verdict.fail(
                            "differential:incremental-self", mismatch
                        )
