"""Graph-shaped SpGEMM workloads (ROADMAP item 5).

Yang, Buluç and Owens's design-principles paper (PAPERS.md) centres the
highest-value uses of sparse products on graph algorithms, and those uses
are rarely a single ``C = A · B``:

* **Masked SpGEMM** (:mod:`repro.graph.masked`) — ``C = (A · B) ⊙ M``:
  the caller only wants output entries at positions present in ``M``
  (triangle counting, filtered neighbourhood joins).  The mask prunes
  spECK's analysis and binning *up front* and the plan is cached under a
  mask-tagged key.
* **Chained products** (:mod:`repro.graph.chain`) — ``A^k`` and general
  ``A · B₁ ⋯ Bₖ`` pipelines (MCL expansion, multi-hop reachability).
  Plans are cached per iteration and each cold iteration is planned from
  the previous iteration's *exact* row statistics instead of resampling.
* **Incremental SpGEMM** (:mod:`repro.graph.delta`) — a structural
  row-delta to A recomputes only the affected output rows and patches
  both C and the cached plan, with a conservative blast-radius
  computation and a full-recompute fallback.

Every engine is anchored by a differential oracle in :mod:`repro.check`
(masked = dense-mask post-filter of the full product; chained = k
sequential full multiplies, bit-identical; incremental = full
recomputation, bit-identical) and exercised by ``serve-bench
--workload masked|chain|incremental`` under fault injection.  Semantics
and oracle laws are documented in ``docs/WORKLOADS.md``.
"""

from .chain import chain, chain_apply
from .delta import (
    RowDelta,
    apply_delta,
    blast_radius,
    incremental_multiply,
    invert_delta,
    random_delta,
)
from .masked import MaskedContext, mask_plan_tag, multiply_masked, triangle_count

__all__ = [
    "MaskedContext",
    "RowDelta",
    "apply_delta",
    "blast_radius",
    "chain",
    "chain_apply",
    "incremental_multiply",
    "invert_delta",
    "mask_plan_tag",
    "multiply_masked",
    "random_delta",
    "triangle_count",
]
