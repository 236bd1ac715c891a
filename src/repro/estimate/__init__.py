"""Sampling-based estimation and speculative planning (ROADMAP item 2).

See :mod:`repro.estimate.sampler` for the seeded row sampler with explicit
confidence bounds and :mod:`repro.estimate.planner` for the memoised
front door the serving layers consult.  ``docs/ESTIMATION.md`` documents
the bound derivation and the fallback semantics.
"""

from .planner import RowEstimator, estimated_plan_nbytes
from .sampler import (
    Estimate,
    MultiplyEstimate,
    estimate_multiply,
    seeded_estimate,
)

__all__ = [
    "Estimate",
    "MultiplyEstimate",
    "RowEstimator",
    "estimate_multiply",
    "estimated_plan_nbytes",
    "seeded_estimate",
]
