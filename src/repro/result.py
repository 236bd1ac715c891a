"""Common result type for all simulated SpGEMM algorithms."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Union

from .faults import FailureInfo, SpGEMMError
from .matrices.csr import CSR

__all__ = ["SpGEMMResult"]


class _Product:
    """The ``SpGEMMResult.c`` field: a CSR, ``None``, or a deferred product.

    A zero-argument callable stands for a product not built yet — the
    model-mode methods pass ``lambda: ctx.c`` because costing a multiply
    never needs C's values.  The first read calls it and caches the CSR,
    so every later read returns that same object.
    """

    def __get__(self, obj, objtype=None):
        if obj is None:
            # Class access: tells ``dataclass`` the field has no default.
            raise AttributeError("c")
        c = obj._c
        if callable(c):
            c = obj._c = c()
        return c

    def __set__(self, obj, value) -> None:
        obj._c = value


@dataclass
class SpGEMMResult:
    """Outcome of one simulated SpGEMM invocation.

    Attributes
    ----------
    method:
        Algorithm name (``"spECK"``, ``"nsparse"``, ...).
    c:
        The output matrix, or ``None`` when the run failed.  The
        constructor also takes a zero-argument callable returning the
        matrix: model-mode runs pass the context's product unevaluated,
        and the first read of ``c`` builds it once and caches it.
    time_s:
        Simulated wall time of the multiplication.
    peak_mem_bytes:
        Peak temporary device memory including the output matrix (the
        paper's ``m`` in Table 3 / Fig. 10).
    stage_times:
        Seconds per pipeline stage (Fig. 11 for spECK; baselines report
        their own stage names).
    valid:
        False when the method failed on this input (OOM or an algorithmic
        limitation) — the paper's ``#inv.`` statistic.
    failure:
        Human-readable reason string when ``valid`` is false.
    failure_info:
        Machine-readable classification of the failure (kind, stage, tag,
        retryable) — see :class:`repro.faults.FailureInfo`.
    retries:
        How many retry/fallback attempts the method's resilience policy
        made (0 when the first attempt settled the run either way).
    sorted_output:
        Whether column indices are sorted per row (KokkosKernels returns
        unsorted output, violating the CSR contract).
    decisions:
        Free-form algorithm diagnostics (bin counts, accumulator mix, ...).
    """

    method: str
    c: Union[CSR, Callable[[], CSR], None] = _Product()
    time_s: float
    peak_mem_bytes: int
    stage_times: Dict[str, float] = field(default_factory=dict)
    valid: bool = True
    failure: str = ""
    failure_info: Optional[FailureInfo] = None
    retries: int = 0
    sorted_output: bool = True
    decisions: Dict[str, object] = field(default_factory=dict)

    def gflops(self, flops: int) -> float:
        """GFLOPS given the paper's FLOP count (2 × products)."""
        if not self.valid or self.time_s <= 0:
            return 0.0
        return flops / self.time_s / 1e9

    @classmethod
    def failed(
        cls,
        method: str,
        reason: Union[str, SpGEMMError, FailureInfo],
        *,
        retries: int = 0,
    ) -> "SpGEMMResult":
        """A run that could not complete (counted as invalid).

        ``reason`` may be a plain string (kept for compatibility, recorded
        with kind ``"limitation"``), an :class:`~repro.faults.SpGEMMError`
        or a ready-made :class:`~repro.faults.FailureInfo`; the structured
        and human-readable forms are both always populated.
        """
        if isinstance(reason, SpGEMMError):
            info = reason.info
        elif isinstance(reason, FailureInfo):
            info = reason
        else:
            info = FailureInfo(kind="limitation", message=str(reason))
        return cls(
            method=method,
            c=None,
            time_s=float("inf"),
            peak_mem_bytes=0,
            valid=False,
            failure=info.message or str(reason),
            failure_info=info,
            retries=retries,
        )
