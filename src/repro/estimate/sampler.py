"""Sampling-based row/nnz estimation (OCEAN-style lightweight analysis).

spECK's row analysis is exact but still O(NNZ_A); OCEAN (PAPERS.md) shows
that a *sampled* subset of A's rows is enough to size allocations and pick
accumulator bins for most matrices.  This module implements the sampler:

* a seeded, deterministic row sample of A — the sample is a pure function
  of ``(A.fingerprint(), B.fingerprint(), seed)``, so repeated estimation
  of the same structure pair yields bit-identical results regardless of
  process, thread or call order;
* for each sampled row, the *exact* intermediate-product count (sum of
  referenced B-row lengths) and the *exact* output-row nnz (distinct
  output columns — a mini symbolic pass restricted to the sample);
* one-sided upper confidence bounds on the population totals via the
  normal approximation with a finite-population correction, clamped by
  cheap hard caps (``nnz(A) * max_row(B)`` for products; per-row
  ``max_row(A) * max_row(B)`` for the row maximum, which therefore always
  holds);
* a modelled kernel time for the estimation pass: the analysis kernel
  over the sampled non-zeros plus a hash insert per sampled product,
  proportional to the sampled share of the matrix — the quantity the
  speculative planner charges instead of the full analysis + symbolic
  stages.

The sample size and confidence level are the module constants
:data:`SAMPLE_FRAC`, :data:`MIN_SAMPLE` and :data:`CONFIDENCE`.

Every estimate carries its bound, sample size and seed explicitly
(:class:`Estimate`), so consumers can decide how much to trust it and the
engine can verify the bound after the fact and fall back to exact
analysis when it was violated.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..core.analysis import analysis_time_s
from ..core.context import device_csr_bytes
from ..gpu import DeviceSpec
from ..kernels.reference import distinct_per_segment, key_dtype, row_products
from ..matrices.csr import CSR, cached_arange

__all__ = [
    "CONFIDENCE",
    "Estimate",
    "MIN_SAMPLE",
    "MultiplyEstimate",
    "SAMPLE_FRAC",
    "estimate_multiply",
    "seeded_estimate",
]

#: Share of A's rows the estimator samples ...
SAMPLE_FRAC = 0.05
#: ... but never fewer rows than this (all of A when it is that small).
MIN_SAMPLE = 64
#: Stated coverage of the one-sided statistical bounds.
CONFIDENCE = 0.9


@lru_cache(maxsize=64)
def _norm_quantile(p: float) -> float:
    """Standard-normal quantile via Acklam's rational approximation.

    Accurate to ~1e-9 over (0, 1); keeps the estimator dependency-free
    (scipy stays confined to the baseline adapters).  Cached — the
    estimator evaluates it once per call at :data:`CONFIDENCE`, so the
    polynomial runs only on first use.
    """
    if not (0.0 < p < 1.0):
        raise ValueError(f"confidence must be in (0, 1), got {p}")
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low = 0.02425
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p <= 1.0 - p_low:
        q = p - 0.5
        r = q * q
        return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
            ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
        )
    q = math.sqrt(-2.0 * math.log(1.0 - p))
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
        (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
    )


@dataclass(frozen=True)
class Estimate:
    """One estimated quantity with its explicit uncertainty contract.

    Attributes
    ----------
    value:
        Point estimate (Horvitz–Thompson scale-up of the sample mean, or
        the exact value when the sample covers the whole population).
    bound:
        One-sided upper bound.  For statistically bounded quantities it
        holds with probability >= ``confidence``; for hard-capped
        quantities (the per-row product maximum) it always holds.
    sample_size:
        Rows of A inspected to produce this estimate.
    seed:
        Sampler seed — together with the operand fingerprints this fully
        determines the estimate.
    confidence:
        Stated coverage level of ``bound``.
    """

    value: float
    bound: float
    sample_size: int
    seed: int
    confidence: float

    def scaled_bound(self, factor: float) -> "Estimate":
        """Copy with the bound multiplied by ``factor`` (fault injection)."""
        return replace(self, bound=float(self.bound * factor))


@dataclass(frozen=True)
class MultiplyEstimate:
    """Bundle of estimates for one ``A @ B`` product.

    Deterministic per ``(A.fingerprint(), B.fingerprint(), seed)``; the
    ``key`` field carries that identity so memo layers need not recompute
    fingerprints.
    """

    #: ``(A.fingerprint(), B.fingerprint())``.
    key: Tuple[str, str]
    seed: int
    #: Rows of A (the sampled population).
    rows: int
    #: Rows actually sampled.
    sample_size: int
    #: Total intermediate products (statistical bound, hard-capped).
    products: Estimate
    #: Per-row product maximum (hard bound: ``max_row(A) * max_row(B)``).
    prod_max: Estimate
    #: Output nnz (statistical bound, capped by the products bound).
    c_nnz: Estimate
    #: Per-row output-nnz maximum (shares the ``prod_max`` hard cap).
    c_row_max: Estimate
    #: Device memory footprint: inputs + bound-sized C + sort scratch.
    footprint_bytes: Estimate
    #: Sampled ``prod_max / mean`` — drives the symbolic LB decision.
    ratio_symbolic: float
    #: Sampled ``c_max / c_mean`` — drives the numeric LB decision.
    ratio_numeric: float
    #: Modelled wall time of the estimation kernel (0 without a device).
    time_s: float

    @property
    def cost_hint(self) -> float:
        """Scalar work proxy for scheduler ordering (estimated products)."""
        return self.products.value

    def skewed(self, factor: float) -> "MultiplyEstimate":
        """Copy with every confidence bound multiplied by ``factor``.

        The ``estimate_skew`` fault site uses this to deterministically
        deflate (force fallback) or inflate (oversize allocations) the
        estimator's output; point values are left untouched.
        """
        return replace(
            self,
            products=self.products.scaled_bound(factor),
            prod_max=self.prod_max.scaled_bound(factor),
            c_nnz=self.c_nnz.scaled_bound(factor),
            c_row_max=self.c_row_max.scaled_bound(factor),
            footprint_bytes=self.footprint_bytes.scaled_bound(factor),
        )


@lru_cache(maxsize=512)
def _sample_rows(digest: bytes, rows: int, k: int) -> np.ndarray:
    """Sorted sample of ``k`` of ``rows`` row ids, seeded by ``digest``.

    A pure function of its arguments — the digest already encodes both
    operand fingerprints and the caller's seed — so the memo lets repeated
    estimation of the same structure pair (the plan-cache serving reality)
    skip the Generator construction and Floyd sampling.  Returned
    read-only so cache hits cannot be corrupted in place.
    """
    rng = np.random.default_rng(int.from_bytes(digest, "big"))
    sample = np.sort(rng.choice(rows, size=k, replace=False).astype(np.int64))
    sample.flags.writeable = False
    return sample


def _one_sided_upper(
    sample: np.ndarray, rows: int, z: float, hard_total: float,
    *, total: Optional[int] = None,
) -> Tuple[float, float]:
    """(scaled point estimate, one-sided upper bound) for a population sum.

    Normal-approximation bound on the mean with the finite-population
    correction for sampling without replacement, scaled to the population
    and clamped by ``hard_total``.  A full sample returns the exact total
    for both (the bound degenerates to equality).  ``total`` may carry a
    precomputed ``sample.sum()`` so callers that need the sum anyway pay
    for it once.
    """
    k = int(sample.size)
    if k == 0:
        return 0.0, 0.0
    if total is None:
        total = int(sample.sum())
    if k >= rows:
        exact = float(total)
        return exact, exact
    # Explicit two-pass moments: bit-identical to ``mean()``/``std(ddof=1)``
    # (same pairwise float64 summation, exact for these integer counts)
    # minus the per-call ufunc-machinery overhead that dominated on the
    # small samples this sees.
    mean = total / k
    if k > 1:
        d = sample - mean
        sd = math.sqrt(float((d * d).sum()) / (k - 1))
    else:
        sd = 0.0
    fpc = math.sqrt((rows - k) / max(rows - 1, 1))
    margin = z * sd / math.sqrt(k) * fpc
    value = min(rows * mean, float(hard_total))
    bound = min(float(hard_total), rows * (mean + margin))
    return value, bound


def estimate_multiply(
    a: CSR,
    b: CSR,
    *,
    seed: int = 0,
    device: Optional[DeviceSpec] = None,
) -> MultiplyEstimate:
    """Estimate row statistics and output size of ``A @ B`` from a sample.

    Samples ``max(MIN_SAMPLE, SAMPLE_FRAC * rows)`` rows of A without
    replacement (the whole matrix when it is small enough — the estimate
    is then exact and every bound degenerates to equality) and computes
    exact per-row products and output nnz for the sampled rows only.
    """
    if a.cols != b.rows:
        raise ValueError(f"dimension mismatch: A is {a.shape}, B is {b.shape}")
    rows = a.rows
    key = (a.fingerprint(), b.fingerprint())
    digest = hashlib.blake2b(
        f"{key[0]}|{key[1]}|{int(seed)}".encode("ascii"), digest_size=8
    ).digest()

    a_row_nnz = a.row_nnz()
    b_row_nnz = b.row_nnz()
    amax = int(a_row_nnz.max()) if rows else 0
    bmax = int(b_row_nnz.max()) if b.rows else 0
    #: No row of C can exceed this many products (hence output entries).
    hard_row = amax * bmax
    hard_products = a.nnz * bmax

    k = rows if rows <= MIN_SAMPLE else min(
        rows, max(MIN_SAMPLE, int(math.ceil(SAMPLE_FRAC * rows)))
    )
    if k >= rows:
        sample_rows = cached_arange(rows)
        k = rows
    else:
        sample_rows = _sample_rows(digest, rows, k)

    # Gather the sampled rows' A entries and their referenced B-row
    # lengths.  The running range-begin that ``expand_ranges`` would
    # recompute internally is exactly ``seg`` (resp. ``cs``), so both
    # gathers are fused against the offsets we need anyway.
    counts = a_row_nnz[sample_rows]
    seg = np.empty(k + 1, dtype=np.int64)
    seg[0] = 0
    counts.cumsum(out=seg[1:])
    n_sampled = int(seg[-1])
    gather = np.repeat(a.indptr[sample_rows] - seg[:-1], counts)
    gather += cached_arange(n_sampled)
    ref_rows = a.indices[gather]
    per_entry = b_row_nnz[ref_rows]
    cs = np.empty(n_sampled + 1, dtype=np.int64)
    cs[0] = 0
    per_entry.cumsum(out=cs[1:])
    row_off = cs[seg]  # product offsets at sampled-row boundaries
    prods = row_off[1:] - row_off[:-1]
    n_products = int(cs[-1])

    # Exact distinct output columns per sampled row (mini symbolic pass):
    # keys ``sample_index * b.cols + col``, so each sampled row's products
    # form one segment, delimited by ``row_off``.  The row tag is
    # multiplied on the k-length vector *before* the repeat.
    b_gather = np.repeat(b.indptr[ref_rows] - cs[:-1], per_entry)
    b_gather += cached_arange(n_products)
    kd = key_dtype(k, b.cols)
    keys = np.repeat((cached_arange(k) * b.cols).astype(kd), prods)
    keys += b.indices[b_gather]
    c_sample = distinct_per_segment(keys, row_off)

    z = _norm_quantile(CONFIDENCE)
    p_total = int(prods.sum()) if k else 0
    c_total = int(c_sample.sum()) if k else 0
    p_value, p_bound = _one_sided_upper(
        prods, rows, z, hard_products, total=p_total
    )
    c_value, c_bound = _one_sided_upper(
        c_sample, rows, z, hard_products, total=c_total
    )
    c_bound = min(c_bound, p_bound)

    pmax_value = float(prods.max()) if k else 0.0
    pmax_bound = pmax_value if k >= rows else float(hard_row)
    cmax_value = float(c_sample.max()) if k else 0.0
    cmax_bound = cmax_value if k >= rows else float(hard_row)

    def est(value: float, bound: float) -> Estimate:
        return Estimate(
            value=float(value), bound=float(bound), sample_size=k,
            seed=int(seed), confidence=CONFIDENCE,
        )

    input_bytes = device_csr_bytes(a.rows, a.nnz) + device_csr_bytes(b.rows, b.nnz)
    fp_value = input_bytes + device_csr_bytes(rows, int(c_value))
    # Bound covers the bound-sized C plus its radix-sort key scratch.
    fp_bound = input_bytes + device_csr_bytes(rows, int(c_bound)) + 8 * int(c_bound)

    # ``total / k`` equals ``mean()`` exactly for these integer counts
    # (the pairwise float64 sum is exact below 2**53).
    ratio_sym = pmax_value / max(p_total / k, 1e-9) if k else 0.0
    ratio_num = cmax_value / max(c_total / k, 1e-9) if k else 0.0

    time_s = 0.0
    if device is not None:
        time_s = analysis_time_s(n_sampled, device, p_total)

    return MultiplyEstimate(
        key=key,
        seed=int(seed),
        rows=rows,
        sample_size=k,
        products=est(p_value, p_bound),
        prod_max=est(pmax_value, pmax_bound),
        c_nnz=est(c_value, c_bound),
        c_row_max=est(cmax_value, cmax_bound),
        footprint_bytes=est(float(fp_value), float(fp_bound)),
        ratio_symbolic=float(ratio_sym),
        ratio_numeric=float(ratio_num),
        time_s=float(time_s),
    )


def seeded_estimate(
    a: CSR,
    b: CSR,
    *,
    device: Optional[DeviceSpec] = None,
) -> MultiplyEstimate:
    """Build an estimate for ``A @ B`` from *exact* row statistics.

    Chained products (``repro.graph.chain``) know iteration ``i``'s output
    exactly by the time iteration ``i+1`` is planned, so instead of
    resampling they derive the next multiply's per-row product counts in
    one O(NNZ_A) pass over the known operands (the same quantity the
    analysis kernel computes) and hand the engine an estimate whose
    product bounds are *equalities* — the speculative bound check can
    never fail, so the fallback path is provably dead for seeded plans.

    The output-size quantities stay conservative (no symbolic pass has
    run): ``c_nnz`` and ``c_row_max`` are bounded by the product counts,
    which always hold.  The modelled time charges a streaming pass over
    A's non-zeros with no per-product hashing — strictly cheaper than the
    analysis + symbolic stages it replaces.
    """
    prods = row_products(a, b)
    rows = a.rows
    key = (a.fingerprint(), b.fingerprint())
    p_total = int(prods.sum())
    p_max = int(prods.max()) if prods.size else 0
    mean_prod = p_total / rows if rows else 0.0

    def est(value: float, bound: float) -> Estimate:
        return Estimate(
            value=float(value), bound=float(bound), sample_size=rows,
            seed=0, confidence=1.0,
        )

    input_bytes = device_csr_bytes(a.rows, a.nnz) + device_csr_bytes(b.rows, b.nnz)
    fp_value = input_bytes + device_csr_bytes(rows, p_total)
    fp_bound = fp_value + 8 * p_total
    ratio = p_max / max(mean_prod, 1e-9)
    time_s = analysis_time_s(a.nnz, device) if device is not None else 0.0
    return MultiplyEstimate(
        key=key,
        seed=0,
        rows=rows,
        sample_size=rows,
        products=est(float(p_total), float(p_total)),
        prod_max=est(float(p_max), float(p_max)),
        c_nnz=est(float(p_total), float(p_total)),
        c_row_max=est(float(p_max), float(p_max)),
        footprint_bytes=est(float(fp_value), float(fp_bound)),
        ratio_symbolic=float(ratio),
        ratio_numeric=float(ratio),
        time_s=float(time_s),
    )
