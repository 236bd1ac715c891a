"""Output checks, run after the clock stops.

Every completed request's C is compared, array for array, with an exact
ESC product of the operands it saw (:class:`Reference`, itself checked
once against a SciPy product).  Suite records are checked against a
reference product count and output nnz.  Conservation is checked too:
exactly one terminal outcome per request id.  Each check returns a
:class:`Verdict`; a wrong result makes the run exit non-zero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from repro.baselines import kokkos_like
from repro.kernels.reference import esc_multiply
from repro.matrices.csr import CSR

__all__ = ["Reference", "Verdict", "combine", "csr_equal", "judge_requests", "judge_suite"]


@dataclass
class Verdict:
    """What one replay's outputs amount to."""

    #: Ops attempted: requests offered, or (case, method) runs.
    ops: int = 0
    #: Ops that completed with a correct result.
    ok: int = 0
    #: Ops that completed with a wrong result (the run is incorrect).
    wrong: int = 0
    #: Ops that neither completed correctly nor were a verified refusal:
    #: sheds, timeouts, failures and wrong results.
    failed: int = 0
    #: Broken invariants (conservation), each one line.
    problems: List[str] = field(default_factory=list)
    #: Digest of the modeled results; every timed replay must match the
    #: first one.
    signature: str = ""
    #: Modeled latency of each completed op, seconds.
    model_latency_s: List[float] = field(default_factory=list)
    #: Modeled GFLOPS of each completed spECK multiply.
    model_gflops: List[float] = field(default_factory=list)
    #: Modeled spECK stage seconds, summed over completed multiplies.
    stage_s: Dict[str, float] = field(default_factory=dict)
    #: Modeled queue wait of each completed request, seconds.
    wait_s: List[float] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and not self.problems

    def drop_samples(self) -> None:
        """Release the per-op modeled samples.  A run reports them from one
        replay; keeping every replay's would make peak RSS grow with the
        number of replays, that is with host speed."""
        self.model_latency_s, self.model_gflops, self.wait_s = [], [], []


def combine(parts: Sequence[Verdict]) -> Verdict:
    """One replay's verdict from the verdicts of its timed calls, in order."""
    if len(parts) == 1:
        return parts[0]
    v = Verdict()
    for p in parts:
        v.ops += p.ops
        v.ok += p.ok
        v.wrong += p.wrong
        v.failed += p.failed
        v.problems += p.problems
        v.model_latency_s += p.model_latency_s
        v.model_gflops += p.model_gflops
        v.wait_s += p.wait_s
        for stage, secs in p.stage_s.items():
            v.stage_s[stage] = v.stage_s.get(stage, 0.0) + secs
    v.signature = _digest([p.signature for p in parts])
    return v


def csr_equal(got: CSR, want: CSR) -> bool:
    """Exact equality of shape, structure and values."""
    return (
        got.shape == want.shape
        and np.array_equal(got.indptr, want.indptr)
        and np.array_equal(got.indices, want.indices)
        and np.array_equal(got.data, want.data)
    )


def _scipy(m: CSR) -> sp.csr_matrix:
    return sp.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def _pattern(m: CSR) -> sp.csr_matrix:
    return sp.csr_matrix(
        (np.ones(m.nnz), m.indices, m.indptr), shape=m.shape
    )


class Reference:
    """Exact expected products, one per named operand pair.

    :meth:`c` is the repository's ESC product, cross-checked once against
    SciPy: its structure must equal the product of the two patterns (all
    ones, so nothing cancels) and its values must agree to rounding.
    :meth:`nnz` needs only the structure, so it comes from SciPy alone.
    """

    def __init__(self, pairs: Sequence[Tuple[str, CSR, CSR]]) -> None:
        self.pairs = {name: (a, b) for name, a, b in pairs}
        self._c: Dict[str, CSR] = {}
        self._facts: Dict[str, Tuple[int, int, int]] = {}

    def c(self, name: str) -> CSR:
        c = self._c.get(name)
        if c is None:
            a, b = self.pairs[name]
            c = esc_multiply(a, b)
            _cross_check(name, a, b, c)
            self._c[name] = c
        return c

    def _fact(self, name: str, i: int) -> int:
        facts = self._facts.get(name)
        if facts is None:
            a, b = self.pairs[name]
            per_entry = np.diff(b.indptr)[a.indices].astype(np.int64)
            prefix = np.concatenate(([0], np.cumsum(per_entry)))
            row_products = prefix[a.indptr[1:]] - prefix[a.indptr[:-1]]
            facts = self._facts[name] = (
                (_pattern(a) @ _pattern(b)).nnz,
                int(prefix[-1]),
                int(row_products.max(initial=0)),
            )
        return facts[i]

    def nnz(self, name: str) -> int:
        return self._fact(name, 0)

    def products(self, name: str) -> int:
        """Intermediate products: one per (a_ik, b_kj) pair."""
        return self._fact(name, 1)

    def row_products_max(self, name: str) -> int:
        return self._fact(name, 2)


def _cross_check(name: str, a: CSR, b: CSR, c: CSR) -> None:
    pat = (_pattern(a) @ _pattern(b)).tocsr()
    pat.sort_indices()
    if not (
        np.array_equal(pat.indptr, c.indptr)
        and np.array_equal(pat.indices, c.indices)
    ):
        raise AssertionError(f"{name}: ESC structure disagrees with SciPy")
    diff = abs(_scipy(c) - _scipy(a) @ _scipy(b))
    scale = max(1.0, float(abs(c.data).max())) if c.nnz else 1.0
    if diff.nnz and float(diff.max()) > 1e-9 * scale:
        raise AssertionError(f"{name}: ESC values disagree with SciPy")


def _digest(rows: list) -> str:
    return hashlib.blake2b(repr(rows).encode(), digest_size=16).hexdigest()


def _speck_model(verdict: Verdict, res, flops: int) -> None:
    verdict.model_gflops.append(flops / res.time_s / 1e9)
    for stage, secs in res.stage_times.items():
        verdict.stage_s[stage] = verdict.stage_s.get(stage, 0.0) + secs


def judge_requests(requests, outcomes, reference: Reference) -> Verdict:
    """Check a serve or fleet replay: conservation and every C."""
    v = Verdict(ops=len(requests))
    want_ids = sorted(r.id for r in requests)
    got_ids = sorted(o.request_id for o in outcomes)
    if got_ids != want_ids:
        v.problems.append(
            f"conservation: {len(outcomes)} outcomes for {len(requests)} "
            f"requests ({len(set(got_ids))} distinct ids)"
        )
    checked: Dict[Tuple[int, str], bool] = {}
    rows = []
    for o in sorted(outcomes, key=lambda o: o.request_id):
        res = o.result
        rows.append((o.request_id, o.status, o.start_s, o.finish_s,
                     res.time_s if res is not None else None))
        if o.status != "ok":
            v.failed += 1
            continue
        c = res.c if res is not None and res.valid else None
        good = False
        if c is not None:
            key = (id(c), o.case_name)
            good = checked.get(key)
            if good is None:
                good = checked[key] = csr_equal(c, reference.c(o.case_name))
        if not good:
            v.wrong += 1
            v.failed += 1
            continue
        v.ok += 1
        v.model_latency_s.append(o.finish_s - o.arrival_s)
        v.wait_s.append(o.start_s - o.arrival_s)
        _speck_model(v, res, 2 * reference.products(o.case_name))
    v.signature = _digest(rows)
    return v


def kokkos_refuses(row_products_max: int) -> bool:
    """Whether the Kokkos model must refuse an input: a row over its
    per-row product budget (the paper's dominant Kokkos failure)."""
    return row_products_max > kokkos_like._ROW_PRODUCT_LIMIT


def judge_suite(result, reference: Reference) -> Verdict:
    """Check a sweep: every case's nnz and products, every run's validity.

    A run is correct when it is valid on a case whose record matches the
    reference.  The one refusal accepted as correct behaviour is Kokkos
    on a case whose longest row exceeds its per-row budget, refused with
    a structured failure; it counts as a miss in ``ok_share`` but not as
    a failure.  Kokkos accepting such a case is a wrong result.
    """
    v = Verdict(ops=len(result.runs))
    rows = []
    for run in result.runs:
        rows.append((run.matrix, run.method, run.valid, run.time_s))
        mrec = result.matrices.get(run.matrix)
        if (
            mrec is None
            or mrec.nnz_c != reference.nnz(run.matrix)
            or mrec.products != reference.products(run.matrix)
        ):
            v.wrong += 1
            v.failed += 1
            continue
        refuse = run.method == "Kokkos" and kokkos_refuses(
            reference.row_products_max(run.matrix)
        )
        if refuse:
            if run.valid:
                v.wrong += 1
                v.failed += 1
            elif run.failure_info is None:
                v.failed += 1
            continue
        if not run.valid:
            v.failed += 1
            continue
        v.ok += 1
        v.model_latency_s.append(run.time_s)
        if run.method == "spECK":
            _speck_model(v, run, 2 * reference.products(run.matrix))
    v.signature = _digest(rows)
    return v
