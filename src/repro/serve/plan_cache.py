"""Structural plan cache: fingerprint-keyed reuse of spECK's analysis.

spECK's central artifact — the O(NNZ_A) row analysis plus the binning and
configuration decisions derived from it — depends only on the *structure*
of the operands, never on their values.  Real SpGEMM consumers multiply
with the same structures over and over (AMG setup re-runs ``R·A·P`` when
coefficients change, MCL squares a stabilising flow matrix, call-many-times
library APIs reuse a symbolic setup), so the serving layer caches these
artifacts per structural fingerprint pair and lets the engine skip the
analysis, binning and symbolic stages on a hit.

Two pieces:

* :class:`CachedPlan` — the reusable artifact bundle one cold multiply
  produces (row analysis, output row sizes, both block plans, the symbolic
  pass record, the LB decisions).
* :class:`PlanCache` — an LRU over plans with a *byte* budget (plans hold
  several per-row arrays; a 1M-row operand's plan is ~50 MB), thread-safe,
  with hit/miss/eviction counters.  Its byte total is kept running, so no
  per-request step costs O(entries).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from ..core.analysis import RowAnalysis
from ..core.global_lb import BlockPlan
from ..core.passes import PassResult
from ..extensions.multigpu import LINK_BW, LINK_LATENCY
from ..matrices.csr import CSR

if TYPE_CHECKING:  # pragma: no cover - the engine imports this module
    from ..core.speck import PlanHit

__all__ = [
    "CachedPlan",
    "PlanCache",
    "PlanIntegrityError",
    "plan_key",
    "plan_transfer_s",
]


class PlanIntegrityError(ValueError):
    """An adopted replica failed verification (checksum or compat key).

    Raised by :meth:`PlanCache.adopt` instead of trusting the peer
    blindly; the cluster's :class:`~repro.cluster.plan_index.PlanIndex`
    catches it and falls through to the next holder (or a cold
    recompute).  ``reason`` is ``"checksum"`` or ``"compat"``.
    """

    def __init__(self, message: str, *, reason: str) -> None:
        super().__init__(message)
        self.reason = reason


def plan_transfer_s(nbytes: int) -> float:
    """Modelled seconds to bring a plan of ``nbytes`` into a node's cache.

    A peer replica crosses the NVLink-class link of
    :mod:`repro.extensions.multigpu`; a plan read back from the local
    store is charged the same, so one plan costs the same from either
    rung of the plan-source ladder.
    """
    return nbytes / LINK_BW + LINK_LATENCY


def plan_key(a: CSR, b: CSR, tag: str = "") -> Tuple[str, ...]:
    """The cache key of a multiplication: structural fingerprints of A, B.

    Deliberately value-blind (see :meth:`repro.matrices.csr.CSR.fingerprint`)
    — numeric-only operand changes keep hitting the same plan.

    ``tag`` distinguishes workload variants whose plans are *not*
    interchangeable despite identical operand structures.  A masked
    multiply (``repro.graph.masked``) prunes its analysis and output
    sizes by the mask's structure, so its plan must never be served to
    an unmasked request on the same ``(A, B)`` — the tag (e.g.
    ``"masked:<mask fingerprint>"``) becomes a third key component.
    An empty tag keeps the historical two-tuple key, so plain requests,
    persisted plans, and cluster replica exchange are unaffected.
    """
    base = (a.fingerprint(), b.fingerprint())
    return base + (tag,) if tag else base


@dataclass
class CachedPlan:
    """Reusable structure-derived artifacts of one ``C = A · B``.

    Created empty (``ready=False``); the engine populates it as a side
    effect of the first (cold) multiply and reuses it afterwards.
    """

    key: Tuple[str, ...]
    ready: bool = False
    analysis: Optional[RowAnalysis] = None
    c_row_nnz: Optional[np.ndarray] = None
    use_lb_symbolic: bool = False
    use_lb_numeric: bool = False
    ratio_symbolic: float = 0.0
    ratio_numeric: float = 0.0
    plan_sym: Optional[BlockPlan] = None
    plan_num: Optional[BlockPlan] = None
    #: The cold symbolic pass record (decision diagnostics on hits).
    sym: Optional[PassResult] = None
    #: The cold numeric pass record.  ``run_pass`` is a pure function of
    #: (structure, plan, params, device), so hits reuse its result — the
    #: numeric stage is still *charged* per request; only the host-side
    #: recomputation of the identical cost record is skipped.
    num: Optional[PassResult] = None
    #: Times this plan was reused after population.
    hits: int = 0
    #: Planning mode that produced this plan: ``"full"`` for the complete
    #: pipeline, a brownout rung (``"lb_fallback"``, ``"minimal"``) when
    #: it was computed cheaply under pressure, or ``"speculative"`` when
    #: its decisions came from sampled estimates rather than exact
    #: analysis.  A non-full plan still serves requests bit-correctly; a
    #: later full-mode request *refines* it (recomputes the full plan in
    #: place of the entry).  A speculative run whose bounds were violated
    #: falls back to the exact pipeline and re-tags its plan ``"full"``.
    mode: str = "full"
    #: Device/params compatibility key stamped by the owning service
    #: (see :func:`repro.serve.plan_ir.compat_key`); ``None`` for plans
    #: built outside a service.
    compat: Optional[str] = None
    #: Plan IR payload digest stamped at population / decode time;
    #: verified on :meth:`PlanCache.adopt`.
    checksum: Optional[str] = None
    #: The digest of the frame this plan was decoded from, already
    #: verified against the payload by the decoder.  While it equals
    #: ``checksum``, :meth:`PlanCache.adopt` need not rebuild the payload.
    #: Not an init argument, so ``dataclasses.replace`` (how peers copy a
    #: replica) resets it and a replica is always content-checked.
    verified_checksum: Optional[str] = field(
        default=None, init=False, repr=False, compare=False
    )
    #: What every hit on this plan charges (stage times, decisions, the
    #: size of C), derived once by the engine on the first hit — a few
    #: scalars and two small dicts, no per-row arrays.  Reset when the
    #: plan is populated, and by ``dataclasses.replace``.
    hit_record: Optional["PlanHit"] = field(
        default=None, init=False, repr=False, compare=False
    )

    def populate(
        self,
        *,
        analysis: RowAnalysis,
        c_row_nnz: np.ndarray,
        use_lb_symbolic: bool,
        use_lb_numeric: bool,
        ratio_symbolic: float,
        ratio_numeric: float,
        plan_sym: BlockPlan,
        plan_num: BlockPlan,
        sym: PassResult,
        num: Optional[PassResult] = None,
    ) -> None:
        """Fill the plan from a cold run's artifacts and mark it ready."""
        self.analysis = analysis
        self.c_row_nnz = c_row_nnz
        self.use_lb_symbolic = use_lb_symbolic
        self.use_lb_numeric = use_lb_numeric
        self.ratio_symbolic = ratio_symbolic
        self.ratio_numeric = ratio_numeric
        self.plan_sym = plan_sym
        self.plan_num = plan_num
        self.sym = sym
        self.num = num
        self.hit_record = None
        self.ready = True

    def serves(self, mode: str) -> bool:
        """Whether this plan may serve a request planned in ``mode``.

        Any plan serves any rung except one: a full-mode request needs a
        full plan (a degraded or speculative one is refined instead).
        """
        return mode != "full" or self.mode == "full"

    def nbytes(self) -> int:
        """Host bytes held by the plan's arrays (cache budget accounting)."""
        total = 0
        if self.analysis is not None:
            total += self.analysis.nbytes()
        if self.c_row_nnz is not None:
            total += int(self.c_row_nnz.nbytes)
        for bp in (self.plan_sym, self.plan_num):
            if bp is not None:
                total += int(
                    bp.row_order.nbytes + bp.block_ptr.nbytes + bp.block_config.nbytes
                )
        for pr in (self.sym, self.num):
            if pr is not None and getattr(pr, "group_sizes", None) is not None:
                total += int(pr.group_sizes.nbytes)
        return total


@dataclass
class PlanCacheStats:
    """Counters exposed by :meth:`PlanCache.stats`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Plans that became resident: cold populations plus adopted replicas.
    inserts: int = 0
    #: Replicas refused by :meth:`PlanCache.adopt` (checksum/compat).
    rejects: int = 0
    #: Non-full (brownout) plans replaced by a full recompute.
    refines: int = 0
    bytes_cached: int = 0
    entries: int = 0
    #: Lifetime hits per fingerprint-pair key (``"fpA|fpB"``), hottest
    #: structures first — the cluster :class:`~repro.cluster.PlanIndex`
    #: uses this to decide what is worth replicating, and ``serve-bench``
    #: reports it as the per-structure reuse breakdown.
    per_key_hits: Dict[str, int] = field(default_factory=dict)
    extra: Dict[str, int] = field(default_factory=dict)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class PlanCache:
    """Thread-safe LRU cache of :class:`CachedPlan` with a byte budget.

    ``get_or_create`` returns the cached plan for a fingerprint pair (a
    *hit* once the plan is populated) or registers a fresh empty one (a
    *miss* — the caller's cold multiply populates it).  When the summed
    ``nbytes()`` of ready plans exceeds the budget, least-recently-used
    plans are evicted; a single plan larger than the whole budget is
    served but not retained.

    The byte sum is a running total: each resident key's size is taken
    once, when it becomes resident or is re-accounted after population,
    so a hit, an eviction and a gauge read cost O(1) in the entry count.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024) -> None:
        if max_bytes <= 0:
            raise ValueError("plan cache budget must be positive")
        self.max_bytes = int(max_bytes)
        self._plans: "OrderedDict[Tuple[str, ...], CachedPlan]" = OrderedDict()
        #: Accounted ``nbytes()`` per resident key, and their sum.
        self._sizes: Dict[Tuple[str, ...], int] = {}
        self._bytes = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.inserts = 0
        self.rejects = 0
        self.refines = 0
        #: Registrations refused up front because the *estimated* plan
        #: size exceeded the whole budget (see ``get_or_create``).
        self.budget_rejects = 0
        #: Lifetime hits per key; ``stats`` joins each key for reports.
        self._key_hits: Dict[Tuple[str, ...], int] = {}

    # ------------------------------------------------------------------
    def get_or_create(
        self, a: CSR, b: CSR, mode: str = "full",
        est_nbytes: Optional[int] = None, tag: str = "",
    ) -> Tuple[CachedPlan, bool]:
        """Look up the plan for ``(A, B)``; returns ``(plan, hit)``.

        ``tag`` is the workload tag folded into the key (see
        :func:`plan_key`): masked requests pass their mask fingerprint
        here so they can never collide with unmasked plans for the same
        operand structures.

        ``hit`` is true only when the plan is already populated — a plan
        registered by a concurrent cold multiply that has not finished yet
        counts as a miss (the second caller recomputes rather than waits;
        the synchronous core never blocks on another request).

        ``mode`` is the caller's planning rung (see the service's
        brownout ladder).  A ready plan serves *any* request — a full
        plan is strictly better than what a degraded request would
        compute, and under pressure a cheap plan beats a cold run — with
        one exception: a **full-mode** request landing on a non-full
        plan *refines* it.  The stale brownout entry is replaced by a
        fresh plan the caller's cold multiply populates with the
        complete pipeline ("plan cheaply now, refine later").

        ``est_nbytes`` optionally carries the *estimated* byte size of
        the plan about to be built (``repro.estimate.estimated_plan_nbytes``).
        A registration whose estimate exceeds the whole budget is refused
        up front — the caller still gets a working plan object, it is
        just never made resident, so the cold run cannot evict the entire
        cache for a plan that would be dropped at population time anyway.
        The refusal self-heals on mis-estimates: ``note_populated``
        re-checks the real size and inserts plans that do fit.
        """
        key = plan_key(a, b, tag)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None and plan.ready:
                if not plan.serves(mode):
                    self.refines += 1
                    self.misses += 1
                    plan = CachedPlan(key=key, mode=mode)
                    self._put_locked(key, plan, 0)
                    return plan, False
                self._plans.move_to_end(key)
                plan.hits += 1
                self.hits += 1
                self._key_hits[key] = self._key_hits.get(key, 0) + 1
                return plan, True
            self.misses += 1
            if plan is None:
                if est_nbytes is not None and est_nbytes > self.max_bytes:
                    self.budget_rejects += 1
                    return CachedPlan(key=key, mode=mode), False
                plan = CachedPlan(key=key)
                self._put_locked(key, plan, 0)
            plan.mode = mode
            return plan, False

    def note_populated(self, plan: CachedPlan) -> None:
        """Re-account a plan after the engine populated it (its byte size
        is only known now) and enforce the budget."""
        with self._lock:
            resident = self._plans.get(plan.key)
            if resident is not None:
                # The resident object may not be ``plan`` (refined or
                # re-registered meanwhile); the total follows what stays.
                self._put_locked(plan.key, resident, resident.nbytes())
                if plan.ready:
                    self.inserts += 1
            elif plan.ready:
                nbytes = plan.nbytes()
                if nbytes <= self.max_bytes:
                    self._put_locked(plan.key, plan, nbytes)
                    self.inserts += 1
            self._evict_locked()

    # ------------------------------------------------------------------
    def peek(self, key: Tuple[str, ...]) -> Optional[CachedPlan]:
        """The *ready* plan under ``key``, or ``None`` — stat-neutral.

        Used by cluster peers fetching a replica: a remote lookup is
        neither a local hit nor a miss, and must not disturb the LRU
        order of the serving node.
        """
        with self._lock:
            plan = self._plans.get(key)
            return plan if plan is not None and plan.ready else None

    def adopt(
        self, plan: CachedPlan, *, expected_compat: Optional[str] = None
    ) -> CachedPlan:
        """Insert a ready plan produced elsewhere (a replicated peer plan
        or a plan decoded from the durable store).

        Counts as an insert, enforces the byte budget, and returns the
        resident plan — the existing one if a concurrent multiply already
        populated this key locally.

        The replica is **verified, not trusted**: when it carries a
        compat key that mismatches ``expected_compat``, or a Plan IR
        checksum that no longer matches its content, adoption raises
        :class:`PlanIntegrityError` and the rejection is counted in the
        cache stats.  Plans without a checksum (built outside a service)
        skip content verification, and so do plans whose checksum is the
        digest of the frame they were just decoded from (the decoder
        verified it against the very payload a rebuild would produce).
        """
        if not plan.ready:
            raise ValueError("only populated plans can be adopted")
        if (
            expected_compat is not None
            and plan.compat is not None
            and plan.compat != expected_compat
        ):
            with self._lock:
                self.rejects += 1
            raise PlanIntegrityError(
                f"replica compat {plan.compat!r} does not match this "
                f"service's {expected_compat!r}",
                reason="compat",
            )
        if plan.checksum is not None and plan.checksum != plan.verified_checksum:
            from .plan_ir import plan_checksum  # local: avoids an import cycle

            if plan_checksum(plan) != plan.checksum:
                with self._lock:
                    self.rejects += 1
                raise PlanIntegrityError(
                    "replica content does not match its Plan IR checksum",
                    reason="checksum",
                )
        with self._lock:
            existing = self._plans.get(plan.key)
            if existing is not None and existing.ready:
                return existing
            self._put_locked(plan.key, plan, plan.nbytes())
            self.inserts += 1
            self._evict_locked()
            return plan

    def _put_locked(
        self, key: Tuple[str, ...], plan: CachedPlan, nbytes: int
    ) -> None:
        """Make ``plan`` the most recent resident under ``key``, accounted
        at ``nbytes``."""
        self._bytes += nbytes - self._sizes.get(key, 0)
        self._sizes[key] = nbytes
        self._plans[key] = plan
        self._plans.move_to_end(key)

    def _evict_locked(self) -> None:
        while self._bytes > self.max_bytes and self._plans:
            key, victim = next(iter(self._plans.items()))
            if len(self._plans) == 1 and not victim.ready:
                break  # an in-flight cold plan holds no arrays yet
            del self._plans[key]
            self._bytes -= self._sizes.pop(key)
            self.evictions += 1

    # ------------------------------------------------------------------
    @property
    def bytes_cached(self) -> int:
        with self._lock:
            return self._bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: Tuple[str, ...]) -> bool:
        with self._lock:
            return key in self._plans

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
            self._sizes.clear()
            self._bytes = 0

    def stats(self) -> PlanCacheStats:
        """A snapshot of the counters, per-key hits sorted hottest first.

        The sort is O(keys), so it is taken for reports and the cluster's
        hit roll-up, never per request.
        """
        with self._lock:
            per_key = dict(
                sorted(
                    (("|".join(k), n) for k, n in self._key_hits.items()),
                    key=lambda kv: (-kv[1], kv[0]),
                )
            )
            return PlanCacheStats(
                hits=self.hits,
                misses=self.misses,
                evictions=self.evictions,
                inserts=self.inserts,
                rejects=self.rejects,
                refines=self.refines,
                bytes_cached=self._bytes,
                entries=len(self._plans),
                per_key_hits=per_key,
                extra=(
                    {"budget_rejects": self.budget_rejects}
                    if self.budget_rejects
                    else {}
                ),
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        s = self.stats()
        return (
            f"PlanCache(entries={s.entries}, bytes={s.bytes_cached}, "
            f"hits={s.hits}, misses={s.misses}, evictions={s.evictions})"
        )
