"""Fault injection and the structured failure taxonomy.

The paper's evaluation depends on methods *failing visibly but gracefully*:
Table 3's ``#inv.`` row counts matrices a method cannot multiply within the
12 GB device, and spECK itself contains fallback cliffs (the global
hash-map spill when a row outgrows scratchpad, conditional load balancing
when thresholds mispredict).  Reproducing those behaviours faithfully
requires a *controllable* fault model: this module provides

* a failure taxonomy — :class:`SpGEMMError` and its subclasses
  (:class:`SimulatedFault`, :class:`KernelLaunchError`,
  :class:`AccumulatorOverflow`; :class:`~repro.gpu.memory.DeviceOOM` joins
  the hierarchy from :mod:`repro.gpu.memory`) — each carrying a
  machine-readable :class:`FailureInfo` instead of a free-form string;
* a deterministic, seedable :class:`FaultPlan` that the
  :class:`~repro.gpu.memory.MemoryLedger`, the kernel-launch accounting and
  spECK's scratchpad model consult to inject faults at chosen points:
  allocation failures at the Nth allocation or above a byte threshold,
  kernel-launch failures, forced global-memory hash spills, and transient
  faults that succeed on retry;
* a compact text format for fault plans (:func:`parse_fault_spec`) used by
  the CLI's ``--faults`` flag and the CI smoke sweep.

Determinism: probabilistic rules derive their coin flips from a stable
hash of ``(seed, rule, method, matrix, event counter)``, so a sweep
injects exactly the same faults regardless of evaluation order or
checkpoint resumption.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from typing import Callable, Dict, List, Optional, Tuple

__all__ = [
    "FailureInfo",
    "SpGEMMError",
    "SimulatedFault",
    "KernelLaunchError",
    "AccumulatorOverflow",
    "FaultRule",
    "FaultPlan",
    "FaultScope",
    "parse_fault_spec",
    "FaultSpecError",
]

#: Injection sites a rule may target.  ``alloc``/``launch``/``spill`` are
#: consulted inside one engine run; ``node_crash``/``node_degrade`` are
#: cluster-level sites consulted once per dispatch on a serving node
#: (the rule's *method* glob matches the node name);
#: ``disk_corrupt``/``disk_torn_write`` are durability sites consulted by
#: the :class:`~repro.serve.plan_store.PlanStore` once per WAL append
#: (the method glob matches the store owner's name, e.g. the node name);
#: ``estimate_skew`` is consulted once per speculative estimation by the
#: engine (the method glob matches the matrix/case name) and multiplies
#: the estimator's confidence bounds by the rule's ``factor`` — deflating
#: (< 1) forces the exact-analysis fallback path, inflating (> 1) makes
#: the speculative allocation oversized.
#: ``mask_drop`` is consulted once per masked multiply
#: (:mod:`repro.graph.masked`; the method glob matches the case name) and
#: silently drops a ``factor`` share of the masked plan's pruned-column
#: set — a wrong-result corruption the masked differential oracle in
#: :mod:`repro.check` must catch.
SITES = (
    "alloc",
    "launch",
    "spill",
    "node_crash",
    "node_degrade",
    "disk_corrupt",
    "disk_torn_write",
    "estimate_skew",
    "mask_drop",
)


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class FailureInfo:
    """Machine-readable description of one failed SpGEMM run.

    Attributes
    ----------
    kind:
        Failure class: ``"oom"``, ``"launch"``, ``"overflow"``,
        ``"injected"``, ``"limitation"`` or ``"crash"``.
    stage:
        Pipeline stage / phase active when the failure occurred.
    tag:
        Site detail — the allocation tag or kernel name.
    message:
        Human-readable description (what the old free-form string held).
    retryable:
        Whether a retry/fallback policy may re-attempt the run.
    """

    kind: str
    stage: str = ""
    tag: str = ""
    message: str = ""
    retryable: bool = False

    def as_dict(self) -> Dict[str, object]:
        """Plain-dict form for JSONL checkpoints."""
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "FailureInfo":
        return cls(
            kind=str(d.get("kind", "crash")),
            stage=str(d.get("stage", "")),
            tag=str(d.get("tag", "")),
            message=str(d.get("message", "")),
            retryable=bool(d.get("retryable", False)),
        )

    @classmethod
    def from_exception(cls, exc: BaseException, *, stage: str = "") -> "FailureInfo":
        """Wrap any exception; :class:`SpGEMMError` keeps its own info."""
        if isinstance(exc, SpGEMMError):
            return exc.info
        return cls(kind="crash", stage=stage, message=f"{type(exc).__name__}: {exc}")

    def __str__(self) -> str:
        return self.message or self.kind


class SpGEMMError(RuntimeError):
    """Base of the structured failure taxonomy.

    Every simulated failure carries its classification (``kind``), the
    pipeline ``stage`` and site ``tag`` where it happened, and whether a
    retry/fallback policy may re-attempt the run (``retryable``).
    """

    kind = "crash"

    def __init__(
        self,
        message: str,
        *,
        stage: str = "",
        tag: str = "",
        retryable: bool = False,
    ) -> None:
        super().__init__(message)
        self.stage = stage
        self.tag = tag
        self.retryable = retryable
        #: Simulated seconds spent before the failure (set by retry drivers
        #: so the wasted attempt is charged to the model).
        self.partial_time_s = 0.0

    @property
    def info(self) -> FailureInfo:
        """The machine-readable form carried on results and records."""
        return FailureInfo(
            kind=self.kind,
            stage=self.stage,
            tag=self.tag,
            message=str(self),
            retryable=self.retryable,
        )


class SimulatedFault(SpGEMMError):
    """An injected fault from a :class:`FaultPlan` (allocation site)."""

    kind = "injected"


class KernelLaunchError(SpGEMMError):
    """A kernel failed to launch (injected or device-limit driven)."""

    kind = "launch"


class AccumulatorOverflow(SpGEMMError):
    """An accumulation structure outgrew its fixed budget (the dominant
    cause of KokkosKernels' 815 failures in the paper)."""

    kind = "overflow"


# ---------------------------------------------------------------------------
# Fault plans
# ---------------------------------------------------------------------------
class FaultSpecError(ValueError):
    """Raised for malformed ``--faults`` specifications."""


@dataclass(frozen=True)
class FaultRule:
    """One injection rule of a :class:`FaultPlan`.

    A rule fires when its ``site`` event occurs and every filter matches.
    ``transient`` rules fire at most once per (matrix, method) scope — a
    retry of the same run proceeds past them, modelling faults that clear
    on re-execution; persistent rules re-fire on every attempt.
    """

    #: Injection site: ``"alloc"``, ``"launch"`` or ``"spill"``.
    site: str
    #: Algorithm-name glob (``fnmatch``); ``"*"`` matches every method.
    method: str = "*"
    #: Matrix/case-name glob.
    matrix: str = "*"
    #: Stage/tag glob matched against the site's tag (allocation tag,
    #: stage name).
    tag: str = "*"
    #: Fire on the Nth matching event of this site per attempt (1-based);
    #: ``None`` means every event is eligible.
    after_n: Optional[int] = None
    #: Allocation site only: fire when the request is at least this large.
    min_bytes: Optional[int] = None
    #: Bernoulli firing probability (seeded, deterministic).
    probability: float = 1.0
    #: Transient faults clear after firing once per scope (retry succeeds).
    transient: bool = False
    #: ``estimate_skew`` only: multiplier applied to the estimator's
    #: confidence bounds (< 1 deflates → forces fallback; > 1 inflates).
    #: ``None`` uses the site's default deflation of 0.25.
    factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise FaultSpecError(
                f"unknown fault site {self.site!r}; expected one of {SITES}"
            )
        if not (0.0 <= self.probability <= 1.0):
            raise FaultSpecError("probability must be within [0, 1]")
        if self.after_n is not None and self.after_n < 1:
            raise FaultSpecError("after_n is 1-based and must be >= 1")
        if self.factor is not None and self.factor <= 0.0:
            raise FaultSpecError("factor must be > 0")

    def matches(
        self, site: str, method: str, matrix: str, tag: str, counter: int,
        nbytes: Optional[int],
    ) -> bool:
        if site != self.site:
            return False
        if not fnmatchcase(method, self.method):
            return False
        if not fnmatchcase(matrix, self.matrix):
            return False
        if not fnmatchcase(tag, self.tag):
            return False
        if self.after_n is not None and counter != self.after_n:
            return False
        if self.min_bytes is not None and (nbytes is None or nbytes < self.min_bytes):
            return False
        return True


class FaultPlan:
    """A deterministic, seedable set of injection rules.

    The plan itself is immutable shared state; per-invocation mutable
    state (event counters, which transient rules already fired) lives in
    the :class:`FaultScope` handed to each ``(matrix, method)`` run.
    """

    def __init__(self, rules: List[FaultRule], *, seed: int = 0) -> None:
        self.rules: Tuple[FaultRule, ...] = tuple(rules)
        self.seed = int(seed)
        #: Optional diagnostics callback invoked with one event dict per
        #: fired injection (see :attr:`FaultScope.history` for the shape).
        #: Purely observational — it never influences which rules fire —
        #: and used by :mod:`repro.check` to assert that every injected
        #: fault surfaced as a structured failure or a successful retry.
        self.observer: Optional[Callable[[Dict[str, object]], None]] = None

    def scope(self, method: str, matrix: str = "") -> "FaultScope":
        """A fresh per-invocation consultation handle."""
        return FaultScope(self, method, matrix)

    def chance(self, rule_idx: int, method: str, matrix: str, counter: int) -> float:
        """Deterministic uniform draw in [0, 1) for a probabilistic rule."""
        key = f"{self.seed}:{rule_idx}:{method}:{matrix}:{counter}"
        digest = hashlib.blake2b(key.encode("utf-8"), digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2.0**64

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FaultPlan({len(self.rules)} rules, seed={self.seed})"


class FaultScope:
    """Mutable consultation state for one ``(matrix, method)`` invocation.

    The scope counts site events per *attempt* (``new_attempt`` resets the
    counters when a retry policy re-runs the pipeline) and remembers which
    transient rules already fired (so retries proceed past them).  A scope
    constructed with ``plan=None`` is inert: every check is a no-op, which
    lets algorithm code consult it unconditionally.
    """

    def __init__(
        self, plan: Optional[FaultPlan], method: str, matrix: str = ""
    ) -> None:
        self.plan = plan
        self.method = method
        self.matrix = matrix
        self.attempt = 1
        self.stage = ""
        self._counters: Dict[str, int] = {}
        self._fired: Dict[int, int] = {}
        #: Total faults injected through this scope (diagnostics).
        self.injected = 0
        #: One event dict per fired injection, in firing order:
        #: ``{"site", "tag", "rule", "attempt", "stage", "method",
        #: "matrix"}``.  Mirrored to :attr:`FaultPlan.observer` when set.
        self.history: List[Dict[str, object]] = []

    # -- bookkeeping -----------------------------------------------------
    def new_attempt(self) -> None:
        """Start a retry: reset per-attempt counters, keep fired history."""
        self.attempt += 1
        self.stage = ""
        self._counters.clear()

    def enter_stage(self, stage: str) -> None:
        """Record the active pipeline stage (carried on failures)."""
        self.stage = stage

    def _consult(
        self,
        site: str,
        tag: str,
        nbytes: Optional[int],
        method: Optional[str] = None,
    ) -> Optional[FaultRule]:
        if self.plan is None or not self.plan.rules:
            return None
        consulted_method = self.method if method is None else method
        counter = self._counters.get(site, 0) + 1
        self._counters[site] = counter
        for idx, rule in enumerate(self.plan.rules):
            if not rule.matches(
                site, consulted_method, self.matrix, tag, counter, nbytes
            ):
                continue
            if rule.transient and self._fired.get(idx, 0) >= 1:
                continue  # cleared: the retry proceeds
            if rule.probability < 1.0:
                draw = self.plan.chance(idx, consulted_method, self.matrix, counter)
                if draw >= rule.probability:
                    continue
            self._fired[idx] = self._fired.get(idx, 0) + 1
            self.injected += 1
            event: Dict[str, object] = {
                "site": site,
                "tag": tag,
                "rule": idx,
                "attempt": self.attempt,
                "stage": self.stage,
                "method": self.method,
                "matrix": self.matrix,
            }
            self.history.append(event)
            if self.plan.observer is not None:
                self.plan.observer(event)
            return rule
        return None

    # -- injection points ------------------------------------------------
    def on_alloc(self, nbytes: int, tag: str) -> None:
        """Consulted by :meth:`MemoryLedger.alloc` before the capacity
        check; raises :class:`SimulatedFault` when a rule fires."""
        rule = self._consult("alloc", tag, int(nbytes))
        if rule is not None:
            raise SimulatedFault(
                f"injected allocation failure for {tag!r} "
                f"({int(nbytes)} B, attempt {self.attempt})",
                stage=self.stage or tag,
                tag=tag,
                retryable=True,
            )

    def on_launch(self, name: str) -> None:
        """Consulted by kernel-launch accounting; raises
        :class:`KernelLaunchError` when a rule fires."""
        rule = self._consult("launch", name, None)
        if rule is not None:
            raise KernelLaunchError(
                f"injected launch failure in {name!r} (attempt {self.attempt})",
                stage=self.stage or name,
                tag=name,
                retryable=True,
            )

    def force_spill(self, stage: str) -> bool:
        """Consulted by spECK's scratchpad model: ``True`` forces the
        global-memory hash-map spill path for this pass."""
        return self._consult("spill", stage, None) is not None

    # -- cluster-level sites ----------------------------------------------
    def node_crash(self, tag: str = "") -> bool:
        """Consulted by a cluster node once per dispatch: ``True`` means
        the whole node crashes now.  Never raises — the cluster's failover
        path reroutes the node's work instead of unwinding a stack."""
        return self._consult("node_crash", tag or self.method, None) is not None

    def node_degrade(self, tag: str = "") -> bool:
        """Consulted by a cluster node once per dispatch: ``True`` puts
        the node into a temporarily degraded (slowed) state.  Transient
        rules model degradation that clears; persistent rules keep the
        node degraded for the whole run."""
        return self._consult("node_degrade", tag or self.method, None) is not None

    # -- durability sites --------------------------------------------------
    def disk_corrupt(self, tag: str = "") -> bool:
        """Consulted by the plan store once per WAL append: ``True`` means
        the frame lands on disk bit-flipped (a latent media error the
        load path must detect via the Plan IR checksum and quarantine).
        Never raises — corruption is silent by nature."""
        return self._consult("disk_corrupt", tag or self.method, None) is not None

    def disk_torn_write(self, tag: str = "") -> bool:
        """Consulted by the plan store once per WAL append: ``True`` means
        the process "dies" mid-write, leaving a torn (half-written) final
        frame for the next load to quarantine and truncate."""
        return (
            self._consult("disk_torn_write", tag or self.method, None) is not None
        )

    # -- estimation sites --------------------------------------------------
    def estimate_skew(self, tag: str = "") -> Optional[float]:
        """Consulted by the engine once per speculative estimation: a
        firing rule returns the multiplier to apply to the estimator's
        confidence bounds (``factor``, default 0.25).  Deflating the
        bounds (< 1) makes the realized stats exceed them, deterministically
        exercising the exact-analysis fallback path; inflating (> 1)
        oversizes the speculative allocation.  Unlike engine-level sites,
        the rule's *method* glob is matched against the matrix/case name
        (mirroring how node sites match node names), so
        ``estimate_skew@rmat_*`` targets those cases directly."""
        case = self.matrix or self.method
        rule = self._consult("estimate_skew", tag or case, None, method=case)
        if rule is None:
            return None
        return 0.25 if rule.factor is None else float(rule.factor)

    # -- graph workload sites ----------------------------------------------
    def mask_drop(self, tag: str = "") -> Optional[float]:
        """Consulted once per masked multiply (``repro.graph.masked``): a
        firing rule returns the share of the masked plan's pruned-column
        set to drop (``factor``, default 0.25, clamped to (0, 1]).  The
        corruption is deterministic — every ``round(1/factor)``-th entry
        of the allowed set disappears — and *silent*: the multiply
        completes with entries missing from C, which only the masked
        differential oracle in :mod:`repro.check` can expose.  Like
        ``estimate_skew``, the rule's *method* glob is matched against
        the case name, so ``mask_drop@chk-*`` targets check cases."""
        case = self.matrix or self.method
        rule = self._consult("mask_drop", tag or case, None, method=case)
        if rule is None:
            return None
        factor = 0.25 if rule.factor is None else float(rule.factor)
        return min(max(factor, 1e-9), 1.0)


#: Shared inert scope for algorithms running without a fault plan.
def null_scope(method: str = "", matrix: str = "") -> FaultScope:
    """An inert scope (no plan): all consultation calls are no-ops."""
    return FaultScope(None, method, matrix)


# ---------------------------------------------------------------------------
# Text spec parsing (CLI --faults, CI smoke plans)
# ---------------------------------------------------------------------------
def parse_fault_spec(spec: str) -> FaultPlan:
    """Parse a compact fault-plan spec into a :class:`FaultPlan`.

    Grammar (rules joined by ``;``)::

        spec  ::= entry (";" entry)*
        entry ::= "seed=" INT | rule
        rule  ::= site ["@" method-glob] (":" option)*
        site  ::= "alloc" | "launch" | "spill"
                | "node_crash" | "node_degrade"   -- cluster nodes only;
                                                  -- method-glob = node name
                | "disk_corrupt" | "disk_torn_write"
                                                  -- plan-store WAL appends;
                                                  -- method-glob = store owner
                | "estimate_skew"                 -- speculative estimation;
                                                  -- method-glob = case name
                | "mask_drop"                     -- masked multiplies;
                                                  -- method-glob = case name
        option::= "n=" INT        -- fire on the Nth site event (1-based)
                | "bytes=" INT    -- alloc only: requests >= this size
                | "matrix=" GLOB  -- restrict to matching case names
                | "tag=" GLOB     -- restrict to matching tags/stages
                | "p=" FLOAT      -- seeded firing probability
                | "factor=" FLOAT -- estimate_skew only: bound multiplier
                | "transient"     -- clears after one firing (retry succeeds)

    Examples::

        alloc:n=1                       # first allocation of every run fails
        alloc@spECK:n=2:transient       # spECK's 2nd alloc fails once, retry ok
        launch@nsparse:matrix=rmat_*    # nsparse launches fail on rmat cases
        seed=7;alloc:p=0.05             # 5% of allocations fail, seeded
        node_crash@node-1:n=200         # node-1 dies at its 200th dispatch
        node_degrade@node-*:p=0.001:transient  # rare transient slowdowns
        disk_corrupt@node-0:n=2         # node-0's 2nd WAL append bit-flips
        disk_torn_write@node-*:p=0.01   # 1% of appends die mid-write
        estimate_skew@skew_*:factor=0.2 # deflate bounds on skew_* cases:
                                        # speculative plans fall back
        mask_drop@chk-*:factor=0.5      # silently drop half of the masked
                                        # plan's pruned-column set
    """
    rules: List[FaultRule] = []
    seed = 0
    for raw in spec.split(";"):
        entry = raw.strip()
        if not entry:
            continue
        if entry.startswith("seed="):
            try:
                seed = int(entry[len("seed="):])
            except ValueError as exc:
                raise FaultSpecError(f"bad seed in {entry!r}") from exc
            continue
        head, *opts = entry.split(":")
        site, _, method = head.partition("@")
        site = site.strip()
        kwargs: Dict[str, object] = {"site": site}
        if method.strip():
            kwargs["method"] = method.strip()
        for opt in opts:
            opt = opt.strip()
            if opt == "transient":
                kwargs["transient"] = True
                continue
            key, sep, value = opt.partition("=")
            if not sep:
                raise FaultSpecError(f"malformed option {opt!r} in {entry!r}")
            try:
                if key == "n":
                    kwargs["after_n"] = int(value)
                elif key == "bytes":
                    kwargs["min_bytes"] = int(value)
                elif key == "matrix":
                    kwargs["matrix"] = value
                elif key == "tag":
                    kwargs["tag"] = value
                elif key == "p":
                    kwargs["probability"] = float(value)
                elif key == "factor":
                    kwargs["factor"] = float(value)
                else:
                    raise FaultSpecError(
                        f"unknown option {key!r} in {entry!r}"
                    )
            except ValueError as exc:
                if isinstance(exc, FaultSpecError):
                    raise
                raise FaultSpecError(f"bad value for {key!r} in {entry!r}") from exc
        try:
            rules.append(FaultRule(**kwargs))  # type: ignore[arg-type]
        except FaultSpecError as exc:
            # Name the offending rule: a multi-rule spec error is useless
            # without knowing which entry tripped it.
            raise FaultSpecError(f"{exc} (rule {entry!r})") from None
    if not rules:
        raise FaultSpecError(f"fault spec {spec!r} contains no rules")
    return FaultPlan(rules, seed=seed)
