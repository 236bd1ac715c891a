"""The plan cache's byte accounting: a running total, O(1) per request.

``PlanCache`` keeps each resident plan's accounted size and their sum
instead of re-summing ``nbytes()`` over every entry.  A state machine
drives random lookups (refines and budget rejects included),
populations, adoptions and clears against a reference LRU that re-sums
on every read, and checks after each step that the running total, the
resident order and the counters match it.  Counting tests pin that a
lookup, a population and the service's per-request gauges do no
per-entry work.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.matrices import generators as gen
from repro.serve.plan_cache import CachedPlan, PlanCache, plan_key
from repro.serve.service import SpGEMMService

#: The budget of the state machine's cache: a few templates fit, the
#: largest one never does.
BUDGET = 5000
TAGS = tuple(f"t{i}" for i in range(6))
MODES = ("full", "speculative", "lb_fallback", "minimal")


@functools.lru_cache(maxsize=None)
def _operand():
    return gen.rmat(3, 2, seed=0)


@functools.lru_cache(maxsize=None)
def _templates():
    """Ready plans of four sizes (640 to 5464 bytes) from cold runs."""
    svc = SpGEMMService()
    plans = []
    for seed, (scale, edges) in enumerate([(3, 2), (4, 4), (5, 4), (6, 4)]):
        a = gen.rmat(scale, edges, seed=seed)
        assert svc.multiply(a, a).valid
        plans.append(svc.plans.peek((a.fingerprint(), a.fingerprint())))
    return tuple(plans)


def _fill(plan: CachedPlan, template: CachedPlan) -> CachedPlan:
    plan.populate(
        analysis=template.analysis,
        c_row_nnz=template.c_row_nnz,
        use_lb_symbolic=template.use_lb_symbolic,
        use_lb_numeric=template.use_lb_numeric,
        ratio_symbolic=template.ratio_symbolic,
        ratio_numeric=template.ratio_numeric,
        plan_sym=template.plan_sym,
        plan_num=template.plan_num,
        sym=template.sym,
        num=template.num,
    )
    return plan


def _template_for(key) -> CachedPlan:
    return _templates()[TAGS.index(key[-1]) % len(_templates())]


class ReferenceLRU:
    """The cache's residency rules with the byte sum taken afresh on
    every read: the behaviour the running total must reproduce."""

    def __init__(self, max_bytes: int) -> None:
        self.max_bytes = max_bytes
        self.plans: "OrderedDict[tuple, CachedPlan]" = OrderedDict()
        self.evictions = 0

    def bytes(self) -> int:
        return sum(p.nbytes() for p in self.plans.values())

    def evict(self) -> None:
        while self.bytes() > self.max_bytes and self.plans:
            key, victim = next(iter(self.plans.items()))
            if len(self.plans) == 1 and not victim.ready:
                break
            del self.plans[key]
            self.evictions += 1

    def lookup(self, key, mode, est_nbytes, plan, hit) -> None:
        resident = self.plans.get(key)
        if resident is not None and resident.ready:
            if not hit:  # refined: a fresh plan replaces the entry
                self.plans[key] = plan
            self.plans.move_to_end(key)
        elif resident is None and not (
            est_nbytes is not None and est_nbytes > self.max_bytes
        ):
            self.plans[key] = plan

    def populated(self, plan) -> None:
        if plan.key in self.plans:
            self.plans.move_to_end(plan.key)
        elif plan.ready and plan.nbytes() <= self.max_bytes:
            self.plans[plan.key] = plan
        self.evict()

    def adopt(self, plan) -> None:
        existing = self.plans.get(plan.key)
        if existing is None or not existing.ready:
            self.plans[plan.key] = plan
            self.plans.move_to_end(plan.key)
            self.evict()


class PlanCacheMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.cache = PlanCache(max_bytes=BUDGET)
        self.ref = ReferenceLRU(BUDGET)
        #: Plans handed out by misses and not populated yet.
        self.pending = []

    @rule(
        tag=st.sampled_from(TAGS),
        mode=st.sampled_from(MODES),
        est_nbytes=st.sampled_from([None, 100, BUDGET + 1]),
    )
    def lookup(self, tag, mode, est_nbytes):
        a = _operand()
        key = plan_key(a, a, tag)
        resident = self.cache._plans.get(key)
        plan, hit = self.cache.get_or_create(
            a, a, mode=mode, est_nbytes=est_nbytes, tag=tag
        )
        assert hit == (
            resident is not None
            and resident.ready
            and not (mode == "full" and resident.mode != "full")
        )
        self.ref.lookup(key, mode, est_nbytes, plan, hit)
        if not hit:
            self.pending.append(plan)

    @precondition(lambda self: self.pending)
    @rule(data=st.data())
    def populate(self, data):
        plan = self.pending.pop(
            data.draw(st.integers(0, len(self.pending) - 1))
        )
        if not plan.ready:  # else a concurrent miss populated it first
            _fill(plan, _template_for(plan.key))
        self.cache.note_populated(plan)
        self.ref.populated(plan)

    @rule(tag=st.sampled_from(TAGS))
    def adopt(self, tag):
        a = _operand()
        key = plan_key(a, a, tag)
        plan = _fill(CachedPlan(key=key), _template_for(key))
        self.cache.adopt(plan)
        self.ref.adopt(plan)

    @rule()
    def clear(self):
        self.cache.clear()
        self.ref.plans.clear()

    @invariant()
    def running_total_is_the_sum(self):
        cache = self.cache
        assert cache._bytes == sum(p.nbytes() for p in cache._plans.values())
        assert cache.bytes_cached == cache.stats().bytes_cached == cache._bytes
        assert set(cache._sizes) == set(cache._plans)

    @invariant()
    def matches_the_reference_lru(self):
        assert list(self.cache._plans) == list(self.ref.plans)
        assert all(
            self.cache._plans[k] is p for k, p in self.ref.plans.items()
        )
        assert self.cache.evictions == self.ref.evictions
        assert self.cache._bytes == self.ref.bytes()
        assert len(self.cache) == len(self.ref.plans)


PlanCacheMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestPlanCacheMachine = PlanCacheMachine.TestCase


def _count_calls(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(self, *args, **kwargs):
        calls.append(name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _cache_holding(entries: int, max_bytes: int) -> PlanCache:
    a, template = _operand(), _templates()[0]
    cache = PlanCache(max_bytes=max_bytes)
    for i in range(entries):
        cache.adopt(_fill(CachedPlan(key=plan_key(a, a, f"e{i}")), template))
    assert len(cache) == entries
    return cache


def _nbytes_calls_per_request(monkeypatch, entries: int, max_bytes: int):
    """``nbytes()`` calls of one cold miss + population (which evicts when
    the budget is full) and of one hit, on a cache of ``entries`` plans."""
    cache = _cache_holding(entries, max_bytes)
    a, template = _operand(), _templates()[0]
    calls = _count_calls(monkeypatch, CachedPlan, "nbytes")
    plan, hit = cache.get_or_create(a, a, tag="new")
    assert not hit
    cache.note_populated(_fill(plan, template))
    cold = len(calls)
    calls.clear()
    _, hit = cache.get_or_create(a, a, tag="new")
    assert hit
    monkeypatch.undo()
    return cold, len(calls), cache.evictions


def test_nbytes_calls_per_request_do_not_grow_with_entries(monkeypatch):
    size = _templates()[0].nbytes()
    roomy = {
        n: _nbytes_calls_per_request(monkeypatch, n, 1 << 30) for n in (8, 512)
    }
    assert roomy[8] == roomy[512] == (1, 0, 0)
    # A full cache evicts one plan per insert; eviction is O(1) too.
    full = {
        n: _nbytes_calls_per_request(monkeypatch, n, n * size) for n in (8, 512)
    }
    assert full[8] == full[512] == (1, 0, 1)


def test_service_multiply_takes_no_stats_snapshot(monkeypatch):
    calls = _count_calls(monkeypatch, PlanCache, "stats")
    svc = SpGEMMService()
    a = gen.rmat(5, 4, seed=1)
    cold, hot = svc.multiply(a, a), svc.multiply(a, a)
    assert cold.decisions["plan_cache"] == "miss"
    assert hot.decisions["plan_cache"] == "hit"
    assert calls == []
    gauges = svc.metrics.snapshot()["gauges"]
    assert gauges["service.cache_bytes"]["value"] == svc.plans.bytes_cached > 0
    assert gauges["service.cache_entries"]["value"] == len(svc.plans) == 1
    # The lazy snapshot still reports the same figures.
    assert svc.snapshot()["plan_cache"]["bytes_cached"] == svc.plans.bytes_cached
    assert len(calls) == 1


def test_stats_sorts_per_key_hits_on_snapshot():
    a = _operand()
    cache = _cache_holding(0, 1 << 30)
    for tag, hits in (("cold", 1), ("hot", 3), ("warm", 2)):
        cache.adopt(_fill(CachedPlan(key=plan_key(a, a, tag)), _templates()[0]))
        for _ in range(hits):
            assert cache.get_or_create(a, a, tag=tag)[1]
    ranked = [ks.rsplit("|", 1)[1] for ks in cache.stats().per_key_hits]
    assert ranked == ["hot", "warm", "cold"]
