"""Tests for repro.cluster: ring, routing, replication, failover, bench.

Workloads here are deliberately tiny (hundreds of virtual requests) —
the heavy scaling run lives in ``benchmarks/test_cluster_scaling.py``.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.cluster import (
    AutoscalePolicy,
    Autoscaler,
    ClusterRouter,
    ClusterSpec,
    HashRing,
    PlanIndex,
    RoutingPolicy,
    build_fleet,
    plan_transfer_s,
    run_cluster_bench,
    stable_hash,
)
from repro.cluster import autoscaler as autoscaler_module
from repro.core.params import DEFAULT_PARAMS
from repro.faults import parse_fault_spec
from repro.gpu.presets import PRESETS
from repro.serve.plan_cache import PlanCache
from repro.serve.workload import WorkloadSpec, serve_corpus


@pytest.fixture(scope="module")
def corpus():
    return serve_corpus()


def small_spec(**kw):
    base = dict(rate=3000.0, duration_s=0.1, timeout_s=0.1, seed=0)
    base.update(kw)
    return WorkloadSpec(**base)


# ---------------------------------------------------------------------------
# Hash ring
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_stable_hash_is_stable(self):
        # Pinned value: must never change across processes or versions
        # (routing and the fault PRNG both depend on it).
        assert stable_hash("speck") == stable_hash("speck")
        assert stable_hash("a") != stable_hash("b")

    def test_route_uses_only_members(self):
        ring = HashRing(["n1", "n2", "n3"])
        owners = {ring.route(f"key-{i}") for i in range(200)}
        assert owners <= {"n1", "n2", "n3"}
        assert len(owners) == 3  # 200 keys spread over every member

    def test_duplicate_member_rejected(self):
        ring = HashRing(["n1"])
        with pytest.raises(ValueError):
            ring.add("n1")

    def test_remove_unknown_member_rejected(self):
        with pytest.raises(KeyError):
            HashRing(["n1"]).remove("n2")

    def test_preference_lists_distinct_members(self):
        ring = HashRing([f"m{i}" for i in range(5)])
        pref = ring.preference("some-key", 3)
        assert len(pref) == len(set(pref)) == 3

    @settings(max_examples=25, deadline=None)
    @given(
        n_members=st.integers(min_value=2, max_value=8),
        victim=st.integers(min_value=0, max_value=7),
        key_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_leave_moves_only_the_victims_keys(
        self, n_members, victim, key_seed
    ):
        members = [f"m{i}" for i in range(n_members)]
        ring = HashRing(members)
        keys = [f"k{key_seed}-{i}" for i in range(120)]
        before = {k: ring.route(k) for k in keys}
        gone = members[victim % n_members]
        ring.remove(gone)
        for k in keys:
            if before[k] != gone:
                assert ring.route(k) == before[k]
            else:
                assert ring.route(k) != gone

    @settings(max_examples=25, deadline=None)
    @given(
        n_members=st.integers(min_value=1, max_value=8),
        key_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_join_moves_keys_only_to_the_newcomer(self, n_members, key_seed):
        members = [f"m{i}" for i in range(n_members)]
        ring = HashRing(members)
        keys = [f"k{key_seed}-{i}" for i in range(120)]
        before = {k: ring.route(k) for k in keys}
        ring.add("newcomer")
        for k in keys:
            after = ring.route(k)
            assert after == before[k] or after == "newcomer"


# ---------------------------------------------------------------------------
# Plan cache: peek / adopt / counters
# ---------------------------------------------------------------------------
class TestPlanCacheClusterApi:
    def _warm_cache(self, corpus):
        from repro.serve.service import SpGEMMService

        svc = SpGEMMService(PRESETS["titan-v"], DEFAULT_PARAMS)
        a, b = corpus[0].matrices()
        svc.multiply(a, b)
        svc.multiply(a, b)
        return svc, (a.fingerprint(), b.fingerprint())

    def test_peek_returns_ready_plan_without_stats(self, corpus):
        svc, key = self._warm_cache(corpus)
        before = svc.plans.stats()
        plan = svc.plans.peek(key)
        assert plan is not None and plan.ready
        after = svc.plans.stats()
        assert (after.hits, after.misses) == (before.hits, before.misses)

    def test_peek_unknown_key_is_none(self, corpus):
        svc, _ = self._warm_cache(corpus)
        assert svc.plans.peek(("nope", "nope")) is None

    def test_adopt_inserts_and_counts(self, corpus):
        svc, key = self._warm_cache(corpus)
        plan = svc.plans.peek(key)
        other = PlanCache(max_bytes=1 << 30)
        adopted = other.adopt(plan)
        assert adopted is plan or adopted.ready
        stats = other.stats()
        assert stats.inserts == 1
        assert stats.entries == 1
        assert other.peek(key) is not None

    def test_adopt_rejects_unready_plan(self):
        from repro.serve.plan_cache import CachedPlan

        cache = PlanCache(max_bytes=1 << 20)
        with pytest.raises(ValueError):
            cache.adopt(CachedPlan(key=("x", "y")))

    def test_insert_and_per_key_hit_counters(self, corpus):
        svc, key = self._warm_cache(corpus)
        stats = svc.plans.stats()
        assert stats.inserts == 1
        assert stats.hits == 1
        ks = "|".join(key)
        assert stats.per_key_hits.get(ks) == 1

    def test_service_snapshot_surfaces_new_counters(self, corpus):
        svc, _ = self._warm_cache(corpus)
        snap = svc.snapshot()
        assert snap["plan_cache"]["inserts"] == 1
        assert isinstance(snap["plan_cache"]["per_key_hits"], dict)
        assert sum(snap["plan_cache"]["per_key_hits"].values()) == 1


# ---------------------------------------------------------------------------
# Plan index / replication
# ---------------------------------------------------------------------------
class TestPlanIndex:
    def _two_nodes(self, devices=("titan-v", "titan-v")):
        spec = ClusterSpec(n_nodes=2, devices=devices)
        return build_fleet(spec)

    def _warm(self, node, corpus):
        a, b = corpus[0].matrices()
        node.service.multiply(a, b)
        return (a.fingerprint(), b.fingerprint()), (a, b)

    def test_fetch_adopts_replica_and_charges_transfer(self, corpus):
        nodes = self._two_nodes()
        n0, n1 = nodes["node-0"], nodes["node-1"]
        key, _ = self._warm(n0, corpus)
        index = PlanIndex()
        index.note(key, "node-0")
        plan, transfer_s = index.fetch(key, n1, nodes)
        assert plan is not None and plan.ready
        assert transfer_s > 0
        assert transfer_s == pytest.approx(plan_transfer_s(plan.nbytes()))
        assert n1.service.plans.peek(key) is not None
        assert index.fetches == 1
        assert sorted(index.holders(key)) == ["node-0", "node-1"]

    def test_replica_has_independent_hit_counter(self, corpus):
        nodes = self._two_nodes()
        n0, n1 = nodes["node-0"], nodes["node-1"]
        key, (a, b) = self._warm(n0, corpus)
        n0.service.multiply(a, b)  # bump the original's hit counter
        index = PlanIndex()
        index.note(key, "node-0")
        plan, _ = index.fetch(key, n1, nodes)
        assert plan.hits == 0
        assert n0.service.plans.peek(key).hits >= 1

    def test_no_cross_device_adoption(self, corpus):
        nodes = self._two_nodes(devices=("titan-v", "p100"))
        n0, n1 = nodes["node-0"], nodes["node-1"]
        key, _ = self._warm(n0, corpus)
        index = PlanIndex()
        index.note(key, "node-0")
        plan, transfer_s = index.fetch(key, n1, nodes)
        assert plan is None and transfer_s == 0.0
        assert index.misses == 1
        assert n1.service.plans.peek(key) is None

    def test_dead_holder_is_skipped(self, corpus):
        nodes = self._two_nodes()
        n0, n1 = nodes["node-0"], nodes["node-1"]
        key, _ = self._warm(n0, corpus)
        index = PlanIndex()
        index.note(key, "node-0")
        n0.state = "down"
        plan, _ = index.fetch(key, n1, nodes)
        assert plan is None

    def test_fetch_from_an_evicted_sole_holder_forgets_the_key(self, corpus):
        nodes = self._two_nodes()
        n0, n1 = nodes["node-0"], nodes["node-1"]
        key, _ = self._warm(n0, corpus)
        index = PlanIndex()
        index.note(key, "node-0")
        n0.service.plans.clear()
        assert index.fetch(key, n1, nodes) == (None, 0.0)
        assert index.holders(key) == []
        assert index.snapshot()["plans_indexed"] == 0

    def test_fetch_applies_the_mode_rule_only_when_given(self, corpus):
        nodes = self._two_nodes()
        n0, n1 = nodes["node-0"], nodes["node-1"]
        a, b = corpus[0].matrices()
        depth = n0.admission.policy.max_queue_depth
        minimal = n0.admission.brownout_mode(queue_depth=depth, committed_bytes=0)
        n0.service.multiply(a, b, brownout=minimal)
        key = (a.fingerprint(), b.fingerprint())
        index = PlanIndex()
        index.note(key, "node-0")
        assert index.fetch(key, n1, nodes, "full") == (None, 0.0)
        assert n1.service.plans.peek(key) is None
        plan, _ = index.fetch(key, n1, nodes, "minimal")
        assert plan is not None and plan.mode == "minimal"
        n1.service.plans.clear()
        plan, _ = index.fetch(key, n1, nodes)  # hydration takes any plan
        assert plan is not None and plan.mode == "minimal"

    def test_roll_up_keeps_a_masked_key_whole(self, corpus):
        nodes = self._two_nodes()
        a, b = corpus[0].matrices()
        for _ in range(3):
            nodes["node-0"].service.multiply(a, b, plan_tag="masked:m")
        for _ in range(2):
            nodes["node-1"].service.multiply(a, b)
        fp_a, fp_b = a.fingerprint(), b.fingerprint()
        assert PlanIndex().roll_up_hits(nodes) == {
            (fp_a, fp_b, "masked:m"): 2,
            (fp_a, fp_b): 1,
        }

    def test_drop_node_forgets_locations(self):
        index = PlanIndex()
        index.note(("f1", "f2"), "node-0")
        index.note(("f1", "f2"), "node-1")
        index.drop_node("node-0")
        assert index.holders(("f1", "f2")) == ["node-1"]
        index.drop_node("node-1")
        assert index.holders(("f1", "f2")) == []


class TestPlanSourceLadder:
    """A fleet node walks one ladder: cache, its own store, a peer, cold."""

    def _run(self, tmp_path=None):
        from repro.cluster.bench import _FleetRun

        store_dir = None if tmp_path is None else str(tmp_path)
        spec = ClusterSpec(n_nodes=2, plan_store_dir=store_dir)
        return _FleetRun(build_fleet(spec), spec, DEFAULT_PARAMS, None)

    def _dispatch(self, run, node, a, b):
        from repro.serve.scheduler import Request

        brownout = node.admission.brownout_mode(queue_depth=0, committed_bytes=0)
        return run.execute(node, Request(0, a, b, 0.0), brownout, 0.0)

    def test_local_store_is_tried_before_a_peer(self, corpus, tmp_path):
        run = self._run(tmp_path)
        n0, n1 = run.nodes["node-0"], run.nodes["node-1"]
        a, b = corpus[0].matrices()
        key = (a.fingerprint(), b.fingerprint())
        for node in (n0, n1):
            node.service.multiply(a, b)
            run.router.plan_index.note(key, node.name)
        n1.service.plans.clear()  # node-1 still has the plan on disk

        res, service_s = self._dispatch(run, n1, a, b)
        assert res.decisions["plan_source"] == "store"
        assert run.router.plan_index.fetches == 0
        nbytes = n1.service.plans.peek(key).nbytes()
        assert service_s == pytest.approx(res.time_s + plan_transfer_s(nbytes))

    def test_peer_serves_what_the_store_lacks(self, corpus, tmp_path):
        run = self._run(tmp_path)
        n0, n1 = run.nodes["node-0"], run.nodes["node-1"]
        a, b = corpus[0].matrices()
        key = (a.fingerprint(), b.fingerprint())
        n0.service.multiply(a, b)
        run.router.plan_index.note(key, "node-0")

        res, service_s = self._dispatch(run, n1, a, b)
        assert res.decisions["plan_source"] == "peer"
        assert run.router.plan_index.fetches == 1
        assert n1.service.plan_store.reads == 0  # nothing stored to read
        nbytes = n1.service.plans.peek(key).nbytes()
        assert service_s == pytest.approx(res.time_s + plan_transfer_s(nbytes))
        assert n1.first_100_local_hits == 0  # a fetched plan is not local

        # Neither rung has a plan for a fresh structure: it plans cold.
        c, d = corpus[1].matrices()
        res, service_s = self._dispatch(run, n1, c, d)
        assert res.decisions["plan_source"] == "cold"
        assert service_s == res.time_s
        assert run.router.plan_index.misses == 1

    def test_peer_skips_a_plan_that_cannot_serve_the_mode(self, corpus):
        run = self._run()
        n0, n1 = run.nodes["node-0"], run.nodes["node-1"]
        a, b = corpus[0].matrices()
        key = (a.fingerprint(), b.fingerprint())
        depth = n0.admission.policy.max_queue_depth
        minimal = n0.admission.brownout_mode(queue_depth=depth, committed_bytes=0)
        n0.service.multiply(a, b, brownout=minimal)
        run.router.plan_index.note(key, "node-0")
        assert n0.service.plans.peek(key).mode == "minimal"

        # A full-mode request on node-1: the only holder's plan would be
        # refined cold anyway, so nothing is copied or charged.
        res, service_s = self._dispatch(run, n1, a, b)
        assert res.decisions["plan_source"] == "cold"
        assert "plan_fetch_s" not in res.decisions and service_s == res.time_s
        assert run.router.plan_index.fetches == 0
        assert run.router.plan_index.misses == 1
        assert n1.service.plans.stats().refines == 0
        assert n1.service.plans.peek(key).mode == "full"


# ---------------------------------------------------------------------------
# The fleet bench: determinism, failover, conservation
# ---------------------------------------------------------------------------
class TestClusterBench:
    def test_fleet_node_is_an_unbatched_arrival_order_scheduler(self):
        from repro.cluster import ClusterNode
        from repro.serve import ServeScheduler

        node = ClusterNode("node-0", PRESETS["titan-v"], speculative=True)
        # The estimator still bounds admission footprints; fleet nodes
        # just neither batch same-A requests nor order by estimated cost.
        assert isinstance(node, ServeScheduler) and node.estimator is not None
        assert node.max_batch == 1 and not node.order_by_cost

    def test_report_is_byte_deterministic(self, corpus):
        def go():
            return run_cluster_bench(
                cases=corpus,
                spec=small_spec(),
                cluster=ClusterSpec(n_nodes=2),
                compare_single=False,
            ).to_json()

        assert go() == go()

    def test_report_with_faults_is_byte_deterministic(self, corpus):
        def go():
            return run_cluster_bench(
                cases=corpus,
                spec=small_spec(),
                cluster=ClusterSpec(n_nodes=3),
                faults=parse_fault_spec(
                    "node_crash@node-1:n=10;node_degrade@node-2:n=5"
                ),
                compare_single=False,
            ).to_json()

        assert go() == go()

    def test_completions_bit_identical_and_conserved(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(),
            cluster=ClusterSpec(n_nodes=2),
            compare_single=False,
        )
        assert rep.wrong_results == 0
        assert rep.bit_identical
        assert rep.conservation_ok
        assert rep.completed > 0
        assert (
            rep.completed + rep.shed + rep.timed_out + rep.failed
            == rep.offered
        )

    def test_node_crash_fails_over_without_wrong_results(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(),
            cluster=ClusterSpec(n_nodes=3),
            faults=parse_fault_spec("node_crash@node-1:n=5"),
            compare_single=False,
        )
        assert rep.crashes == 1
        # The crash strands at least the queued request that triggered
        # the dispatch; stranded work is retried, never dropped.
        assert rep.retried > 0
        assert rep.wrong_results == 0
        assert rep.conservation_ok
        fleet = rep.metrics["fleet"]
        assert fleet["alive"] == 2
        retries = rep.metrics["cluster"]["counters"]["cluster.retries_crash"]
        assert retries == rep.retried

    def test_whole_fleet_down_fails_structured(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(rate=1000.0, duration_s=0.05),
            cluster=ClusterSpec(n_nodes=1),
            faults=parse_fault_spec("node_crash@node-0:n=1"),
            compare_single=False,
        )
        assert rep.crashes == 1
        assert rep.completed == 0
        assert rep.failed > 0
        assert rep.conservation_ok  # no silent drops even with no fleet

    def test_node_degrade_slows_but_stays_correct(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(),
            cluster=ClusterSpec(n_nodes=2),
            faults=parse_fault_spec("node_degrade@node-0:n=1"),
            compare_single=False,
        )
        assert rep.degrades >= 1
        assert rep.wrong_results == 0
        assert rep.conservation_ok

    def test_overload_spills_and_replicates(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(rate=30_000.0, duration_s=0.05, timeout_s=0.05),
            cluster=ClusterSpec(n_nodes=2, spill_queue_depth=2),
            compare_single=False,
        )
        assert rep.spilled > 0
        assert rep.plan_fetches > 0
        assert rep.metrics["plan_index"]["fetched_bytes"] > 0
        assert rep.wrong_results == 0
        assert rep.conservation_ok

    def test_replication_can_be_disabled(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(rate=30_000.0, duration_s=0.05, timeout_s=0.05),
            cluster=ClusterSpec(
                n_nodes=2, spill_queue_depth=2, replicate_plans=False
            ),
            compare_single=False,
        )
        assert rep.plan_fetches == 0
        assert rep.wrong_results == 0

    def test_heterogeneous_fleet_never_transfers_plans(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(rate=30_000.0, duration_s=0.05, timeout_s=0.05),
            cluster=ClusterSpec(
                n_nodes=2, devices=("titan-v", "p100"), spill_queue_depth=2
            ),
            compare_single=False,
        )
        assert rep.spilled > 0
        assert rep.plan_fetches == 0  # incompatible peers recompute
        assert rep.wrong_results == 0
        assert rep.conservation_ok

    def test_single_reference_reports_scaling(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(),
            cluster=ClusterSpec(n_nodes=2),
        )
        assert rep.single_node["completed"] > 0
        assert rep.scaling_vs_single > 0

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=0)
        with pytest.raises(ValueError):
            ClusterSpec(devices=("not-a-device",))
        with pytest.raises(ValueError):
            RoutingPolicy(spill_queue_depth=0)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=2, autoscale=True, min_nodes=3, max_nodes=4)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=4, autoscale=True, max_nodes=2)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=2, autoscale=True, scale_interval_s=0.0)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=2, autoscale=True, target_p99_s=-1.0)
        with pytest.raises(ValueError):
            ClusterSpec(n_nodes=2, autoscale=True, replicate_top_k=-1)
        with pytest.raises(ValueError):
            AutoscalePolicy(min_nodes=3, max_nodes=2)
        with pytest.raises(ValueError):
            AutoscalePolicy(interval_s=0.0)


# ---------------------------------------------------------------------------
# Autoscaler unit behaviour: warm join, hot-key push, controlled drain
# ---------------------------------------------------------------------------
def _router_and_factory(n_nodes=4, **spec_kw):
    spec = ClusterSpec(n_nodes=n_nodes, **spec_kw)
    router = ClusterRouter(build_fleet(spec))

    def factory(name, index):
        from repro.cluster.bench import _make_node

        return _make_node(spec, DEFAULT_PARAMS, index, name=name)

    return router, factory


def _warm_node(node, case, times=1):
    a, b = case.matrices()
    for _ in range(times):
        node.service.multiply(a, b)
    return (a.fingerprint(), b.fingerprint())


class TestAutoscaler:
    def test_replicate_hot_pushes_to_spill_targets(self, corpus, monkeypatch):
        monkeypatch.setattr(autoscaler_module, "REPLICATE_MIN_HITS", 1)
        router, factory = _router_and_factory()
        key = _warm_node(router.nodes["node-0"], corpus[0], times=3)
        router.plan_index.note(key, "node-0")
        scaler = Autoscaler(router, AutoscalePolicy(), factory)
        pushed = scaler.replicate_hot(0.0)
        assert pushed >= 1
        holders = router.plan_index.holders(key)
        assert len(holders) >= 2
        for name in holders:
            assert router.nodes[name].service.plans.peek(key) is not None
        assert router.plan_index.proactive == pushed

    def test_warm_join_hydrates_before_taking_traffic(self, corpus):
        router, factory = _router_and_factory(n_nodes=2)
        key = _warm_node(router.nodes["node-0"], corpus[0], times=2)
        router.plan_index.note(key, "node-0")
        scaler = Autoscaler(router, AutoscalePolicy(), factory)
        now = 0.5
        node = scaler.scale_up(now, "test")
        assert node.name == "node-2"
        assert node.name in router.nodes and node.name in router.ring
        assert node.joined_at_s == now
        # Hydrated the hot plan through the verified fetch path...
        assert node.service.plans.peek(key) is not None
        event = scaler.events[-1]
        assert event.action == "scale_up" and event.warm_plans == 1
        # ...and holds its streams until the modelled transfer is done.
        assert all(busy == now + event.transfer_s for busy in node.workers)
        assert event.transfer_s > 0

    def test_cold_join_skips_hydration(self, corpus):
        router, factory = _router_and_factory(n_nodes=2)
        key = _warm_node(router.nodes["node-0"], corpus[0], times=2)
        router.plan_index.note(key, "node-0")
        scaler = Autoscaler(router, AutoscalePolicy(warm_join=False), factory)
        node = scaler.scale_up(0.5, "test")
        assert node.service.plans.peek(key) is None
        assert all(busy == 0.5 for busy in node.workers)

    def test_scale_down_drains_only_inflight_free_nodes(self, corpus):
        from repro.cluster.node import InFlight
        from repro.serve.scheduler import Request

        router, factory = _router_and_factory(n_nodes=3)
        scaler = Autoscaler(router, AutoscalePolicy(), factory)
        a, b = corpus[0].matrices()
        busy = router.nodes["node-2"]
        req = Request(id=1, case_name="c", a=a, b=b, arrival_s=0.0)
        busy.inflight.append(
            InFlight(
                request=req,
                worker=0,
                start_s=0.0,
                finish_s=1.0,
                result=None,
                cache_hit=False,
            )
        )
        stranded = scaler.scale_down(1.0, "test")
        assert stranded == []
        victim = scaler.drained[0]
        assert victim != "node-2"  # in-flight work is never drained
        node = router.nodes[victim]
        assert node.state == "drained" and not node.alive
        assert victim not in router.ring
        # Drained, not deleted: the rollup keeps its counters.
        assert victim in router.nodes

    def test_scale_down_returns_queued_work_for_replacement(self, corpus):
        from repro.serve.scheduler import Request

        router, factory = _router_and_factory(n_nodes=2)
        scaler = Autoscaler(router, AutoscalePolicy(), factory)
        a, b = corpus[0].matrices()
        req = Request(id=7, case_name="c", a=a, b=b, arrival_s=0.0)
        target = scaler.router.nodes["node-1"]
        target.enqueue(req, 1024)
        # Force node-1 to be the victim: node-0 keeps a deeper queue.
        other = Request(id=8, case_name="c", a=a, b=b, arrival_s=0.0)
        other2 = Request(id=9, case_name="c", a=a, b=b, arrival_s=0.0)
        router.nodes["node-0"].enqueue(other, 1024)
        router.nodes["node-0"].enqueue(other2, 1024)
        stranded = scaler.scale_down(1.0, "test")
        assert [r.id for r in stranded] == [7]
        assert req.attempts == 0  # a drain re-places, it does not retry

    def test_evaluate_respects_bounds_and_cooldown(self, corpus):
        router, factory = _router_and_factory(n_nodes=2)
        scaler = Autoscaler(
            router,
            AutoscalePolicy(min_nodes=2, max_nodes=2),
            factory,
        )
        # Empty queues would request a scale-down; bounds forbid it.
        assert scaler.evaluate(0.1) == []
        assert scaler.events == []
        assert scaler.next_eval_s > 0.1  # the tick clock advanced anyway
        # Bounds that allow the scale-down: only the cool-down holds it.
        scaler = Autoscaler(
            router, AutoscalePolicy(min_nodes=1, max_nodes=2), factory
        )
        scaler.last_scale_s = 0.1
        assert scaler.evaluate(0.1 + autoscaler_module.COOLDOWN_S / 2) == []
        assert scaler.events == []
        scaler.evaluate(0.1 + autoscaler_module.COOLDOWN_S)
        assert [e.action for e in scaler.events] == ["scale_down"]


# ---------------------------------------------------------------------------
# Property tests: membership churn
# ---------------------------------------------------------------------------
class TestChurnProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        ops=st.lists(
            st.tuples(
                st.sampled_from(["join", "leave", "crash"]),
                st.integers(min_value=0, max_value=10**6),
            ),
            min_size=1,
            max_size=12,
        ),
        key_seed=st.integers(min_value=0, max_value=1000),
    )
    def test_churn_moves_only_ring_arc_keys(self, ops, key_seed):
        """Under any join/leave/crash sequence, a key changes owner only
        when its ring arc moved: to the newcomer on a join, off the
        departed member on a leave/crash — never between bystanders."""
        ring = HashRing(["m0", "m1", "m2"])
        members = {"m0", "m1", "m2"}
        next_id = 3
        keys = [f"k{key_seed}-{i}" for i in range(100)]
        for action, salt in ops:
            before = {k: ring.route(k) for k in keys}
            if action == "join":
                name = f"m{next_id}"
                next_id += 1
                ring.add(name)
                members.add(name)
                for k in keys:
                    after = ring.route(k)
                    assert after == before[k] or after == name
            else:  # leave and crash are the same ring operation
                if len(members) == 1:
                    continue
                victim = sorted(members)[salt % len(members)]
                ring.remove(victim)
                members.discard(victim)
                for k in keys:
                    if before[k] != victim:
                        assert ring.route(k) == before[k]
                    else:
                        assert ring.route(k) != victim

    @settings(max_examples=10, deadline=None)
    @given(crashes=st.sets(st.integers(min_value=0, max_value=3), max_size=3))
    def test_replicated_hot_plan_stays_reachable(self, corpus, crashes):
        """As long as one replica holder survives the churn, the plan is
        still reachable through the index for any alive requester."""
        holders = {0, 1, 2}
        assume(holders - crashes)  # at least one holder survives
        assume(3 not in crashes)  # the requester itself stays up
        router, factory = _router_and_factory()
        key = _warm_node(router.nodes["node-0"], corpus[0], times=2)
        index = router.plan_index
        index.note(key, "node-0")
        for i in (1, 2):
            ok, _ = index.replicate(
                key, router.nodes["node-0"], router.nodes[f"node-{i}"]
            )
            assert ok
        for i in sorted(crashes):
            router.mark_down(router.nodes[f"node-{i}"])
        plan, transfer_s = index.fetch(
            key, router.nodes["node-3"], router.nodes
        )
        assert plan is not None and plan.ready
        assert transfer_s > 0

    @settings(max_examples=5, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=50),
        crash_n=st.integers(min_value=1, max_value=40),
    )
    def test_conservation_under_autoscale_churn(self, corpus, seed, crash_n):
        """Autoscaling plus a crash mid-run: every offered request still
        reaches exactly one terminal state, no id dropped or duplicated,
        and every completion matches the single-node reference."""
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(seed=seed),
            cluster=ClusterSpec(
                n_nodes=2,
                autoscale=True,
                min_nodes=1,
                max_nodes=4,
                seed=seed,
            ),
            faults=parse_fault_spec(f"node_crash@node-1:n={crash_n}"),
            compare_single=False,
        )
        assert rep.conservation_ok
        assert rep.wrong_results == 0
        outcomes = rep.completed + rep.shed + rep.timed_out + rep.failed
        assert outcomes == rep.offered


# ---------------------------------------------------------------------------
# Planted bugs: each hardening check must catch its mutation
# ---------------------------------------------------------------------------
class TestPlantedBugs:
    def _autoscale_report(self, corpus, seed=11):
        return run_cluster_bench(
            cases=corpus,
            spec=small_spec(
                rate=40_000.0, duration_s=0.15, zipf_alpha=1.1, seed=seed
            ),
            cluster=ClusterSpec(
                n_nodes=2, autoscale=True, min_nodes=2, max_nodes=4, seed=seed
            ),
            compare_single=False,
        )

    def test_first_100_check_catches_skipped_hydration(
        self, corpus, monkeypatch
    ):
        """Mutation: warm join that silently skips hydration.  The
        joiner first-100 *local* hit-rate signal must expose it — a
        hydrated joiner serves its early requests from its own cache, a
        cold one pays a just-in-time fetch (or a cold plan) each time."""
        warm = self._autoscale_report(corpus)
        assert warm.autoscale["scale_ups"] >= 1
        warm_rates = warm.autoscale["join_first_100"]
        assert warm_rates

        monkeypatch.setattr(
            Autoscaler, "hydrate", lambda self, node: (0, 0.0)
        )
        mutated = self._autoscale_report(corpus)
        mutated_rates = mutated.autoscale["join_first_100"]
        assert mutated_rates
        assert mutated.autoscale["warm_join_plans"] == 0
        assert min(warm_rates.values()) > max(mutated_rates.values())

    def test_adopt_refuses_stale_replica_frame(self, corpus):
        """Mutation: hot-key replication ships a stale Plan-IR frame
        (content drifted after the checksum was stamped).  The
        checksum verification in ``PlanCache.adopt`` must refuse it."""
        from dataclasses import replace as dc_replace

        from repro.serve.plan_cache import PlanIntegrityError

        router, _ = _router_and_factory(n_nodes=2)
        source, target = router.nodes["node-0"], router.nodes["node-1"]
        key = _warm_node(source, corpus[0], times=2)
        index = router.plan_index
        index.note(key, "node-0")

        def stale_frame(replica):
            rows = replica.c_row_nnz.copy()
            rows[0] += 1  # the frame no longer matches its checksum
            return dc_replace(replica, c_row_nnz=rows)

        # The raw adopt path names the reason...
        with pytest.raises(PlanIntegrityError) as exc:
            target.service.plans.adopt(
                stale_frame(source.service.plans.peek(key)),
                expected_compat=target.plan_compat,
            )
        assert exc.value.reason == "checksum"

        # ...and the proactive push path converts it into a refusal.
        index._replica_hook = stale_frame
        ok, transfer_s = index.replicate(key, source, target)
        assert not ok and transfer_s == 0.0
        assert index.integrity_rejects == 1
        assert target.service.plans.peek(key) is None

    def test_adopt_refuses_wrong_compat_replica(self, corpus):
        """Mutation: a replica stamped for a different device/params
        pair.  The compat verification must refuse it on both the pull
        (fetch) and push (replicate) paths."""
        from dataclasses import replace as dc_replace

        router, _ = _router_and_factory(n_nodes=2)
        source, target = router.nodes["node-0"], router.nodes["node-1"]
        key = _warm_node(source, corpus[0], times=2)
        index = router.plan_index
        index.note(key, "node-0")
        index._replica_hook = lambda replica: dc_replace(
            replica, compat="p100|other-params"
        )

        ok, _ = index.replicate(key, source, target)
        assert not ok
        plan, _ = index.fetch(key, target, router.nodes)
        assert plan is None
        assert index.integrity_rejects == 2
        assert target.service.plans.peek(key) is None


# ---------------------------------------------------------------------------
# Autoscaled bench: determinism, dynamic-membership rollup
# ---------------------------------------------------------------------------
class TestAutoscaledBench:
    def _go(self, corpus, store=None, fault_spec=None, seed=11):
        return run_cluster_bench(
            cases=corpus,
            spec=small_spec(
                rate=40_000.0, duration_s=0.15, zipf_alpha=1.1, seed=seed
            ),
            cluster=ClusterSpec(
                n_nodes=2,
                autoscale=True,
                min_nodes=2,
                max_nodes=4,
                seed=seed,
                plan_store_dir=str(store) if store is not None else None,
            ),
            faults=(
                parse_fault_spec(fault_spec) if fault_spec else None
            ),
            compare_single=False,
        )

    def test_autoscale_report_byte_deterministic(self, corpus, tmp_path):
        """Same seed → byte-identical report, with and without a fault
        plan firing during the scale events (distinct store dirs prove
        the report carries no paths)."""
        fault_spec = "node_crash@node-1:n=40;disk_corrupt@node-0:n=2"
        for fs in (None, fault_spec):
            tag = "faulted" if fs else "clean"
            a = self._go(corpus, store=tmp_path / f"{tag}-a", fault_spec=fs)
            b = self._go(corpus, store=tmp_path / f"{tag}-b", fault_spec=fs)
            assert a.to_json() == b.to_json(), tag
            assert a.conservation_ok and a.wrong_results == 0

    def test_scale_up_under_overload(self, corpus):
        rep = self._go(corpus)
        assert rep.autoscale["scale_ups"] >= 1
        assert rep.autoscale["joined"]
        assert rep.conservation_ok and rep.wrong_results == 0

    def test_joiners_appear_in_rollup_with_counters(self, corpus):
        """Satellite fix: mid-run joiners must show up in the cluster
        snapshot with correct counters, through the same generic rollup
        as founders — no special-casing."""
        rep = self._go(corpus)
        node_names = [n["name"] for n in rep.metrics["nodes"]]
        for joiner in rep.autoscale["joined"]:
            assert joiner in node_names
        by_name = {n["name"]: n for n in rep.metrics["nodes"]}
        joiner = rep.autoscale["joined"][0]
        assert by_name[joiner]["dispatches"] > 0
        assert by_name[joiner]["joined_at_s"] > 0.0
        # Fleet totals include the joiners' dispatches.
        total = sum(n["dispatches"] for n in rep.metrics["nodes"])
        assert rep.metrics["fleet"]["dispatches"] == total
        assert rep.metrics["fleet"]["nodes"] == len(node_names)

    def test_drained_node_totals_survive_rollup(self, corpus):
        """Satellite fix: a scale-down must not silently drop the
        departed node's totals from the fleet snapshot."""
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(rate=2000.0, duration_s=0.2),
            cluster=ClusterSpec(
                n_nodes=4, autoscale=True, min_nodes=1, max_nodes=4, seed=3
            ),
            compare_single=False,
        )
        assert rep.autoscale["scale_downs"] >= 1
        by_name = {n["name"]: n for n in rep.metrics["nodes"]}
        for drained in rep.autoscale["drained"]:
            assert drained in by_name
            assert by_name[drained]["state"] == "drained"
        # Every node the run ever had is in the snapshot, and the fleet
        # dispatch total is the sum over all of them — drained included.
        assert rep.metrics["fleet"]["dispatches"] == sum(
            n["dispatches"] for n in rep.metrics["nodes"]
        )
        assert rep.conservation_ok and rep.wrong_results == 0
        counters = rep.metrics["cluster"]["counters"]
        assert counters.get("cluster.scale_downs", 0) >= 1

    def test_fixed_fleet_report_has_no_autoscale_block(self, corpus):
        rep = run_cluster_bench(
            cases=corpus,
            spec=small_spec(),
            cluster=ClusterSpec(n_nodes=2),
            compare_single=False,
        )
        assert rep.autoscale == {}
        assert rep.config["autoscale"] is False
