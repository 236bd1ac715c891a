"""Smoke gates on the CLI: ``serve-bench`` / ``cluster-bench`` reports,
the small ``bench`` sweep under injected faults, and ``repro check``
against planted engine and graph-workload bugs.

Each bench report comes from :mod:`bench_configs` through the session-wide
``bench_report`` fixture, so a configuration that is also pinned by a
golden (``tests/test_golden.py``) runs once.  Same-seed byte identity
of the pinned runs is checked by their goldens: a fresh run, with fresh
plan-store directories, must reproduce the committed bytes.
"""

from __future__ import annotations

import json
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO

import numpy as np
import pytest

from bench_configs import CONFIGS, run_config
from repro.cli import main
from repro.cluster import bench as cluster_bench
from repro.eval import small_corpus
from repro.graph import masked, triangle_count
from repro.matrices.csr import CSR

pytestmark = pytest.mark.smoke


@pytest.fixture(scope="module")
def report(bench_report):
    def get(name):
        code, text = bench_report(name)
        assert code == 0, f"{name} exited {code}"
        return json.loads(text)

    return get


def _correct(r):
    assert r["wrong_results"] == 0, r["wrong_results"]
    assert r["bit_identical"] is True


class TestServeGates:
    def test_cache_carries_the_skewed_reuse(self, report):
        r = report("serve_default")
        assert r["hit_rate"] >= 0.5, r["hit_rate"]
        assert r["bit_identical"] is True
        assert r["hit_speedup"] >= 1.2, r["hit_speedup"]

    def test_overload_sheds_without_failing(self, report):
        r = report("serve_overload")
        assert r["shed"] > 0, "overload must shed"
        assert r["failed"] == 0

    def test_faulted_workload_degrades_without_crashing(self, report):
        assert report("serve_faulted")["offered"] > 0

    def test_speculative_beats_exact_cold_latency(self, report):
        exact, spec = report("serve_default"), report("serve_speculative")
        assert spec["config"]["speculative"] is True
        _correct(spec)
        assert spec["speculative_cold"] > 0
        assert spec["fallback_rate"] <= 0.5, spec["fallback_rate"]
        # Estimates replace exact analysis + symbolic on the cold path.
        assert spec["cold_latency_mean_s"] < exact["cold_latency_mean_s"]

    def test_deflated_bounds_all_fall_back_none_wrong(self, report):
        r = report("serve_skew")
        assert r["speculative_cold"] > 0
        assert r["fallbacks"] == r["speculative_cold"]
        _correct(r)

    def test_malformed_fault_spec_names_the_rule(self):
        code, _, err = _cli(
            ["serve-bench", "--duration", "0.1", "--faults", "alloc:p=2"]
        )
        assert code == 2
        assert "alloc:p=2" in err


class TestGraphWorkloadGates:
    def test_masked_under_faults(self, report):
        r = report("serve_masked")
        assert r["config"]["workload"] == "masked"
        assert r["wrong_results"] == 0, r["wrong_results"]
        assert r["completed"] > 0
        assert 0.0 < r["workload_stats"]["mask_prune_ratio_mean"] <= 1.0

    def test_chain_reuses_plans_across_iterations(self, report):
        r = report("serve_chain")
        assert r["wrong_results"] == 0, r["wrong_results"]
        s = r["workload_stats"]
        assert s["chain_plan_hit_rate"] > 0.0, s
        assert s["chain_multiplies"] >= 2 * r["completed"], s

    def test_incremental_patches_a_strict_subset(self, report):
        r = report("serve_incremental")
        _correct(r)
        s = r["workload_stats"]
        assert 0.0 < s["incremental_recompute_ratio"] < 1.0, s
        assert s["incremental_plans_patched"] > 0, s

    def test_triangle_count_matches_dense_reference(self):
        rng = np.random.default_rng(11)
        for n, p in ((30, 0.2), (60, 0.1), (90, 0.05)):
            d = np.triu((rng.random((n, n)) < p), 1).astype(float)
            d = d + d.T
            r, c = np.nonzero(d)
            a = CSR.from_coo(r, c, d[r, c], (n, n))
            want = int(round(np.trace(d @ d @ d) / 6.0))
            assert triangle_count(a) == want, (n, p)
            assert triangle_count(a, mode="execute") == want, (n, p)

    @pytest.mark.parametrize(
        "mutation", ["mask-overprune", "chain-skip-last", "delta-narrow-blast"]
    )
    def test_planted_graph_bug_is_caught(self, mutation):
        # Each graph oracle must catch its own planted bug.
        code, _, _ = _cli([
            "check", "--seed", "3", "--cases", "6", "--no-laws",
            "--mutate", mutation,
        ])
        assert code == 1, f"mutation {mutation} not caught"

    def test_mask_drop_fault_is_caught_and_minimized(self, tmp_path):
        out, art = tmp_path / "graph-check.json", tmp_path / "artifacts"
        code, _, _ = _cli([
            "check", "--seed", "3", "--cases", "6", "--no-laws",
            "--faults", "mask_drop@*", "--artifact-dir", str(art),
            "--json", str(out),
        ])
        assert code == 1
        r = json.loads(out.read_text())
        assert r["injections"] > 0, r
        checks = {f["check"] for v in r["failures"] for f in v["failures"]}
        assert "differential:masked" in checks, checks
        assert r["artifacts"], "ddmin wrote no reproducer"
        assert list(art.glob("*/repro.json"))


class TestClusterGates:
    def test_node_crash_fails_over(self, report):
        r = report("cluster_crash")
        _correct(r)
        assert r["conservation_ok"] is True, "requests were dropped"
        assert r["crashes"] == 1, r["crashes"]
        assert r["retried"] > 0, "crash must strand and retry work"
        assert r["shed"] > 0, "3 survivors at 4x load must shed"
        assert r["scaling_vs_single"] >= 2.5, r["scaling_vs_single"]

    def test_heterogeneous_fleet_never_transfers_plans(self, report):
        r = report("cluster_hetero")
        assert r["wrong_results"] == 0
        assert r["spilled"] > 0, "overload must spill"
        assert r["plan_fetches"] == 0, "incompatible devices must recompute"


class TestElasticGates:
    def test_fleet_scales_up_and_drops_nothing(self, report):
        warm = report("cluster_elastic")
        assert warm["autoscale"]["scale_ups"] >= 2, warm["autoscale"]
        _correct(warm)
        assert warm["conservation_ok"] is True
        assert warm["completed"] == warm["offered"]
        assert warm["autoscale"]["warm_join_plans"] > 0

    def test_warm_join_beats_cold_join_first_100(self, report):
        wr, cr = (
            report(n)["autoscale"]["join_first_100"]
            for n in ("cluster_elastic", "cluster_elastic_cold")
        )
        assert wr and cr
        assert min(wr.values()) > max(cr.values()), (wr, cr)

    def test_elastic_p99_between_fixed_fleets(self, report):
        # Strictly better than the 2-node fleet it started as, within
        # 1.5x of a fleet provisioned at 4 nodes the whole run.
        p99 = report("cluster_elastic")["latency"]["p99"]
        assert p99 < report("cluster_fixed_2")["latency"]["p99"]
        assert p99 <= 1.5 * report("cluster_fixed_4")["latency"]["p99"]

    def test_crash_and_corruption_during_scale_events(self, report):
        r = report("cluster_elastic_faulted")
        assert r["wrong_results"] == 0 and r["conservation_ok"]
        assert r["crashes"] == 1, r["crashes"]
        assert r["autoscale"]["scale_ups"] >= 1, r["autoscale"]


class TestChaosGates:
    def test_crash_corruption_and_brownout_together(self, report):
        r = report("chaos")
        assert r["wrong_results"] == 0, r["wrong_results"]
        assert r["conservation_ok"] is True, "requests were dropped"
        assert r["crashes"] >= 1 and r["degrades"] >= 1
        assert r["breaker_opens"] > 0, r["breakers"]
        degraded = sum(v for k, v in r["brownouts"].items() if k != "full")
        assert degraded > 0, r["brownouts"]
        assert r["plan_store"]["corrupt_writes"] >= 1, r["plan_store"]
        assert r["speculative_cold"] > 0
        assert r["fallbacks"] >= 1

    def test_same_seed_fresh_store_is_byte_identical(self, bench_report):
        assert bench_report("chaos") == bench_report("chaos_fresh_store")

    def test_warm_restart_quarantines_and_lifts_hit_rate(self, report):
        cold, warm = report("chaos"), report("chaos_warm")
        assert warm["wrong_results"] == 0 and warm["conservation_ok"]
        assert warm["warm_plans"] > 0, warm["plan_store"]
        assert warm["plan_store"]["quarantined_corrupt"] >= 1
        assert warm["first_100_hit_rate"] > cold["first_100_hit_rate"]


_BREAKER_FIELDS = {"open": "opens", "half_open": "half_opens", "closed": "closes"}


def _owned_counts(r):
    """``(counters, owner fields)``: each counter a report derives from
    another layer's tally, next to the value that tally reports."""
    if "cluster" not in r["metrics"]:
        cache = r["cache"]
        return r["metrics"]["counters"], {
            "service.plan_hits": cache["hits"],
            "service.plan_misses": cache["misses"],
        }
    owners = {
        "cluster.placed_spill": r["spilled"],
        "cluster.retries": r["retry_budget"]["spent"],
        "cluster.retry_denied": r["retry_budget"]["denied"],
        "cluster.proactive_replications": r["metrics"]["plan_index"]["proactive"],
    }
    for mode, n in r["brownouts"].items():
        owners[f"cluster.brownout_{mode}"] = n
    for state, fld in _BREAKER_FIELDS.items():
        per_node = {node: b[fld] for node, b in r["breakers"].items()}
        owners[f"cluster.breaker_{state}"] = sum(per_node.values())
        for node, n in per_node.items():
            owners[f"cluster.breaker_{state}_{node}"] = n
    if r["autoscale"]:
        for key in ("scale_ups", "scale_downs", "warm_join_plans"):
            owners[f"cluster.{key}"] = r["autoscale"][key]
    counters = dict(r["metrics"]["cluster"]["counters"])
    for node in r["metrics"]["nodes"]:
        name = node["name"]
        for kind in ("hits", "misses"):
            counters[f"{name}.plan_{kind}"] = node["metrics"]["counters"].get(
                f"service.plan_{kind}", 0
            )
            owners[f"{name}.plan_{kind}"] = node["plan_cache"][kind]
    return counters, owners


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_derived_counters_equal_their_owners(name, report):
    counters, owners = _owned_counts(report(name))
    assert {k: counters.get(k, 0) for k in owners} == owners


def _cli(argv):
    """``(exit code, stdout, stderr)`` of one in-process CLI run."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


class TestFaultSweepGates:
    @pytest.mark.parametrize("faults", ["", "alloc:n=1", "alloc:n=1:transient"])
    def test_small_sweep_survives(self, faults):
        # Every first allocation failing, or failing once (retries recover).
        argv = ["bench", "--small"] + (["--faults", faults] if faults else [])
        assert _cli(argv)[0] == 0

    def test_checkpoint_resume_skips_every_case(self, tmp_path):
        argv = [
            "bench", "--small", "--faults", "seed=7;launch:p=0.2",
            "--checkpoint", str(tmp_path / "sweep.jsonl"),
        ]
        assert _cli(argv)[0] == 0
        code, out, _ = _cli(argv)
        assert code == 0
        assert out.count("checkpointed, skipped") == len(small_corpus()), out

    def test_malformed_fault_spec_exits_two(self):
        code, _, err = _cli(["bench", "--small", "--faults", "bogus:n=1"])
        assert code == 2
        assert "invalid --faults spec" in err


class TestCheckGates:
    def test_planted_engine_bug_is_caught_and_minimized(self, tmp_path):
        code, _, _ = _cli([
            "check", "--seed", "0", "--cases", "5", "--no-laws",
            "--mutate", "drop-last-product", "--artifact-dir", str(tmp_path),
        ])
        assert code == 1
        assert list(tmp_path.glob("*/repro.json"))


# ---------------------------------------------------------------------------
# A violated gate fails
# ---------------------------------------------------------------------------
def _fed(report):
    """A gate's ``report`` argument serving one fixed report."""
    return lambda name: report


@pytest.fixture
def planted_masked_bug(monkeypatch):
    """``multiply_masked`` returns C with 1.0 added to its first value."""
    real = masked.multiply_masked

    def buggy(*args, **kwargs):
        res = real(*args, **kwargs)
        c = res.c
        if c is not None and c.nnz:
            data = c.data.copy()
            data[0] += 1.0
            res.c = CSR(c.indptr, c.indices, data, c.shape)
        return res

    monkeypatch.setattr(masked, "multiply_masked", buggy)


@pytest.mark.parametrize("name", ["serve_masked", "cluster_masked"])
def test_planted_workload_bug_is_a_wrong_result(
    name, planted_masked_bug, tmp_path
):
    # The reference is computed without the workload executor, so a bug
    # in the executor cannot hide in it.
    code, text = run_config(name, str(tmp_path))
    r = json.loads(text)
    assert code == 1
    assert r["completed"] > 0
    assert r["wrong_results"] == r["completed"]
    assert r["bit_identical"] is False
    gate = (
        TestGraphWorkloadGates().test_masked_under_faults
        if name == "serve_masked"
        else TestClusterGates().test_heterogeneous_fleet_never_transfers_plans
    )
    with pytest.raises(AssertionError):
        gate(_fed(r))


def test_dropped_outcome_breaks_conservation(monkeypatch, tmp_path):
    real = cluster_bench._run_fleet

    def dropping(*args, **kwargs):
        run = real(*args, **kwargs)
        run.outcomes.pop()
        return run

    monkeypatch.setattr(cluster_bench, "_run_fleet", dropping)
    code, text = run_config("chaos", str(tmp_path))
    r = json.loads(text)
    assert code == 1
    assert r["conservation_ok"] is False
    with pytest.raises(AssertionError, match="dropped"):
        TestChaosGates().test_crash_corruption_and_brownout_together(_fed(r))
