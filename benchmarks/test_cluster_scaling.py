"""Fleet scaling benchmark (``repro.cluster``).

Drives the skewed Zipf workload at ~4x one node's capacity across 1, 2,
4 and 8-node fleets and asserts the cluster-layer guarantees: throughput
scales (the 4-node fleet clears at least 2.5x the single node), a node
crash mid-run produces retries and sheds but zero wrong or silently
dropped responses, and every completed response is bit-identical to the
single-node reference.
"""

from repro.cluster import ClusterSpec, run_cluster_bench
from repro.faults import parse_fault_spec
from repro.serve.workload import WorkloadSpec, serve_corpus

from conftest import print_header

# ~4x the capacity of one default node (2 workers x ~100 us mean service).
SPEC = WorkloadSpec(rate=80_000.0, duration_s=0.5, timeout_s=0.25, seed=0)


def test_cluster_throughput_scaling():
    cases = serve_corpus()
    print_header("cluster-bench — fleet scaling, 4x single-node load")

    completed = {}
    for n in (1, 2, 4, 8):
        rep = run_cluster_bench(
            cases=cases,
            spec=SPEC,
            cluster=ClusterSpec(n_nodes=n),
            compare_single=False,
        )
        completed[n] = rep.completed
        print(
            f"{n} node(s): {rep.completed}/{rep.offered} completed "
            f"({rep.throughput_rps:.0f} req/s), shed {rep.shed}, "
            f"spills {rep.spilled}, plan fetches {rep.plan_fetches}"
        )
        assert rep.wrong_results == 0
        assert rep.conservation_ok

    # Monotone completion counts, and real scaling at 4 nodes.
    assert completed[2] > completed[1]
    assert completed[4] >= completed[2]
    assert completed[4] >= 2.5 * completed[1]
    # 8 nodes must not collapse (the workload saturates well before 8x,
    # so equality with the 4-node figure is acceptable).
    assert completed[8] >= 0.95 * completed[4]
    print(f"4-node scaling: {completed[4] / completed[1]:.2f}x")


def test_cluster_crash_failover_under_load():
    cases = serve_corpus()
    print_header("cluster-bench — node crash mid-run at 4x load")
    rep = run_cluster_bench(
        cases=cases,
        spec=SPEC,
        cluster=ClusterSpec(n_nodes=4),
        faults=parse_fault_spec("node_crash@node-1:n=500"),
    )
    print(rep.render())
    assert rep.crashes == 1
    assert rep.retried > 0
    assert rep.shed > 0  # 3 survivors cannot absorb 4x-single load
    assert rep.wrong_results == 0
    assert rep.bit_identical
    assert rep.conservation_ok
    assert rep.scaling_vs_single >= 2.5
