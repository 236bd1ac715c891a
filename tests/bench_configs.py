"""The ``serve-bench`` / ``cluster-bench`` runs the smoke gates read.

Each entry is one command line (without ``--json``).  ``@name`` stands
for a plan-store directory: runs naming the same store share it, in
the order :data:`AFTER` gives, so a warm restart sees what the cold run
left.  :data:`GOLDENS` lists the runs whose ``--json`` report is pinned
byte for byte under ``tests/golden/``; the rest only feed gate tests.

Regenerate the pinned reports (intentional behaviour changes only) with::

    PYTHONPATH=src python tests/test_golden.py --update
"""

from __future__ import annotations

import os
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from typing import Dict, List, Tuple

from repro.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

_ELASTIC = [
    "cluster-bench", "--nodes", "2", "--autoscale", "--min-nodes", "2",
    "--max-nodes", "4", "--target-p99", "0.0005", "--rate", "35000",
    "--duration", "0.3", "--alpha", "1.1", "--no-single-reference",
]
_FIXED = [
    "cluster-bench", "--rate", "35000", "--duration", "0.3", "--alpha", "1.1",
    "--no-single-reference",
]
_CHAOS = [
    "cluster-bench", "--nodes", "4", "--queue-depth", "16", "--rate", "20000",
    "--duration", "0.1", "--seed", "3", "--speculative", "--faults",
    "node_crash@node-1:n=40;node_degrade@node-2;disk_corrupt@node-0:n=2;"
    "estimate_skew@skew_*:factor=0.2",
]

CONFIGS: Dict[str, List[str]] = {
    "serve_default": ["serve-bench", "--duration", "2", "--seed", "0"],
    "serve_speculative": [
        "serve-bench", "--duration", "2", "--seed", "0", "--speculative",
    ],
    "serve_overload": [
        "serve-bench", "--duration", "1", "--rate", "40000", "--seed", "0",
    ],
    "serve_faulted": [
        "serve-bench", "--duration", "1", "--seed", "0",
        "--faults", "seed=3;alloc:p=0.05",
    ],
    "serve_skew": [
        "serve-bench", "--duration", "1", "--seed", "0", "--speculative",
        "--faults", "estimate_skew:factor=0.05",
    ],
    "serve_masked": [
        "serve-bench", "--workload", "masked", "--rate", "300",
        "--duration", "0.5", "--seed", "7",
        "--faults", "seed=3;alloc:p=0.02:transient",
    ],
    "serve_chain": [
        "serve-bench", "--workload", "chain", "--chain-length", "3",
        "--rate", "300", "--duration", "0.5", "--seed", "7",
    ],
    "serve_incremental": [
        "serve-bench", "--workload", "incremental", "--rate", "300",
        "--duration", "0.5", "--seed", "7",
    ],
    "cluster_crash": [
        "cluster-bench", "--nodes", "4", "--faults", "node_crash@node-1:n=500",
    ],
    "cluster_hetero": [
        "cluster-bench", "--nodes", "2", "--devices", "titan-v,p100",
        "--rate", "30000", "--duration", "0.1", "--spill-depth", "2",
        "--no-single-reference",
    ],
    "cluster_elastic": _ELASTIC,
    "cluster_elastic_cold": _ELASTIC + ["--no-warm-join"],
    "cluster_fixed_2": _FIXED + ["--nodes", "2"],
    "cluster_fixed_4": _FIXED + ["--nodes", "4"],
    "cluster_elastic_faulted": [
        "cluster-bench", "--nodes", "2", "--autoscale", "--min-nodes", "2",
        "--max-nodes", "4", "--plan-store", "@elastic", "--faults",
        "node_crash@node-1:n=400;disk_corrupt@node-0:n=2",
        "--no-single-reference",
    ],
    "cluster_masked": [
        "cluster-bench", "--workload", "masked", "--nodes", "2", "--rate",
        "2000", "--duration", "0.05", "--no-single-reference",
    ],
    "chaos": _CHAOS + ["--plan-store", "@chaos"],
    "chaos_fresh_store": _CHAOS + ["--plan-store", "@chaos-fresh"],
    "chaos_warm": _CHAOS + ["--plan-store", "@chaos"],
}

#: Runs that must come first (they fill a shared plan store).
AFTER: Dict[str, Tuple[str, ...]] = {"chaos_warm": ("chaos",)}

GOLDENS = (
    "serve_default",
    "serve_speculative",
    "serve_overload",
    "serve_faulted",
    "serve_masked",
    "serve_chain",
    "serve_incremental",
    "cluster_crash",
    "cluster_hetero",
    "cluster_elastic",
    "cluster_elastic_faulted",
)


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"{name}.json"


def run_config(name: str, store_root: str) -> Tuple[int, str]:
    """Run one configuration in-process; ``(exit code, --json text)``."""
    argv = [
        os.path.join(store_root, arg[1:]) if arg.startswith("@") else arg
        for arg in CONFIGS[name]
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report.json")
        with redirect_stdout(StringIO()):
            code = main(argv + ["--json", path])
        with open(path, encoding="utf-8") as fh:
            return code, fh.read()
