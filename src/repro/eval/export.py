"""Export evaluation results to CSV / JSON for downstream analysis.

The text tables in :mod:`repro.eval.report` are for eyeballing; this module
serialises a full :class:`~repro.eval.harness.EvalResult` so the sweep can
be re-plotted or diffed without re-running it (the corpus sweep is the
expensive part of the benchmark suite).
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Union

from .harness import EvalResult, MatrixRecord, RunRecord

__all__ = ["runs_to_csv", "result_to_json", "result_from_json"]


def runs_to_csv(result: EvalResult, path: Union[str, Path]) -> int:
    """Write one CSV row per (matrix, method) run; returns the row count."""
    path = Path(path)
    fields = [
        "matrix", "family", "rows", "cols", "nnz_a", "products", "nnz_c",
        "method", "valid", "time_s", "peak_mem_bytes", "gflops",
        "sorted_output",
    ]
    n = 0
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for run in result.runs:
            rec = result.matrices[run.matrix]
            writer.writerow(
                {
                    "matrix": run.matrix,
                    "family": rec.family,
                    "rows": rec.rows,
                    "cols": rec.cols,
                    "nnz_a": rec.nnz_a,
                    "products": rec.products,
                    "nnz_c": rec.nnz_c,
                    "method": run.method,
                    "valid": run.valid,
                    "time_s": run.time_s if run.valid else "",
                    "peak_mem_bytes": run.peak_mem_bytes,
                    "gflops": run.gflops(rec.flops),
                    "sorted_output": run.sorted_output,
                }
            )
            n += 1
    return n


def result_to_json(result: EvalResult, path: Union[str, Path, None] = None) -> str:
    """Serialise the full result to JSON, one record format with checkpoints.

    Matrices and runs are written through ``MatrixRecord.as_dict`` and
    ``RunRecord.as_dict``; a non-finite ``time_s`` (an invalid run) is
    written as ``null`` so the file stays strict JSON.
    """
    runs = []
    for r in result.runs:
        d = r.as_dict()
        if not math.isfinite(r.time_s):
            d["time_s"] = None
        runs.append(d)
    payload = {
        "matrices": {name: rec.as_dict() for name, rec in result.matrices.items()},
        "runs": runs,
    }
    text = json.dumps(payload, indent=1)
    if path is not None:
        Path(path).write_text(text)
    return text


def result_from_json(path_or_text: Union[str, Path]) -> EvalResult:
    """Reload a result serialised by :func:`result_to_json`."""
    text = str(path_or_text)
    if "{" not in text.lstrip()[:1]:  # looks like a path, not JSON
        try:
            text = Path(text).read_text()
        except OSError:
            pass
    payload = json.loads(text)
    out = EvalResult()
    for name, m in payload["matrices"].items():
        out.matrices[name] = MatrixRecord.from_dict({**m, "name": name})
    for r in payload["runs"]:
        if r["time_s"] is None:
            r = {**r, "time_s": float("inf")}
        out.runs.append(RunRecord.from_dict(r))
    return out
