"""Tests for evaluation result export/import."""

import csv
import json

import pytest

from repro.eval import compute_table3, run_suite, small_corpus
from repro.eval.export import result_from_json, result_to_json, runs_to_csv


@pytest.fixture(scope="module")
def result():
    return run_suite(small_corpus())


class TestCsv:
    def test_row_count(self, result, tmp_path):
        path = tmp_path / "runs.csv"
        n = runs_to_csv(result, path)
        assert n == len(result.runs)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == n

    def test_fields_present(self, result, tmp_path):
        path = tmp_path / "runs.csv"
        runs_to_csv(result, path)
        with open(path) as fh:
            row = next(csv.DictReader(fh))
        for key in ("matrix", "method", "time_s", "gflops", "products"):
            assert key in row

    def test_gflops_consistent(self, result, tmp_path):
        path = tmp_path / "runs.csv"
        runs_to_csv(result, path)
        with open(path) as fh:
            for row in csv.DictReader(fh):
                if row["valid"] == "True" and row["time_s"]:
                    expected = 2 * int(row["products"]) / float(row["time_s"]) / 1e9
                    assert float(row["gflops"]) == pytest.approx(expected, rel=1e-9)
                    break


class TestJsonRoundtrip:
    def test_roundtrip_preserves_records(self, result, tmp_path):
        path = tmp_path / "result.json"
        result_to_json(result, path)
        again = result_from_json(path)
        assert set(again.matrices) == set(result.matrices)
        assert len(again.runs) == len(result.runs)
        r0, a0 = result.runs[0], again.runs[0]
        assert (r0.matrix, r0.method, r0.time_s) == (a0.matrix, a0.method, a0.time_s)

    def test_roundtrip_preserves_metrics(self, result):
        text = result_to_json(result)
        again = result_from_json(text)
        s1 = compute_table3(result)
        s2 = compute_table3(again)
        for m in s1:
            assert s1[m].n_best == s2[m].n_best
            assert s1[m].t_rel == pytest.approx(s2[m].t_rel, nan_ok=True)

    def test_json_is_valid(self, result):
        payload = json.loads(result_to_json(result))
        assert "matrices" in payload and "runs" in payload

    def test_roundtrip_keeps_every_run_field(self, result):
        again = result_from_json(result_to_json(result))
        for r, a in zip(result.runs, again.runs):
            assert a.as_dict() == r.as_dict()
        for name, rec in result.matrices.items():
            assert again.matrices[name] == rec

    @staticmethod
    def _roundtrip_failed(result, time_s):
        """Append a failed run with every optional field set; round-trip it."""
        from repro.eval.harness import RunRecord
        from repro.faults import FailureInfo

        result_copy = result_from_json(result_to_json(result))
        failed = RunRecord(
            matrix=next(iter(result_copy.matrices)),
            method="broken",
            time_s=time_s,
            peak_mem_bytes=0,
            valid=False,
            sorted_output=True,
            stage_times={"analysis": 1e-6},
            decisions={"global_lb": True},
            failure="out of memory in symbolic",
            failure_info=FailureInfo(
                kind="oom", stage="symbolic", tag="c_rows",
                message="out of memory in symbolic", retryable=True,
            ),
            retries=2,
        )
        result_copy.runs.append(failed)
        text = result_to_json(result_copy)
        json.loads(text, parse_constant=pytest.fail)  # strict JSON, no Infinity
        return failed, result_from_json(text).runs[-1]

    def test_invalid_runs_survive(self, result):
        failed, again = self._roundtrip_failed(result, float("inf"))
        assert again == failed

    def test_invalid_run_keeps_a_finite_time(self, result):
        failed, again = self._roundtrip_failed(result, 1.5e-3)
        assert again == failed and again.time_s == 1.5e-3


class TestErrorPaths:
    def test_csv_target_in_missing_directory(self, result, tmp_path):
        with pytest.raises(FileNotFoundError):
            runs_to_csv(result, tmp_path / "no" / "such" / "dir" / "runs.csv")

    def test_csv_target_is_a_directory(self, result, tmp_path):
        with pytest.raises(OSError):
            runs_to_csv(result, tmp_path)

    def test_from_json_rejects_garbage_text(self):
        with pytest.raises(json.JSONDecodeError):
            result_from_json("{not json at all")

    def test_from_json_missing_path_is_decode_error(self, tmp_path):
        # A nonexistent path falls through to json.loads on the path
        # string itself, which fails loudly rather than returning an
        # empty result.
        with pytest.raises(json.JSONDecodeError):
            result_from_json(str(tmp_path / "missing.json"))

    def test_from_json_rejects_truncated_payload(self):
        with pytest.raises(KeyError):
            result_from_json(json.dumps({"matrices": {}}))

    def test_empty_result_roundtrips(self, tmp_path):
        from repro.eval.harness import EvalResult

        empty = EvalResult()
        assert runs_to_csv(empty, tmp_path / "empty.csv") == 0
        with open(tmp_path / "empty.csv") as fh:
            assert len(list(csv.DictReader(fh))) == 0
        again = result_from_json(result_to_json(empty))
        assert not again.runs and not again.matrices
