"""The batched execute engine must be bit-identical to the scalar oracle,
and the parallel suite runner record-identical to the sequential one."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import (
    DEFAULT_PARAMS,
    ExecuteStats,
    MultiplyContext,
    SpeckParams,
    build_configs,
    execute_batched,
    execute_scalar,
    speck_multiply,
)
from repro.core.batch_execute import (
    METHOD_DENSE,
    METHOD_DIRECT,
    METHOD_EMPTY,
    METHOD_HASH,
)
from repro.eval import run_suite, small_corpus
from repro.faults import parse_fault_spec
from repro.gpu import TITAN_V
from repro.matrices.csr import CSR
from repro.matrices.generators import (
    banded,
    circuit,
    dense_stripe,
    diagonal,
    poisson2d,
    random_uniform,
    rect_lp,
    rmat,
    skew_single,
)

from conftest import csr_matrices

ALL_FAMILIES = [
    ("banded", lambda: banded(150, 4, seed=1)),
    ("mesh", lambda: poisson2d(13)),
    ("circuit", lambda: circuit(250, seed=2)),
    ("powerlaw", lambda: rmat(7, 6, seed=3)),
    ("stripe", lambda: dense_stripe(90, 32, 10, seed=4)),
    ("skew", lambda: skew_single(200, 2, 80, seed=5)),
    ("diagonal", lambda: diagonal(60, seed=6)),
    ("uniform", lambda: random_uniform(200, 200, 6.0, seed=7)),
    # Dense enough that hundreds of rows route to the windowed-dense
    # accumulator (the other families stay direct/hash at test sizes).
    ("dense-heavy", lambda: random_uniform(800, 800, 40.0, seed=11)),
]

CONFIGS = build_configs(TITAN_V)


def _both(a: CSR, b: CSR, params: SpeckParams = DEFAULT_PARAMS):
    ctx = MultiplyContext(a, b)
    cb, sb = execute_batched(
        a, b, ctx.analysis, ctx.c_row_nnz, params, CONFIGS, collect_stats=True
    )
    cs, ss = execute_scalar(
        a, b, ctx.analysis, ctx.c_row_nnz, params, CONFIGS, collect_stats=True
    )
    return cb, sb, cs, ss


def _assert_bit_identical(cb: CSR, sb: ExecuteStats, cs: CSR, ss: ExecuteStats):
    # Structure and values down to the last bit (tobytes distinguishes
    # -0.0 from 0.0 where allclose would not).
    assert np.array_equal(cb.indptr, cs.indptr)
    assert np.array_equal(cb.indices, cs.indices)
    assert cb.data.tobytes() == cs.data.tobytes()
    # Same per-row method choice and identical hash statistics: the
    # probing simulation must reproduce the scalar map's exact counters.
    assert np.array_equal(sb.method, ss.method)
    assert np.array_equal(sb.hash_inserts, ss.hash_inserts)
    assert np.array_equal(sb.hash_probes, ss.hash_probes)
    assert np.array_equal(sb.hash_capacity, ss.hash_capacity)
    assert np.array_equal(sb.dense_iters, ss.dense_iters)


class TestBatchedBitIdentity:
    @pytest.mark.parametrize("name,build", ALL_FAMILIES)
    def test_every_family(self, name, build):
        a = build()
        _assert_bit_identical(*_both(a, a))

    def test_rectangular(self):
        a = rect_lp(40, 300, 6, seed=7)
        _assert_bit_identical(*_both(a, a.transpose()))

    @pytest.mark.parametrize(
        "params",
        [
            SpeckParams(enable_dense=False, enable_direct=False),
            SpeckParams(enable_dense=True, enable_direct=False),
            SpeckParams(enable_dense=False, enable_direct=True),
            SpeckParams(dense_density_threshold=0.01),
        ],
        ids=["hash-only", "no-direct", "no-dense", "dense-eager"],
    )
    def test_under_ablations(self, params):
        a = skew_single(180, 3, 70, seed=8)
        _assert_bit_identical(*_both(a, a, params))

    @given(csr_matrices(max_rows=20, max_cols=20, max_nnz=70, square=True))
    @settings(max_examples=60, deadline=None)
    def test_random_matrices(self, a):
        _assert_bit_identical(*_both(a, a))

    @given(csr_matrices(max_rows=16, max_cols=24, max_nnz=60))
    @settings(max_examples=40, deadline=None)
    def test_random_rectangular(self, a):
        _assert_bit_identical(*_both(a, a.transpose()))

    def test_methods_cover_all_accumulators(self):
        # The identity proof only bites if the corpus exercises every
        # accumulator; assert the routing actually spreads across them.
        seen = set()
        for _, build in ALL_FAMILIES:
            a = build()
            _, sb, _, _ = _both(a, a)
            seen.update(np.unique(sb.method).tolist())
        assert {METHOD_DIRECT, METHOD_DENSE, METHOD_HASH} <= seen

    def test_empty_matrix(self):
        a = CSR.from_coo(
            np.array([], dtype=np.int64),
            np.array([], dtype=np.int64),
            np.array([], dtype=np.float64),
            (5, 5),
        )
        cb, sb, cs, ss = _both(a, a)
        _assert_bit_identical(cb, sb, cs, ss)
        assert cb.nnz == 0
        assert np.all(sb.method == METHOD_EMPTY)

    def test_row_hash_stats_view(self):
        a = random_uniform(120, 120, 8.0, seed=9)
        _, sb, _, _ = _both(a, a)
        rows = np.flatnonzero(sb.method == METHOD_HASH)
        assert rows.size > 0
        st = sb.row_hash_stats(int(rows[0]))
        assert st.inserts == sb.hash_inserts[rows[0]]
        assert st.probes >= st.inserts
        assert st.capacity > 0

    def test_engine_param_dispatch(self):
        a = banded(100, 3, seed=1)
        res_b = speck_multiply(a, a, mode="execute")  # batched default
        res_s = speck_multiply(
            a, a, params=SpeckParams(execute_engine="scalar"), mode="execute"
        )
        assert np.array_equal(res_b.c.indices, res_s.c.indices)
        assert res_b.c.data.tobytes() == res_s.c.data.tobytes()


@pytest.mark.usefixtures("four_cores")
class TestParallelSuite:
    def _dicts(self, result):
        return (
            [m.as_dict() for m in result.matrices.values()],
            [r.as_dict() for r in result.runs],
        )

    def _sweep(self, tmp_path, workers, spec=None):
        """Records and sorted checkpoint lines of one sweep."""
        cp = os.path.join(tmp_path, f"w{workers}.jsonl")
        faults = parse_fault_spec(spec) if spec else None
        res = run_suite(
            small_corpus(), workers=workers, faults=faults, checkpoint=cp
        )
        with open(cp, "rb") as fh:
            lines = sorted(fh.read().splitlines())
        m, r = self._dicts(res)
        return json.dumps(m), json.dumps(r), lines

    def test_workers2_record_identical(self, tmp_path):
        assert self._sweep(tmp_path, 1) == self._sweep(tmp_path, 2)

    def test_workers2_identical_under_faults(self, tmp_path):
        spec = "seed=7;launch:p=0.2"
        seq = self._sweep(tmp_path, 1, spec)
        assert seq == self._sweep(tmp_path, 2, spec)
        # Fault injection actually fired somewhere, or the test is vacuous.
        assert any(not d["valid"] for d in json.loads(seq[1]))

    def test_parallel_checkpoint_resumes(self, tmp_path):
        cp = os.path.join(tmp_path, "sweep.jsonl")
        run_suite(small_corpus(), workers=2, checkpoint=cp)
        with open(cp, "r", encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh if line.strip()]
        assert len(entries) == len(small_corpus())
        # Every checkpoint entry is a byte-for-byte sequential record.
        seq = run_suite(small_corpus(), workers=1)
        by_name = {
            e["matrix"]["name"]: e for e in entries
        }
        for name, mrec in seq.matrices.items():
            entry = by_name[name]
            assert entry["matrix"] == mrec.as_dict()
            runs = [r.as_dict() for r in seq.runs if r.matrix == name]
            assert entry["runs"] == runs
        # Resuming skips everything and reproduces the full result set.
        resumed = run_suite(small_corpus(), workers=2, checkpoint=cp)
        assert set(resumed.matrices) == set(seq.matrices)
        assert len(resumed.runs) == len(seq.runs)

    def test_workers_one_falls_back_to_sequential(self, tmp_path):
        # workers=1 must not fork at all: identical to the legacy path.
        cp = os.path.join(tmp_path, "seq.jsonl")
        res = run_suite(small_corpus(), workers=1, checkpoint=cp)
        assert len(res.runs) > 0
        assert os.path.exists(cp)
