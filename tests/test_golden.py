"""Cross-commit pins: the evaluation sweep's records and the bench reports.

``tests/golden/suite_records.sha256`` holds one SHA-256 digest per corpus
over every ``MatrixRecord.as_dict()`` and ``RunRecord.as_dict()`` of a
sequential ``run_suite`` sweep, serialised as ``sort_keys`` JSON.  A
refactor that leaves the simulator's behaviour unchanged leaves these
digests unchanged; a change that moves a single cost, decision or
failure breaks them.

``tests/golden/engine_paths.sha256`` holds one SHA-256 digest per
operand over every :meth:`SpeckEngine.multiply` result of a grid that
walks each branch of the engine: two devices, forced and automatic
global LB, block merging off, a pinned group size, exact and
speculative planning, and fault specs that spill, fail allocations and
launches, and skew the estimate both ways.  Captured plans are digested
and then hit once; some runs carry a ``Trace``, some run ``execute``.

``tests/golden/<config>.json`` holds the ``--json`` report of each
``serve-bench`` / ``cluster-bench`` configuration in
:data:`bench_configs.GOLDENS`; a fresh run must reproduce it byte for
byte.

``tests/golden/check_seed0.jsonl`` holds the ``--checkpoint`` log of
``repro check --seed 0`` (100 fuzzed cases through the differential
oracle and the metamorphic laws): one verdict per case, with its
product count and any failure.

An intentional behaviour change regenerates all of them with::

    PYTHONPATH=src python tests/test_golden.py --update

and the commit that does so has to say why the records moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from bench_configs import AFTER, GOLDENS, golden_path, run_config
from repro.cli import main as cli_main
from repro.core.context import MultiplyContext
from repro.core.params import DEFAULT_PARAMS
from repro.core.speck import SpeckEngine
from repro.estimate import RowEstimator
from repro.eval import full_corpus, run_suite, small_corpus
from repro.faults import parse_fault_spec
from repro.gpu import TITAN_V
from repro.gpu.presets import PASCAL_P100
from repro.gpu.trace import Trace
from repro.matrices.generators import rmat, skew_single
from repro.serve.plan_cache import CachedPlan

GOLDEN = Path(__file__).parent / "golden" / "suite_records.sha256"
ENGINE_GOLDEN = Path(__file__).parent / "golden" / "engine_paths.sha256"
CHECK_GOLDEN = Path(__file__).parent / "golden" / "check_seed0.jsonl"
CORPORA = {"small_corpus": small_corpus, "full_corpus": full_corpus}

#: Fault specs of the engine-path grid ("" runs clean).  The
#: ``estimate_skew`` rules act only on speculative planning.
ENGINE_FAULTS = (
    "",
    "spill@spECK:tag=symbolic",
    "spill@spECK:tag=numeric",
    "alloc@spECK:n=2:transient",
    "launch@spECK:n=1:transient",
    "seed=1;alloc@spECK:p=0.3",
    "estimate_skew:factor=0.01",
    "estimate_skew:factor=5",
)
ENGINE_PARAMS = {
    "auto": DEFAULT_PARAMS,
    "always": DEFAULT_PARAMS.with_overrides(global_lb_mode="always"),
    "never": DEFAULT_PARAMS.with_overrides(global_lb_mode="never"),
    "no_merge": DEFAULT_PARAMS.with_overrides(enable_block_merge=False),
    "group32": DEFAULT_PARAMS.with_overrides(fixed_group_size=32),
}


def suite_digest(corpus: str) -> str:
    """SHA-256 of one sequential sweep's records over ``corpus``."""
    res = run_suite(CORPORA[corpus]())
    payload = json.dumps(
        {
            "matrices": [m.as_dict() for m in res.matrices.values()],
            "runs": [r.as_dict() for r in res.runs],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def engine_operands() -> list:
    """``(name, A, B)``: the small corpus plus three self-products.
    ``rmat_11_4`` is the operand whose deflated estimate bins the
    symbolic stage while exact analysis does not."""
    ops = [(case.name, *case.matrices()) for case in small_corpus()]
    for name, a in (
        ("skew_single", skew_single(3000, 4, 800)),
        ("rmat_9_8", rmat(9, 8)),
        ("rmat_11_4", rmat(11, 4)),
    ):
        ops.append((name, a, a))
    return ops


def _feed(h, *items) -> None:
    h.update(json.dumps(items, default=repr).encode())


def _feed_result(h, res, trace) -> None:
    info = res.failure_info.as_dict() if res.failure_info else None
    _feed(
        h, res.valid, repr(res.time_s), res.peak_mem_bytes,
        list(res.stage_times.items()), list(res.decisions.items()),
        res.failure, info, res.retries,
    )
    if trace is not None:
        _feed(h, [
            (e.name, e.start_s, e.duration_s, e.category, e.meta)
            for e in trace.events
        ])


def _feed_plan(h, plan) -> None:
    _feed(
        h, plan.use_lb_symbolic, plan.use_lb_numeric,
        repr(plan.ratio_symbolic), repr(plan.ratio_numeric), plan.mode,
    )
    for bp in (plan.plan_sym, plan.plan_num):
        _feed(h, bp.used_global_lb)
        for arr in (bp.row_order, bp.block_ptr, bp.block_config):
            _feed(h, str(arr.dtype), arr.shape)
            h.update(arr.tobytes())


def engine_digests() -> dict:
    """``operand -> SHA-256`` over the engine-path grid's results."""
    out = {}
    for name, a, b in engine_operands():
        h = hashlib.sha256()
        for device in (TITAN_V, PASCAL_P100):
            estimate = RowEstimator(device).estimate(a, b)
            ctx = MultiplyContext(a, b)
            ctx.case_name = name
            for pname, params in ENGINE_PARAMS.items():
                engine = SpeckEngine(device, params)
                for spec in ENGINE_FAULTS:
                    for speculative in (False, True):
                        if spec.startswith("estimate_skew") and not speculative:
                            continue
                        execute = (
                            device is TITAN_V and pname == "auto" and not spec
                        )
                        _feed(h, device.name, pname, spec, speculative, execute)
                        plan = CachedPlan(key=(name,))
                        for hit in (False, True):
                            ctx.faults = parse_fault_spec(spec) if spec else None
                            trace = Trace() if pname == "auto" else None
                            res = engine.multiply(
                                a, b, ctx=ctx, trace=trace, plan=plan,
                                mode="execute" if execute else "model",
                                estimate=estimate if speculative else None,
                            )
                            _feed_result(h, res, trace)
                            if execute and res.valid:
                                for arr in (res.c.indptr, res.c.indices, res.c.data):
                                    h.update(arr.tobytes())
                            if not plan.ready:
                                break
                            if not hit:
                                _feed_plan(h, plan)
        out[name] = h.hexdigest()
    return out


def check_log() -> str:
    """The ``--checkpoint`` JSONL of ``repro check --seed 0``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "check.jsonl"
        with redirect_stdout(StringIO()):
            code = cli_main(["check", "--seed", "0", "--checkpoint", str(path)])
        assert code == 0, f"repro check --seed 0 exited {code}"
        return path.read_text(encoding="utf-8")


def _golden(path: Path = GOLDEN) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            out[name] = digest
    return out


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_suite_records_match_golden(corpus):
    assert suite_digest(corpus) == _golden()[corpus]


def test_engine_paths_match_golden():
    assert engine_digests() == _golden(ENGINE_GOLDEN)


def test_check_seed0_matches_golden():
    assert check_log() == CHECK_GOLDEN.read_text(encoding="utf-8")


@pytest.mark.smoke
@pytest.mark.parametrize("name", GOLDENS)
def test_bench_report_matches_golden(name, bench_report):
    code, text = bench_report(name)
    assert code == 0
    assert text == golden_path(name).read_text(encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    lines = [f"{suite_digest(name)}  {name}" for name in sorted(CORPORA)]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(GOLDEN.read_text(), end="")
    lines = [f"{digest}  {name}" for name, digest in engine_digests().items()]
    ENGINE_GOLDEN.write_text("\n".join(lines) + "\n")
    print(ENGINE_GOLDEN.read_text(), end="")
    CHECK_GOLDEN.write_text(check_log(), encoding="utf-8")
    print(f"wrote {CHECK_GOLDEN}")
    with tempfile.TemporaryDirectory() as stores:
        for name in GOLDENS:
            assert not AFTER.get(name), "a golden run must not need another"
            code, text = run_config(name, stores)
            if code != 0:
                sys.exit(f"{name} exited {code}; golden not written")
            golden_path(name).write_text(text, encoding="utf-8")
            print(f"wrote {golden_path(name)}")
