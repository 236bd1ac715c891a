"""Cross-commit pins: the evaluation sweep's records and the bench reports.

``tests/golden/suite_records.sha256`` holds one SHA-256 digest per corpus
over every ``MatrixRecord.as_dict()`` and ``RunRecord.as_dict()`` of a
sequential ``run_suite`` sweep, serialised as ``sort_keys`` JSON.  A
refactor that leaves the simulator's behaviour unchanged leaves these
digests unchanged; a change that moves a single cost, decision or
failure breaks them.

``tests/golden/<config>.json`` holds the ``--json`` report of each
``serve-bench`` / ``cluster-bench`` configuration in
:data:`bench_configs.GOLDENS`; a fresh run must reproduce it byte for
byte.

An intentional behaviour change regenerates all of them with::

    PYTHONPATH=src python tests/test_golden.py --update

and the commit that does so has to say why the records moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bench_configs import AFTER, GOLDENS, golden_path, run_config
from repro.eval import full_corpus, run_suite, small_corpus

GOLDEN = Path(__file__).parent / "golden" / "suite_records.sha256"
CORPORA = {"small_corpus": small_corpus, "full_corpus": full_corpus}


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


def _golden() -> dict:
    out = {}
    for line in GOLDEN.read_text().splitlines():
        if line and not line.startswith("#"):
            digest, name = line.split()
            out[name] = digest
    return out


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_suite_records_match_golden(corpus):
    assert suite_digest(corpus) == _golden()[corpus]


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
    with tempfile.TemporaryDirectory() as stores:
        for name in GOLDENS:
            assert not AFTER.get(name), "a golden run must not need another"
            code, text = run_config(name, stores)
            if code != 0:
                sys.exit(f"{name} exited {code}; golden not written")
            golden_path(name).write_text(text, encoding="utf-8")
            print(f"wrote {golden_path(name)}")
