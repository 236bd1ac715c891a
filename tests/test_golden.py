"""Cross-commit pin of the evaluation sweep's records.

``tests/golden/suite_records.sha256`` holds one SHA-256 digest per corpus
over every ``MatrixRecord.as_dict()`` and ``RunRecord.as_dict()`` of a
sequential ``run_suite`` sweep, serialised as ``sort_keys`` JSON.  A
refactor that leaves the simulator's behaviour unchanged leaves these
digests unchanged; a change that moves a single cost, decision or
failure breaks them.

An intentional behaviour change regenerates the file with::

    PYTHONPATH=src python tests/test_golden.py --update

and the commit that does so has to say why the records moved.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

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


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --update")
    lines = [f"{suite_digest(name)}  {name}" for name in sorted(CORPORA)]
    GOLDEN.write_text("\n".join(lines) + "\n")
    print(GOLDEN.read_text(), end="")
