"""Crash-proof JSONL checkpoint primitives.

Shared by the corpus sweep (:mod:`repro.eval.harness`) and the
correctness harness (:mod:`repro.check.runner`): one JSON object per
line, appended the moment a unit of work finishes, so an interrupted
run resumes by skipping what is already on disk.

Two failure modes of append-only logs are handled here once instead of
at every call site:

* a process killed mid-``write`` leaves a *torn* final line —
  :func:`repair_torn_tail` terminates it so the next append starts a
  fresh line instead of gluing a good record onto the garbage;
* a torn or otherwise corrupt line must not poison a resume —
  :func:`iter_jsonl` silently skips lines that do not parse.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional

__all__ = ["iter_jsonl", "append_jsonl", "repair_torn_tail"]


def iter_jsonl(path: str) -> Iterator[Dict[str, object]]:
    """Yield one dict per parseable line (missing file yields nothing).

    Lines that do not parse as a JSON object are skipped.
    """
    if not os.path.exists(path):
        return
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail write from an interrupted run, or bit rot
            if isinstance(entry, dict):
                yield entry


def append_jsonl(path: Optional[str], entry: Dict[str, object]) -> None:
    """Append one record to the log (no-op when ``path`` is unset)."""
    if not path:
        return
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(entry) + "\n")


def repair_torn_tail(path: Optional[str]) -> None:
    """Terminate a torn final line so the next append starts cleanly."""
    if not path or not os.path.exists(path):
        return
    with open(path, "rb+") as fh:
        fh.seek(0, os.SEEK_END)
        if fh.tell() > 0:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1) != b"\n":
                fh.write(b"\n")
