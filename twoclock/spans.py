"""In-memory span recorder and binding-site wrapping for the traced run.

A :class:`SpanRecorder` keeps every span as one row of parallel arrays
(name, start, end, parent, op id, value), so a traced replay of tens of
thousands of requests costs a few megabytes.  Spans nest by call order:
the benchmark is single-threaded, so a span's parent is whatever span
was open when it started, and a span's *self time* is its duration
minus the durations of its direct children.

A :class:`Tracer` wraps entry points of the program from outside.  A
module-level function is replaced at *every* binding site — each
``repro`` module whose namespace holds that function object, because
``from x import f`` copies the binding — and a method is replaced on the
class that defines it.  :meth:`Tracer.uninstall` puts every original
object back.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

__all__ = ["Probe", "SpanRecorder", "Tracer", "binding_sites", "resolve"]

_now = time.perf_counter_ns


def _copy(column: array) -> np.ndarray:
    """A numpy copy of one column (a view would pin the array's buffer)."""
    return np.array(column, dtype=np.int64)


class SpanRecorder:
    """Spans of one traced run, held in memory until :meth:`save`."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.value = array("q")
        self._stack: List[int] = []
        self._next_op = 0

    def __len__(self) -> int:
        return len(self.start)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name_id: int, new_op: bool = False) -> int:
        """Start a span under the innermost open one; returns its index.

        A ``new_op`` span starts a new op id; any other span inherits
        the op id of its parent (-1 outside every op).
        """
        idx = len(self.start)
        parent = self._stack[-1] if self._stack else -1
        if new_op:
            op = self._next_op
            self._next_op += 1
        else:
            op = self.op[parent] if parent >= 0 else -1
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(op)
        self.value.append(0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(_now())  # last: bookkeeping stays outside the span
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _now()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {idx} closed while span {popped} was open")

    def durations_ns(self) -> np.ndarray:
        return _copy(self.end) - _copy(self.start)

    def self_ns(self) -> np.ndarray:
        """Each span's duration minus the summed durations of its children."""
        dur = self.durations_ns()
        parent = _copy(self.parent)
        child = parent >= 0
        covered = np.bincount(
            parent[child], weights=dur[child], minlength=len(dur)
        )
        return dur - covered.astype(np.int64)

    def save(self, path: str) -> None:
        """Write every span to a compressed ``.npz`` file."""
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name=_copy(self.name),
            start_ns=_copy(self.start),
            end_ns=_copy(self.end),
            parent=_copy(self.parent),
            op=_copy(self.op),
            value=_copy(self.value),
        )


@dataclass(frozen=True)
class Probe:
    """One wrapped entry point.

    ``target`` is ``"module:Qualified.name"``.  An ``op`` probe starts a
    new op id (one request, or one (case, method) run).  ``annotate``
    maps ``(args, kwargs, result)`` to an integer stored as the span's
    value: a hit/cold tag, a byte count, a product count.
    """

    layer: str
    target: str
    op: bool = False
    annotate: Optional[Callable[[tuple, dict, Any], int]] = None


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, function)`` for a ``module:Qual.name`` target."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    fn = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, fn


def binding_sites(owner: Any, attr: str, fn: Any, prefix: str = "repro") -> List[Tuple[Any, str]]:
    """Every namespace binding ``fn``: the defining class for a method,
    otherwise each loaded ``prefix`` module holding the function object."""
    if isinstance(owner, type):
        return [(owner, attr)]
    sites = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not (mod_name == prefix or mod_name.startswith(prefix + ".")):
            continue
        for name, value in list(vars(mod).items()):
            if value is fn:
                sites.append((mod, name))
    return sites


class Tracer:
    """Installs span-recording wrappers for a list of probes."""

    def __init__(self, probes: List[Probe], recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self.layer_of: Dict[int, str] = {}
        self._plan: List[Tuple[Any, str, Any, Callable]] = []
        for probe in probes:
            owner, attr, fn = resolve(probe.target)
            nid = recorder.name_id(probe.target)
            self.layer_of[nid] = probe.layer
            wrapped = _wrap(fn, recorder, nid, probe.op, probe.annotate)
            for site, name in binding_sites(owner, attr, fn):
                self._plan.append((site, name, fn, wrapped))
        self._installed = False

    @property
    def sites(self) -> List[Tuple[Any, str, Any]]:
        """``(namespace, attribute, original)`` of every binding wrapped."""
        return [(site, name, fn) for site, name, fn, _ in self._plan]

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer already installed")
        for site, name, _, wrapped in self._plan:
            setattr(site, name, wrapped)
        self._installed = True

    def uninstall(self) -> None:
        for site, name, fn, _ in reversed(self._plan):
            setattr(site, name, fn)
        self._installed = False

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def _wrap(
    fn: Callable,
    rec: SpanRecorder,
    nid: int,
    new_op: bool,
    annotate: Optional[Callable[[tuple, dict, Any], int]],
) -> Callable:
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        idx = rec.open(nid, new_op)
        try:
            res = fn(*args, **kwargs)
            if annotate is not None:
                rec.value[idx] = int(annotate(args, kwargs, res))
            return res
        finally:
            rec.close(idx)

    return wrapped
