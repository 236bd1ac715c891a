"""Service metrics: counters, gauges and streaming latency histograms.

A small, dependency-free metrics layer in the Prometheus style.  The
histogram is streaming and O(1) per observation: values land in
log-spaced buckets and percentiles are read back by linear interpolation
inside the owning bucket — accurate to the bucket resolution (~9 % with
the default growth factor), which is plenty for p50/p95/p99 tail
reporting while never storing individual samples.

Everything is thread-safe (one lock per registry) so the scheduler's
worker pool can record concurrently, and everything snapshots to plain
dicts / JSON for the CLI report and the CI artifact.
"""

from __future__ import annotations

import json
import math
import threading
from bisect import bisect_left
from typing import Dict, List, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricHandles", "MetricsRegistry"]


class Counter:
    """A monotonically increasing counter."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def snapshot(self) -> int:
        return int(self.value)


class Gauge:
    """A value that goes up and down, tracking its observed maximum."""

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0
        self.max_seen = 0.0

    def set(self, value: float) -> None:
        value = self.value = float(value)
        if value > self.max_seen:
            self.max_seen = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.set(self.value - amount)

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value, "max": self.max_seen}


class Histogram:
    """Streaming log-bucketed histogram for positive values (latencies).

    Buckets span ``[lo, hi]`` with geometrically growing bounds; values
    outside the span clamp into the first/last bucket.  Percentiles
    interpolate within the owning bucket, so accuracy is bounded by the
    growth factor, not the sample count.
    """

    def __init__(
        self,
        name: str,
        help: str = "",
        *,
        lo: float = 1e-7,
        hi: float = 1e3,
        growth: float = 1.2,
    ) -> None:
        if not (0 < lo < hi) or growth <= 1.0:
            raise ValueError("need 0 < lo < hi and growth > 1")
        self.name = name
        self.help = help
        self._bounds: List[float] = []
        b = lo
        while b < hi:
            self._bounds.append(b)
            b *= growth
        self._bounds.append(hi)
        self._counts = [0] * (len(self._bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("histogram values must be finite")
        v = float(value)
        if v <= 0.0:
            v = 0.0  # clamps -0.0 too
        self._counts[bisect_left(self._bounds, v)] += 1  # first bound >= v
        self.count += 1
        self.total += v
        if self.min is None or v < self.min:
            self.min = v
        if self.max is None or v > self.max:
            self.max = v

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """The p-th percentile (``p`` in [0, 100]); 0 when empty."""
        if not (0.0 <= p <= 100.0):
            raise ValueError("percentile must be within [0, 100]")
        if self.count == 0:
            return 0.0
        rank = p / 100.0 * self.count
        seen = 0
        for i, c in enumerate(self._counts):
            if c == 0:
                continue
            if seen + c >= rank:
                lower = self._bounds[i - 1] if i > 0 else 0.0
                upper = self._bounds[min(i, len(self._bounds) - 1)]
                frac = (rank - seen) / c
                value = lower + (upper - lower) * frac
                # Clamp into the actually observed range: interpolation
                # must not report below the true min or above the true max.
                return min(max(value, self.min or 0.0), self.max or value)
            seen += c
        return self.max or 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min or 0.0,
            "max": self.max or 0.0,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


class MetricsRegistry:
    """Named counters/gauges/histograms with dict + JSON export."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str, help: str = "") -> Counter:
        with self._lock:
            if name not in self._counters:
                self._counters[name] = Counter(name, help)
            return self._counters[name]

    def gauge(self, name: str, help: str = "") -> Gauge:
        with self._lock:
            if name not in self._gauges:
                self._gauges[name] = Gauge(name, help)
            return self._gauges[name]

    def histogram(self, name: str, help: str = "", **kwargs) -> Histogram:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = Histogram(name, help, **kwargs)
            return self._histograms[name]

    def snapshot(self) -> Dict[str, object]:
        """One nested plain-dict view of every metric."""
        with self._lock:
            return {
                "counters": {n: c.snapshot() for n, c in self._counters.items()},
                "gauges": {n: g.snapshot() for n, g in self._gauges.items()},
                "histograms": {
                    n: h.snapshot() for n, h in self._histograms.items()
                },
            }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)


class MetricHandles:
    """A registry's metrics, each looked up once: ``handles(kind, name,
    help)`` returns the registry's ``kind`` metric ``name``.

    The registry creates a metric on its first lookup, so binding on
    first use keeps snapshots listing only what some caller touched;
    later calls skip the registry's lock and name lookup.  Handles are
    keyed by name alone: a name belongs to one kind.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._bound: Dict[str, object] = {}

    def __call__(self, kind: str, name: str, help: str = ""):
        handle = self._bound.get(name)
        if handle is None:
            handle = self._bound[name] = getattr(self.registry, kind)(name, help)
        return handle
