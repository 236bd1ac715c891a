"""The per-layer catalog: which entry points are wrapped, what they yield.

Each layer is named after its ``src/repro`` module.  :func:`probes`
lists the wrapped entry points; :data:`PER_LAYER` lists every per-layer
metric with its unit; :func:`layer_metrics` derives them from the spans
of the traced replays, the program's own counters and the modeled
results.

Conventions: ``*_per_op`` is self time divided by benchmark ops (one
request, or one (case, method) run), so the per-op self times of all
layers plus the unattributed share add up to the traced wall time per
op.  Counts are per replay.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.baselines import PAPER_LINEUP, registry
from repro.matrices import generators

from .judge import Verdict
from .spans import Probe, SpanRecorder

__all__ = ["PER_LAYER", "ROOT", "layer_metrics", "probes"]

#: Span name of the benchmark's own timed call; its self time is the
#: part of the replay no wrapped layer accounts for.
ROOT = "bench.replay"


def _hit_or_cold(args, kwargs, res) -> int:
    return 1 if res.decisions.get("plan_cache") == "hit" else 2


def _shed(args, kwargs, res) -> int:
    return res is not None


def _degraded(args, kwargs, res) -> int:
    return res.mode != "full"


def _nbytes(args, kwargs, res) -> int:
    return len(res)


def _products(args, kwargs, res) -> int:
    a, b = (list(args) + [kwargs.get("a"), kwargs.get("b")])[:2]
    return int(np.diff(b.indptr)[a.indices].sum())


def probes() -> List[Probe]:
    """Every wrapped entry point, by layer."""
    out = [
        Probe("serve.scheduler", "repro.serve.scheduler:ServeScheduler.run"),
        Probe("serve.service", "repro.serve.service:SpGEMMService.multiply",
              op=True, annotate=_hit_or_cold),
        Probe("serve.plan_cache", "repro.serve.plan_cache:PlanCache.get_or_create"),
        Probe("serve.plan_cache", "repro.serve.plan_cache:PlanCache.note_populated"),
        Probe("serve.plan_cache", "repro.serve.plan_cache:PlanCache.stats"),
        Probe("serve.plan_cache", "repro.serve.plan_cache:PlanCache.adopt"),
        Probe("serve.metrics", "repro.serve.metrics:Histogram.observe"),
        Probe("serve.metrics", "repro.serve.metrics:MetricsRegistry.snapshot"),
        Probe("serve.admission", "repro.serve.admission:AdmissionController.admit",
              annotate=_shed),
        Probe("serve.admission",
              "repro.serve.admission:AdmissionController.brownout_mode",
              annotate=_degraded),
        Probe("serve.plan_ir", "repro.serve.plan_ir:encode_plan", annotate=_nbytes),
        Probe("serve.plan_store", "repro.serve.plan_store:PlanStore.put"),
        Probe("serve.plan_store", "repro.serve.plan_store:PlanStore.warm"),
        Probe("estimate", "repro.estimate.planner:RowEstimator.estimate"),
        Probe("estimate", "repro.estimate.sampler:estimate_multiply"),
        Probe("core.speck", "repro.core.speck:SpeckEngine.multiply"),
        Probe("core.analysis", "repro.core.analysis:analyze"),
        Probe("core.passes", "repro.core.passes:run_pass"),
        Probe("kernels.reference", "repro.kernels.reference:esc_multiply",
              annotate=_products),
        Probe("gpu.schedule", "repro.gpu.schedule:kernel_time_s"),
        Probe("matrices.csr", "repro.matrices.csr:CSR.fingerprint"),
        Probe("matrices.csr", "repro.matrices.csr:CSR.fingerprint_values"),
        Probe("cluster.router", "repro.cluster.router:ClusterRouter.place"),
        Probe("cluster.plan_index", "repro.cluster.plan_index:PlanIndex.fetch"),
        Probe("cluster.autoscaler", "repro.cluster.autoscaler:Autoscaler.evaluate"),
        Probe("cluster.autoscaler", "repro.cluster.autoscaler:Autoscaler.hydrate"),
        Probe("cluster.autoscaler", "repro.cluster.autoscaler:Autoscaler.replicate_hot"),
        Probe("cluster.loop", "repro.cluster.bench:_run_fleet"),
        Probe("eval.harness", "repro.eval.harness:run_suite"),
        Probe("eval.harness", "repro.eval.harness:evaluate_case"),
    ]
    reg = registry()
    for method in PAPER_LINEUP:
        cls = reg[method]
        out.append(Probe(f"baselines.{method}",
                         f"{cls.__module__}:{cls.__qualname__}.run", op=True))
    for fn_name in generators.__all__:
        out.append(Probe("matrices.generators", f"repro.matrices.generators:{fn_name}"))
    return out


_US = ("serve.scheduler", "serve.service", "serve.plan_cache", "serve.metrics",
       "serve.admission", "serve.plan_store", "estimate", "core.speck",
       "core.analysis", "core.passes", "gpu.schedule", "cluster.router",
       "cluster.plan_index", "cluster.autoscaler", "cluster.loop")
_MS = ("kernels.reference", "eval.harness") + tuple(
    f"baselines.{m}" for m in PAPER_LINEUP
)
_STAGE_GROUPS = {
    "analysis": ("analysis", "estimate", "fallback"),
    "symbolic": ("symbolic",),
    "numeric": ("numeric", "sorting"),
    "load_balancing": ("symbolic_lb", "numeric_lb"),
}

#: Every per-layer metric, with its unit, in print order.
PER_LAYER: List[tuple] = (
    [(f"{layer}.self_us_per_op", "us") for layer in _US]
    + [(f"{layer}.self_ms_per_op", "ms") for layer in _MS]
    + [
        ("serve.scheduler.queue_wait_p99_ms", "ms"),
        ("serve.service.calls", "count"),
        ("serve.service.hit_us_p50", "us"),
        ("serve.service.hit_us_p99", "us"),
        ("serve.service.cold_ms_p50", "ms"),
        ("serve.service.cold_ms_p99", "ms"),
        ("serve.plan_cache.hit_rate", "ratio"),
        ("serve.plan_cache.inserts", "count"),
        ("serve.plan_cache.evictions", "count"),
        ("serve.metrics.calls", "count"),
        ("serve.admission.shed", "count"),
        ("serve.admission.brownout_dispatches", "count"),
        ("serve.plan_store.calls", "count"),
        ("serve.plan_ir.bytes_encoded", "bytes"),
        ("estimate.fallback_share", "ratio"),
        ("kernels.reference.calls", "count"),
        ("kernels.reference.products", "count"),
        ("gpu.schedule.calls", "count"),
        ("matrices.csr.fingerprint_us_per_op", "us"),
        ("matrices.generators.setup_s", "s"),
        ("cluster.spill_share", "ratio"),
        ("cluster.plan_fetches", "count"),
        ("cluster.scale_events", "count"),
    ]
    + [(f"core.model_share.{g}", "ratio") for g in _STAGE_GROUPS]
    + [("trace.overhead", "ratio"), ("trace.unattributed_share", "ratio")]
)


def _pct(values: Sequence[float], q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(
    rec: SpanRecorder,
    layer_of: Dict[int, str],
    *,
    ops: int,
    replays: int,
    counts: Dict[str, float],
    verdict: Verdict,
    setup_spans: int,
    overhead: float,
) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from one traced run.

    The first ``setup_spans`` spans of ``rec`` are one traced set-up;
    the rest are ``replays`` traced replays of ``ops`` ops in total.
    ``counts`` and ``verdict`` describe one replay.
    """
    all_names = np.array(rec.name, dtype=np.int64)
    all_self = rec.self_ns()
    names = all_names[setup_spans:]
    self_ns = all_self[setup_spans:]
    dur = rec.durations_ns()[setup_spans:]
    value = np.array(rec.value, dtype=np.int64)[setup_spans:]

    def in_layer(layer: str) -> np.ndarray:
        return np.isin(names, _ids(layer_of, layer))

    def named(suffix: str) -> np.ndarray:
        return np.isin(names, [i for i, t in enumerate(rec.names) if t.endswith(suffix)])

    per_op = 1.0 / max(ops, 1)
    per_replay = 1.0 / max(replays, 1)
    m: Dict[str, float] = {}
    for layer in _US:
        m[f"{layer}.self_us_per_op"] = self_ns[in_layer(layer)].sum() * per_op / 1e3
    for layer in _MS:
        m[f"{layer}.self_ms_per_op"] = self_ns[in_layer(layer)].sum() * per_op / 1e6

    service = in_layer("serve.service")
    hit_us = dur[service & (value == 1)] / 1e3
    cold_ms = dur[service & (value == 2)] / 1e6
    admit = named("AdmissionController.admit")
    brownout = named("AdmissionController.brownout_mode")
    hits, misses = counts.get("plan_cache.hits", 0), counts.get("plan_cache.misses", 0)
    spec_cold = counts.get("estimate.speculative_cold", 0)
    root = named(ROOT)
    root_ns = dur[root].sum()
    m.update({
        "serve.scheduler.queue_wait_p99_ms": _pct(verdict.wait_s, 99) * 1e3,
        "serve.service.calls": service.sum() * per_replay,
        "serve.service.hit_us_p50": _pct(hit_us, 50),
        "serve.service.hit_us_p99": _pct(hit_us, 99),
        "serve.service.cold_ms_p50": _pct(cold_ms, 50),
        "serve.service.cold_ms_p99": _pct(cold_ms, 99),
        "serve.plan_cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.plan_cache.inserts": counts.get("plan_cache.inserts", 0),
        "serve.plan_cache.evictions": counts.get("plan_cache.evictions", 0),
        "serve.metrics.calls": in_layer("serve.metrics").sum() * per_replay,
        "serve.admission.shed": (admit & (value == 1)).sum() * per_replay,
        "serve.admission.brownout_dispatches": (brownout & (value == 1)).sum() * per_replay,
        "serve.plan_store.calls": in_layer("serve.plan_store").sum() * per_replay,
        "serve.plan_ir.bytes_encoded": value[in_layer("serve.plan_ir")].sum() * per_replay,
        "estimate.fallback_share": (
            counts.get("estimate.fallbacks", 0) / spec_cold if spec_cold else 0.0
        ),
        "kernels.reference.calls": in_layer("kernels.reference").sum() * per_replay,
        "kernels.reference.products": value[in_layer("kernels.reference")].sum() * per_replay,
        "gpu.schedule.calls": in_layer("gpu.schedule").sum() * per_replay,
        "matrices.csr.fingerprint_us_per_op": self_ns[in_layer("matrices.csr")].sum() * per_op / 1e3,
        "matrices.generators.setup_s": all_self[:setup_spans][
            np.isin(all_names[:setup_spans], _ids(layer_of, "matrices.generators"))
        ].sum() / 1e9,
        "cluster.spill_share": counts.get("cluster.spill_share", 0.0),
        "cluster.plan_fetches": counts.get("cluster.plan_fetches", 0),
        "cluster.scale_events": counts.get("cluster.scale_events", 0),
        "trace.overhead": overhead,
        "trace.unattributed_share": self_ns[root].sum() / root_ns if root_ns else 0.0,
    })
    stage_total = sum(
        verdict.stage_s.get(s, 0.0) for group in _STAGE_GROUPS.values() for s in group
    )
    for group, stages in _STAGE_GROUPS.items():
        part = sum(verdict.stage_s.get(s, 0.0) for s in stages)
        m[f"core.model_share.{group}"] = part / stage_total if stage_total else 0.0
    return {name: float(m[name]) for name, _ in PER_LAYER}



def _ids(layer_of: Dict[int, str], layer: str) -> List[int]:
    return [nid for nid, name in layer_of.items() if name == layer]
