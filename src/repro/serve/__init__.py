"""repro.serve — the SpGEMM serving layer.

A synchronous-core, concurrency-aware service wrapping the spECK engine
for call-many-times workloads: structural plan caching (analysis, binning
and symbolic artifacts reused across requests with the same operand
structure), request scheduling with priorities, same-A batching and
deadlines, admission control with structured load shedding, and service
metrics.  See ``docs/SERVING.md`` for the architecture.
"""

from .admission import (
    BROWNOUT_MODES,
    AdmissionController,
    AdmissionPolicy,
    BrownoutInfo,
    ServiceReject,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .plan_cache import CachedPlan, PlanCache, PlanIntegrityError, plan_key
from .plan_ir import (
    PlanIRError,
    compat_key,
    decode_frame,
    decode_plan,
    decode_record,
    encode_frame,
    encode_plan,
    encode_record,
    plan_checksum,
)
from .plan_store import PlanStore, PlanStoreLoad
from .scheduler import Request, RequestOutcome, ServeScheduler
from .service import SpGEMMService
from .workload import (
    BenchReport,
    WorkloadSpec,
    build_requests,
    run_serve_bench,
    serve_corpus,
)

__all__ = [
    "AdmissionController",
    "AdmissionPolicy",
    "BROWNOUT_MODES",
    "BrownoutInfo",
    "ServiceReject",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "CachedPlan",
    "PlanCache",
    "PlanIntegrityError",
    "plan_key",
    "PlanIRError",
    "compat_key",
    "decode_frame",
    "decode_plan",
    "decode_record",
    "encode_frame",
    "encode_plan",
    "encode_record",
    "plan_checksum",
    "PlanStore",
    "PlanStoreLoad",
    "Request",
    "RequestOutcome",
    "ServeScheduler",
    "SpGEMMService",
    "BenchReport",
    "WorkloadSpec",
    "build_requests",
    "run_serve_bench",
    "serve_corpus",
]
