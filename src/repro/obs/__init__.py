"""repro.obs: the unified observability layer.

One registry for typed instruments and export-time collectors
(:mod:`repro.obs.registry`), batch-level tracing with deterministic
trace ids across executors (:mod:`repro.obs.tracing`), the per-run
:class:`Observer` / worker-side :class:`WorkerObs` pair threaded
through every dataplane (:mod:`repro.obs.observer`), Prometheus text
render/parse (:mod:`repro.obs.prometheus`), and the EXPLAIN-ANALYZE
profile renderer (:mod:`repro.obs.profile`).

Controlled by ``ExecutionOptions(observe=...)``: ``'off'`` (default;
no observer exists and hot paths keep their exact prior shape),
``'metrics'`` (histograms + counters + gauges), ``'trace'`` (metrics
plus span records per micro-batch hop).
"""

from repro.core.options import OBSERVE_LEVELS
from repro.obs.observer import Observer, WorkerObs
from repro.obs.profile import profile_report
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.tracing import FanIn, SpanContext, TraceBuffer, make_span

__all__ = [
    "OBSERVE_LEVELS",
    "Observer",
    "WorkerObs",
    "profile_report",
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FanIn",
    "SpanContext",
    "TraceBuffer",
    "make_span",
]
