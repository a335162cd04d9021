"""Observability: span tracing and the metrics registry.

:mod:`repro.obs.trace` records span/instant/counter events against the
simulated clock and exports Chrome ``trace_event`` JSON (Perfetto);
:mod:`repro.obs.analyze` runs a query under tracing and annotates the
plan with actuals next to the optimiser's estimates (``explain
--analyze``); :mod:`repro.obs.metrics` is the labelled
Counter/Gauge/Histogram registry with Prometheus text exposition and
JSON snapshots — the serving tier's statistics are counted in one.  An
engine run's record is its :class:`~repro.cluster.metrics.RunReport`
plus, when traced, its span trace; a service's is its event stream
(:mod:`repro.serve.events`).
"""

from .metrics import (DEFAULT_SIZE_BUCKETS, DEFAULT_TIME_BUCKETS, Counter,
                      Gauge, Histogram, MetricsRegistry, check_exposition,
                      log_buckets)
from .trace import (ENGINE, NULL_TRACER, CounterEvent, InstantEvent,
                    NullTracer, OperatorStats, SpanEvent, Trace, Tracer,
                    check_span_nesting)

__all__ = [
    "ENGINE",
    "NULL_TRACER",
    "DEFAULT_SIZE_BUCKETS",
    "DEFAULT_TIME_BUCKETS",
    "Counter",
    "CounterEvent",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "NullTracer",
    "OperatorStats",
    "SpanEvent",
    "Trace",
    "Tracer",
    "check_exposition",
    "check_span_nesting",
    "log_buckets",
]
