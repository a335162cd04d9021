"""Observability: tracing, metrics, and per-query flight recording.

:mod:`repro.obs.trace` records span/instant/counter events against the
simulated clock and exports Chrome ``trace_event`` JSON (Perfetto);
:mod:`repro.obs.analyze` runs a query under tracing and annotates the
plan with actuals next to the optimiser's estimates (``explain
--analyze``); :mod:`repro.obs.metrics` is the labelled
Counter/Gauge/Histogram registry with Prometheus text exposition and
JSON snapshots; :mod:`repro.obs.bridge` aggregates the engine's span
stream into that registry; :mod:`repro.obs.flight` is the serving tier's
bounded per-query flight recorder with slow-query log and dump-on-crash.
"""

from .bridge import MetricsTracer, record_census, record_result
from .flight import FlightEvent, FlightRecorder, QueryFlight
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
    "FlightEvent",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "InstantEvent",
    "MetricsRegistry",
    "MetricsTracer",
    "NullTracer",
    "OperatorStats",
    "QueryFlight",
    "SpanEvent",
    "Trace",
    "Tracer",
    "check_exposition",
    "check_span_nesting",
    "log_buckets",
    "record_census",
    "record_result",
]
