"""Observability: span tracing and the metrics registry.

:mod:`repro.obs.trace` records span/instant/counter events against the
simulated clock and exports Chrome ``trace_event`` JSON (Perfetto);
:mod:`repro.obs.analyze` runs a query under tracing and annotates the
plan with actuals next to the optimiser's estimates (``explain
--analyze``); :mod:`repro.obs.metrics` is the labelled
Counter/Gauge/Histogram registry with a JSON snapshot — the serving
tier's statistics are counted in one and ``stats()`` reads it.  An
engine run's record is its :class:`~repro.cluster.metrics.RunReport`
plus, when traced, its span trace; a service's is its event stream
(:mod:`repro.serve.events`).
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import (ENGINE, NULL_TRACER, CounterEvent, InstantEvent,
                    NullTracer, OperatorStats, SpanEvent, Trace, Tracer,
                    check_span_nesting)

__all__ = [
    "ENGINE",
    "NULL_TRACER",
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
    "check_span_nesting",
]
