"""Bridge from the engine's span instrumentation to the metrics registry.

The engine hot path is already instrumented for tracing: every scheduler
round, SCAN/PULL-EXTEND/VERIFY/JOIN-OUT/REPLAY batch, fetch/intersect stage and
steal/yield/backtrack instant flows through the
:class:`~repro.obs.trace.Tracer` protocol, timestamped on the simulated
clocks, and that path is proven bit-identical to an untraced run.
:class:`MetricsTracer` reuses those exact hook points: it implements the
tracer protocol but **aggregates instead of recording** — span durations
land in log-bucket histograms, batch rows/bytes in size histograms,
fetch hits/misses in counters — so memory stays O(metric families)
instead of O(events), and a metrics-enabled run inherits the tracer
path's bit-identity guarantee (the golden metric grid is asserted
unchanged with this tracer attached).

Pass ``inner=Tracer()`` to record a full span trace *and* metrics in one
run (``--trace`` + ``--metrics``); events are then forwarded after
aggregation.

:func:`record_result` adds the end-of-run aggregates (match count,
simulated T/T_R/T_C/C/M, cache hit rate) that only exist once the run
finishes; :func:`record_census` does the same for the motif-census
workload's subgraph and class counts.
"""

from __future__ import annotations

from typing import Any, Mapping

from .metrics import DEFAULT_SIZE_BUCKETS, MetricsRegistry
from .trace import Tracer

__all__ = ["MetricsTracer", "record_result", "record_census"]

#: operator-batch span names (carry ``in``/``out``/``bytes`` args)
_BATCH_SPANS = frozenset(("SCAN", "JOIN-OUT", "REPLAY", "PULL-EXTEND",
                          "VERIFY"))


class MetricsTracer(Tracer):
    """A tracer that feeds a :class:`MetricsRegistry` instead of a trace.

    Attach with ``engine.run(query, tracer=MetricsTracer(registry))``;
    the same instance can be reused across runs (counters accumulate).
    """

    enabled = True

    def __init__(self, registry: MetricsRegistry,
                 inner: Tracer | None = None):
        super().__init__()
        self.registry = registry
        self.inner = inner
        if inner is not None:
            self.trace = inner.trace

        self._span_seconds = registry.histogram(
            "engine_span_seconds",
            "simulated duration of engine spans by span name",
            ("name",), time_base="sim")
        self._batch_rows = registry.histogram(
            "engine_batch_rows", "rows per operator batch (output side)",
            ("op",), buckets=DEFAULT_SIZE_BUCKETS)
        self._rounds = registry.counter(
            "engine_scheduler_rounds_total",
            "operator scheduling rounds executed (one per machine sweep)")
        self._rounds_child = self._rounds.labels()
        self._cache = registry.counter(
            "engine_cache_requests_total",
            "PULL-EXTEND neighbour fetches by cache outcome", ("result",))
        self._cache_hit = self._cache.labels("hit")
        self._cache_miss = self._cache.labels("miss")
        self._events = registry.counter(
            "engine_events_total",
            "engine instant events (yield/backtrack/steal/evict/...)",
            ("kind",))
        self._bytes = registry.counter(
            "engine_batch_bytes_total",
            "bytes moved by operator batches (simulated wire accounting)")
        self._bytes_child = self._bytes.labels()
        self._tuples = registry.counter(
            "engine_tuples_total", "tuples entering/leaving operator "
            "batches", ("direction",))
        self._tuples_in = self._tuples.labels("in")
        self._tuples_out = self._tuples.labels("out")
        # per-label child handles, resolved once per distinct name
        self._span_children: dict[str, Any] = {}
        self._rows_children: dict[str, Any] = {}
        self._event_children: dict[str, Any] = {}

    # -- tracer protocol -------------------------------------------------------

    def bind(self, metrics) -> None:
        super().bind(metrics)
        if self.inner is not None:
            self.inner.bind(metrics)

    def complete(self, name: str, machine: int, t0: float, t1: float,
                 args: Mapping[str, Any] | None = None) -> None:
        child = self._span_children.get(name)
        if child is None:
            child = self._span_children[name] = \
                self._span_seconds.labels(name)
        self._span_seconds.observe_child(child, t1 - t0)
        if name in _BATCH_SPANS:
            rc = self._rows_children.get(name)
            if rc is None:
                rc = self._rows_children[name] = self._batch_rows.labels(name)
            if args:
                out = args.get("out")
                if out is not None:
                    self._batch_rows.observe_child(rc, out)
                    self._tuples.inc_child(self._tuples_out, out)
                n_in = args.get("in")
                if n_in is not None:
                    self._tuples.inc_child(self._tuples_in, n_in)
                nbytes = args.get("bytes")
                if nbytes:
                    self._bytes.inc_child(self._bytes_child, nbytes)
        elif name == "fetch" and args:
            hits = args.get("hits", 0)
            misses = args.get("misses", 0)
            if hits:
                self._cache.inc_child(self._cache_hit, hits)
            if misses:
                self._cache.inc_child(self._cache_miss, misses)
        elif name == "schedule":
            self._rounds.inc_child(self._rounds_child)
        if self.inner is not None:
            self.inner.complete(name, machine, t0, t1, args)

    def instant(self, name: str, machine: int,
                args: Mapping[str, Any] | None = None) -> None:
        child = self._event_children.get(name)
        if child is None:
            child = self._event_children[name] = self._events.labels(name)
        self._events.inc_child(child)
        if self.inner is not None:
            self.inner.instant(name, machine, args)

    def counter(self, name: str, machine: int,
                values: Mapping[str, float]) -> None:
        # sampled sim counters (queue depths, worker ops) stay trace-only:
        # they are per-machine time series, not aggregates
        if self.inner is not None:
            self.inner.counter(name, machine, values)

    def declare_operator(self, opid: str, kind: str,
                         schema: tuple[int, ...], **extra: Any) -> None:
        if self.inner is not None:
            self.inner.declare_operator(opid, kind, schema, **extra)
        else:
            super().declare_operator(opid, kind, schema, **extra)


def record_result(registry: MetricsRegistry, result) -> None:
    """Record an :class:`~repro.core.engine.EnumerationResult`'s
    end-of-run aggregates into ``registry``."""
    report = result.report
    registry.counter("engine_runs_total", "completed engine runs").inc()
    registry.counter("engine_matches_total",
                     "symmetry-broken matches enumerated").inc(result.count)
    sim = registry.counter(
        "engine_sim_seconds_total",
        "simulated time accumulated across runs", ("component",),
        time_base="sim")
    sim.inc_child(sim.labels("total"), report.total_time_s)
    sim.inc_child(sim.labels("compute"), report.compute_time_s)
    sim.inc_child(sim.labels("comm"), report.comm_time_s)
    registry.counter("engine_bytes_transferred_total",
                     "simulated bytes shipped between machines").inc(
        report.bytes_transferred)
    registry.counter("engine_messages_total",
                     "simulated inter-machine messages").inc(report.messages)
    registry.gauge("engine_last_cache_hit_rate",
                   "fetch-stage cache hit rate of the last run").set(
        result.cache_hit_rate)
    registry.gauge("engine_last_peak_memory_bytes",
                   "peak simulated machine memory of the last run").set(
        report.peak_memory_bytes)


def record_census(registry: MetricsRegistry, census) -> None:
    """Record a :class:`~repro.apps.mining.CensusResult`'s counters."""
    registry.counter("census_runs_total", "completed census runs").inc()
    registry.counter("census_subgraphs_total",
                     "connected k-subgraphs counted").inc(
        census.total_subgraphs)
    registry.gauge("census_classes",
                   "isomorphism classes in the last census").set(
        len(census.counts))
