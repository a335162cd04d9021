"""Span-based structured tracing over the simulated clock.

The engine reports only end-of-run aggregates (``RunReport``'s
T/T_R/T_C/C/M).  This module records *where* that time goes: every
scheduler round, operator batch, PULL-EXTEND fetch/intersect stage, RPC
service, shuffle ingestion and steal transfer becomes a **span** — an
interval on one machine's simulated timeline — plus instant events
(yield/backtrack/steal/evict) and counter samples (queue depths, cache
occupancy, per-worker busy ops).

Timestamps come from the metrics ledger: a machine's clock is
:meth:`~repro.cluster.metrics.Metrics.machine_time`, which only ever moves
forward as work is charged.  Tracing therefore never *charges* anything —
it reads the clock — so a traced run is bit-identical to an untraced one
(a regression test asserts this).

The default tracer is :data:`NULL_TRACER`, whose every method is a no-op
and whose ``enabled`` flag lets hot paths skip building argument dicts
entirely; tracing costs nothing unless a real :class:`Tracer` is passed to
``HugeEngine.run``.

Export targets the Chrome ``trace_event`` JSON format (``traceEvents``
with ``X``/``i``/``C`` phases), loadable directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``: machines map to
processes, spans to complete events on the machine's track.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Mapping

__all__ = ["ENGINE", "SpanEvent", "InstantEvent", "CounterEvent",
           "OperatorStats", "Trace", "Tracer", "NullTracer", "NULL_TRACER",
           "check_span_nesting"]

#: pseudo-machine index used for engine-global (cluster-wide) events
ENGINE = -1


@dataclass
class SpanEvent:
    """One completed span: an interval on ``machine``'s simulated clock."""

    name: str
    machine: int
    t0: float
    t1: float
    args: Mapping[str, Any] | None = None

    @property
    def duration_s(self) -> float:
        """Span length in simulated seconds."""
        return self.t1 - self.t0

    def arg(self, key: str, default: Any = None) -> Any:
        """Convenience accessor into ``args``."""
        return self.args.get(key, default) if self.args else default


@dataclass
class InstantEvent:
    """A point event on ``machine``'s simulated clock."""

    name: str
    machine: int
    ts: float
    args: Mapping[str, Any] | None = None


@dataclass
class CounterEvent:
    """A sampled counter value (queue depth, cache occupancy, ...)."""

    name: str
    machine: int
    ts: float
    values: Mapping[str, float] = field(default_factory=dict)


class Trace:
    """The recorded events of one engine run, plus aggregation helpers.

    ``max_events`` bounds total retained events: once exceeded, the
    **oldest event (in append order) is dropped first**, deterministically,
    and counted in :attr:`dropped_events` (exported in ``to_chrome``
    metadata).  Long serving runs pass a cap so ``--trace`` memory cannot
    grow without limit; engine runs default to unbounded.
    """

    def __init__(self, num_machines: int = 0,
                 max_events: int | None = None):
        if max_events is not None and max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.num_machines = num_machines
        self.max_events = max_events
        self.dropped_events = 0
        self.spans: deque[SpanEvent] = deque()
        self.instants: deque[InstantEvent] = deque()
        self.counters: deque[CounterEvent] = deque()
        #: append order of events (0=span, 1=instant, 2=counter) so the
        #: cap drops strictly oldest-first across the three streams
        self._order: deque[int] = deque()
        #: operator declarations: opid -> {"kind", "schema", ...}
        self.operators: dict[str, dict[str, Any]] = {}
        self.meta: dict[str, Any] = {}

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    # -- recording -------------------------------------------------------------

    def _enforce_cap(self) -> None:
        if self.max_events is None:
            return
        while len(self._order) > self.max_events:
            kind = self._order.popleft()
            (self.spans, self.instants, self.counters)[kind].popleft()
            self.dropped_events += 1

    def add_span(self, span: SpanEvent) -> None:
        self.spans.append(span)
        self._order.append(0)
        self._enforce_cap()

    def add_instant(self, instant: InstantEvent) -> None:
        self.instants.append(instant)
        self._order.append(1)
        self._enforce_cap()

    def add_counter(self, counter: CounterEvent) -> None:
        self.counters.append(counter)
        self._order.append(2)
        self._enforce_cap()

    # -- aggregation -----------------------------------------------------------

    def machine_spans(self, machine: int) -> list[SpanEvent]:
        """All spans on one machine's timeline."""
        return [s for s in self.spans if s.machine == machine]

    def covered_time(self, machine: int) -> float:
        """Length of the union of all span intervals on ``machine``."""
        intervals = sorted((s.t0, s.t1) for s in self.machine_spans(machine))
        covered = 0.0
        end = float("-inf")
        for t0, t1 in intervals:
            if t0 > end:
                covered += t1 - t0
                end = t1
            elif t1 > end:
                covered += t1 - end
                end = t1
        return covered

    def coverage(self, total_time_s: float,
                 per_machine_time_s: tuple[float, ...] | None = None) -> float:
        """Fraction of the run's total time covered by spans.

        Total time is the slowest machine's clock, so coverage is measured
        on the critical-path machine (the one defining ``total_time_s``).
        """
        if total_time_s <= 0:
            return 1.0
        if per_machine_time_s:
            critical = max(range(len(per_machine_time_s)),
                           key=per_machine_time_s.__getitem__)
        else:
            critical = max(range(max(1, self.num_machines)),
                           key=self.covered_time)
        return min(1.0, self.covered_time(critical) / total_time_s)

    def per_operator(self) -> "dict[str, OperatorStats]":
        """Aggregate spans into per-operator totals (keyed by opid)."""
        stats: dict[str, OperatorStats] = {}
        for opid, decl in self.operators.items():
            stats[opid] = OperatorStats(opid=opid,
                                        kind=str(decl.get("kind", "")),
                                        schema=tuple(decl.get("schema", ())))
        for s in self.spans:
            opid = s.arg("op")
            if opid is None:
                continue
            st = stats.get(opid)
            if st is None:
                st = stats[opid] = OperatorStats(opid=opid, kind="", schema=())
            if s.name == "fetch":
                st.fetch_time_s += s.duration_s
                st.cache_hits += int(s.arg("hits", 0))
                st.cache_misses += int(s.arg("misses", 0))
            elif s.name == "intersect":
                st.intersect_time_s += s.duration_s
            elif s.name == "schedule":
                st.schedule_time_s += s.duration_s
            elif s.name == "build":
                st.build_time_s += s.duration_s
            elif s.name == "probe":
                st.probe_time_s += s.duration_s
            else:
                st.time_s += s.duration_s
                st.batches += 1
                st.tuples_in += int(s.arg("in", 0))
                st.tuples_out += int(s.arg("out", 0))
                st.bytes += int(s.arg("bytes", 0))
        return stats

    def per_machine(self) -> list[float]:
        """Covered span time per machine (busy-time series)."""
        return [self.covered_time(m) for m in range(self.num_machines)]

    # -- export ----------------------------------------------------------------

    def to_chrome(self) -> dict[str, Any]:
        """The Chrome ``trace_event`` representation (Perfetto-loadable).

        Machines become processes; the engine-global pseudo-machine gets
        its own process after the real ones.  Timestamps are microseconds
        of simulated time.
        """
        k = self.num_machines
        engine_pid = k

        def pid(machine: int) -> int:
            return engine_pid if machine == ENGINE else machine

        events: list[dict[str, Any]] = []
        for m in range(k):
            events.append({"ph": "M", "name": "process_name", "pid": m,
                           "tid": 0, "args": {"name": f"machine {m}"}})
        events.append({"ph": "M", "name": "process_name", "pid": engine_pid,
                       "tid": 0, "args": {"name": "engine"}})
        for s in self.spans:
            ev: dict[str, Any] = {
                "ph": "X", "name": s.name, "pid": pid(s.machine), "tid": 0,
                "ts": s.t0 * 1e6, "dur": (s.t1 - s.t0) * 1e6,
            }
            if s.args:
                ev["args"] = dict(s.args)
            events.append(ev)
        for i in self.instants:
            ev = {"ph": "i", "name": i.name, "pid": pid(i.machine), "tid": 0,
                  "ts": i.ts * 1e6, "s": "t"}
            if i.args:
                ev["args"] = dict(i.args)
            events.append(ev)
        for c in self.counters:
            events.append({"ph": "C", "name": c.name, "pid": pid(c.machine),
                           "tid": 0, "ts": c.ts * 1e6,
                           "args": dict(c.values)})
        other = dict(self.meta)
        other["operators"] = self.operators
        other["dropped_events"] = self.dropped_events
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": other}

    def save(self, path: str) -> None:
        """Write the Chrome trace_event JSON to ``path``."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_chrome(), fh)
            fh.write("\n")


@dataclass
class OperatorStats:
    """Aggregated actuals for one dataflow operator."""

    opid: str
    kind: str
    schema: tuple[int, ...]
    time_s: float = 0.0
    fetch_time_s: float = 0.0
    intersect_time_s: float = 0.0
    schedule_time_s: float = 0.0
    build_time_s: float = 0.0
    probe_time_s: float = 0.0
    batches: int = 0
    tuples_in: int = 0
    tuples_out: int = 0
    bytes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    @property
    def cache_hit_rate(self) -> float:
        """Fetch-stage hit rate of this operator (0 when it never fetched)."""
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0


class Tracer:
    """Records spans/instants/counters against the simulated clock.

    Bind it to a run's :class:`~repro.cluster.metrics.Metrics` (the engine
    does this) and pass it to ``HugeEngine.run(tracer=...)``.
    """

    enabled = True

    def __init__(self, max_events: int | None = None) -> None:
        self.trace = Trace(max_events=max_events)
        self._metrics = None

    def bind(self, metrics) -> None:
        """Attach to the metrics ledger whose clocks timestamp events."""
        self._metrics = metrics
        self.trace.num_machines = metrics.num_machines

    # -- clock -----------------------------------------------------------------

    def now(self, machine: int) -> float:
        """Current simulated time on ``machine`` (cluster elapsed time for
        the engine-global pseudo-machine)."""
        if machine == ENGINE:
            return self._metrics.elapsed()
        return float(self._metrics.machine_time(machine))

    def now_all(self) -> list[float]:
        """Snapshot of every machine's clock."""
        return self._metrics.machine_time().tolist()

    # -- recording -------------------------------------------------------------

    def complete(self, name: str, machine: int, t0: float, t1: float,
                 args: Mapping[str, Any] | None = None) -> None:
        """Record a completed span with explicit bounds."""
        self.trace.add_span(SpanEvent(name, machine, t0, t1, args))

    def instant(self, name: str, machine: int,
                args: Mapping[str, Any] | None = None) -> None:
        """Record a point event at the machine's current time."""
        self.trace.add_instant(
            InstantEvent(name, machine, self.now(machine), args))

    def counter(self, name: str, machine: int,
                values: Mapping[str, float]) -> None:
        """Record a counter sample at the machine's current time."""
        self.trace.add_counter(
            CounterEvent(name, machine, self.now(machine), dict(values)))

    def declare_operator(self, opid: str, kind: str,
                         schema: tuple[int, ...],
                         **extra: Any) -> None:
        """Register a dataflow operator so aggregations can report it even
        if it never processes a batch."""
        self.trace.operators[opid] = {"kind": kind, "schema": list(schema),
                                      **extra}


class NullTracer:
    """The default no-op tracer: every method returns immediately.

    ``enabled`` is ``False`` so instrumented code can skip building
    argument dicts; the engine's hot path stays allocation-free.  The
    clock snapshot ``now_all`` is asked only of an enabled tracer, so
    this one has none.
    """

    enabled = False
    trace = None

    def bind(self, metrics) -> None:  # noqa: D102 - no-op protocol
        pass

    def now(self, machine: int) -> float:
        return 0.0

    def complete(self, name, machine, t0, t1, args=None) -> None:
        pass

    def instant(self, name, machine, args=None) -> None:
        pass

    def counter(self, name, machine, values) -> None:
        pass

    def declare_operator(self, opid, kind, schema, **extra) -> None:
        pass


#: shared no-op tracer instance (stateless, safe to reuse everywhere)
NULL_TRACER = NullTracer()


def check_span_nesting(trace: Trace) -> list[str]:
    """Verify spans strictly nest per machine timeline.

    Two spans on the same machine must be disjoint or one must contain the
    other (sharing endpoints is allowed).  Returns human-readable
    violation descriptions (empty = well-nested).
    """
    violations: list[str] = []
    by_machine: dict[int, list[SpanEvent]] = {}
    for s in trace.spans:
        by_machine.setdefault(s.machine, []).append(s)
    for machine, spans in by_machine.items():
        ordered = sorted(spans, key=lambda s: (s.t0, -s.t1))
        stack: list[SpanEvent] = []
        for s in ordered:
            while stack and stack[-1].t1 <= s.t0:
                stack.pop()
            if stack and s.t1 > stack[-1].t1:
                p = stack[-1]
                violations.append(
                    f"machine {machine}: span {s.name!r} "
                    f"[{s.t0:.9f}, {s.t1:.9f}] partially overlaps "
                    f"{p.name!r} [{p.t0:.9f}, {p.t1:.9f}]")
                continue
            stack.append(s)
    return violations
