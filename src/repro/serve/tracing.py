"""Per-request tracing for the serving tier, on the wall clock.

Reuses the :mod:`repro.obs.trace` span model and Chrome ``trace_event``
export, but with a different timeline: engine traces run on the
*simulated* cluster clock, while service traces run on the *real* clock
(``time.perf_counter`` relative to service start).  Tracks map workers
to "machines" (processes in Perfetto) and the :data:`ENGINE`
pseudo-machine to a service-global track, so a traced workload shows,
per request: the queue-wait span on the service track, then plan-cache
lookup / execute / stream spans on the worker that ran it, with crash,
retry, cancel and deadline instants in between; a subscription shows as
its ``subscribed`` / ``delta batch`` / ``unsubscribed`` instants.

The tracer is a sink on the service's event stream
(:mod:`repro.serve.events`): spans come from the service-clock times the
events carry, instants and counters are stamped on receipt.  All
recording methods are lock-guarded — unlike the engine tracer, many
worker threads append concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Mapping

from ..obs.trace import ENGINE, CounterEvent, InstantEvent, SpanEvent, Trace

__all__ = ["ENGINE", "ServiceTracer", "TRACE_MAX_EVENTS"]

#: events a service trace retains: a long workload must not grow the
#: ring without limit (the oldest events drop, counted)
TRACE_MAX_EVENTS = 500_000


#: event kind -> (span name prefix, argument fields): a span from the
#: event's ``t0`` to ``t1`` on its ``worker`` track (``ENGINE`` if none),
#: named after its request's ``label``
_SPANS = {
    "dispatched": ("queue", ("priority", "tenant", "attempt")),
    "planned": ("plan", ("cache_hit", "key")),
    "executed": ("execute", ("count", "sim_time_s", "attempt")),
    "streamed": ("stream", ("chunks",)),
    # an engine run that was cancelled or failed (``finished`` with times)
    "finished": ("execute", ("status", "error")),
}
#: event kind -> (instant name, argument fields), plus the event's
#: ``seq`` when it has one
_INSTANTS = {
    "rejected": ("admission reject", ("label", "estimate_bytes")),
    "crash": ("worker crash", ("label", "attempt")),
    "retry_scheduled": ("retry scheduled",
                        ("label", "backoff_s", "next_attempt")),
    "graph_update": ("graph update", ("dataset", "version", "inserted",
                                      "deleted", "subscriptions")),
    "subscribed": ("subscribed", ("pattern", "dataset")),
    "delta_batch": ("delta batch", ("version", "inserted", "deleted",
                                    "additions", "retractions", "latency_s",
                                    "error")),
    "unsubscribed": ("unsubscribed", ("batches", "count")),
}


class ServiceTracer:
    """Wall-clock span recorder shared by the service's threads.

    ``gauges`` (optional) samples the live service state —
    ``{"depths": ..., "reserved_bytes": ...}`` — for the queue-depth and
    reserved-MB counter tracks.
    """

    enabled = True

    def __init__(self, num_workers: int,
                 gauges: Callable[[], dict] | None = None):
        self.trace = Trace(num_machines=num_workers,
                           max_events=TRACE_MAX_EVENTS)
        # the service's clock, so event times map straight onto the timeline
        self._t0 = time.monotonic()
        self._lock = threading.Lock()
        self._gauges = gauges

    def now(self) -> float:
        """Seconds since service start."""
        return time.monotonic() - self._t0

    def __call__(self, kind: str, seq: int | None, f: dict) -> None:
        """Event-stream sink (tables above)."""
        if kind in _SPANS and "t0" in f:
            prefix, keys = _SPANS[kind]
            self.span(f"{prefix} {f['label']}",
                      f.get("worker", ENGINE), f["t0"] - self._t0,
                      f["t1"] - self._t0, {k: f[k] for k in keys if k in f})
        elif kind in _INSTANTS:
            # the seq ties one subscription's (or request's) instants
            # together on the shared service track
            name, keys = _INSTANTS[kind]
            args = {k: f[k] for k in keys}
            if seq is not None:
                args["seq"] = seq
            self.instant(name, ENGINE, args)
        elif (kind == "finished" and f["status"] == "cancelled"
              and "worker" not in f):  # swept off the queue
            self.instant("cancel", ENGINE,
                         {"label": f["label"], "reason": f["error"]})
        if self._gauges is not None and kind in ("queued", "dispatched"):
            g = self._gauges()
            self.counter("queue depth", ENGINE, g["depths"])
            if kind == "dispatched":
                self.counter("reserved MB", ENGINE,
                             {"reserved": g["reserved_bytes"] / 1e6})

    def span(self, name: str, track: int, t0: float, t1: float,
             args: Mapping[str, Any] | None = None) -> None:
        """Record a completed wall-clock span on a worker (or ENGINE) track."""
        with self._lock:
            self.trace.add_span(SpanEvent(name, track, t0, t1, args))

    def instant(self, name: str, track: int,
                args: Mapping[str, Any] | None = None) -> None:
        with self._lock:
            self.trace.add_instant(InstantEvent(name, track, self.now(), args))

    def counter(self, name: str, track: int,
                values: Mapping[str, float]) -> None:
        with self._lock:
            self.trace.add_counter(
                CounterEvent(name, track, self.now(), dict(values)))

    def save(self, path: str, meta: Mapping[str, Any] | None = None) -> None:
        """Write the Chrome trace_event JSON (Perfetto-loadable)."""
        if meta:
            self.trace.meta.update(meta)
        self.trace.meta.setdefault("clock", "wall (service-relative)")
        self.trace.save(path)
