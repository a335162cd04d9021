"""The serving tier's one event stream.

Every lifecycle transition of a request, subscription or dataset is
announced exactly once through :meth:`EventStream.emit`; everything that
observes the service is a *sink* on that stream.
:class:`~repro.serve.instruments.ServiceInstruments` — the registry
whose reads are ``QueryService.stats()`` — is always registered; the
:class:`~repro.serve.tracing.ServiceTracer` and the
:class:`~repro.obs.flight.FlightRecorder` only when configured.  A sink
is any callable ``sink(kind, seq, fields)``; ``seq`` is the request /
subscription id (``None`` for dataset-level events).  DESIGN §6.3
tabulates what each sink records per event.

Members of a multi-member task carry ``leader`` (the task's first
member's seq); a sink that records something once per *task* — a worker
crash, a share group's size, the engine-run span — acts on the event
whose ``seq == leader``.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..obs.flight import FlightRecorder

__all__ = ["EVENT_KINDS", "EventStream", "flight_sink"]

EVENT_KINDS = (
    "submitted", "rejected", "queued", "dispatched",
    "share_group", "executing", "planned", "executed", "streamed",
    "finished", "crash", "retry_scheduled", "graph_update", "subscribed",
    "bootstrapped", "delta_batch", "delivered", "unsubscribed",
)

Sink = Callable[[str, "int | None", dict], None]


class EventStream:
    """Fan ``emit(kind, seq, **fields)`` out to the registered sinks.

    Emission is serialised: sinks see one total order of events, and a
    sink that samples live service state (queue depth, ledger) while
    handling an event can never publish a value older than one a
    concurrent emitter already published.
    """

    def __init__(self) -> None:
        self._sinks: list[Sink] = []
        self._lock = threading.Lock()

    def add(self, sink: Sink) -> None:
        self._sinks.append(sink)

    def emit(self, kind: str, seq: int | None, **fields: Any) -> None:
        with self._lock:
            for sink in self._sinks:
                sink(kind, seq, fields)

    def between(self, read: Callable[[], Any]) -> Any:
        """``read()`` between two emissions, so a read of sink state sees
        one point of the event order (never call it from a sink)."""
        with self._lock:
            return read()


#: event kind -> the fields a flight records for it (when present)
_FLIGHT_FIELDS: dict[str, tuple[str, ...]] = {
    "submitted": ("estimate_bytes", "priority"),
    "rejected": ("reason", "estimate_bytes"),
    "queued": ("priority",),
    "dispatched": ("attempt", "queue_wait_s"),
    "share_group": ("size", "leader"),
    "executing": ("worker", "pid", "backend", "attempt", "share_group"),
    "planned": ("cache_hit", "plan_s"),
    "executed": ("execute_s", "count", "share_group", "sim_time_s"),
    "streamed": ("chunks",),
    "finished": ("count", "attempts", "error", "total_s"),
    "crash": ("worker", "pid", "backend", "attempt"),
    "retry_scheduled": ("backoff_s", "next_attempt"),
    "subscribed": ("pattern", "dataset"),
    "bootstrapped": ("count",),
    "delta_batch": ("version", "worker", "inserted", "deleted", "additions",
                    "retractions", "latency_s", "error"),
    "delivered": ("version", "count"),
    "unsubscribed": ("batches", "count"),
}


def flight_sink(recorder: FlightRecorder) -> Sink:
    """Adapt a :class:`FlightRecorder` to the event stream.

    ``submitted``/``subscribed`` open a flight, ``rejected``/``finished``/
    ``unsubscribed`` close it under the terminal status, ``crash``
    snapshots it; everything else appends one event.  A ``finished``
    after ``rejected`` finds the flight already closed and is a no-op.
    """

    def sink(kind: str, seq: int | None, f: dict) -> None:
        keep = _FLIGHT_FIELDS.get(kind)
        if keep is None:
            return
        data = {k: f[k] for k in keep if k in f}
        if kind == "submitted":
            recorder.begin(seq, f["label"], tenant=f["tenant"],
                           deadline_s=f["deadline_s"], **data)
        elif kind == "subscribed":
            recorder.begin(seq, f["label"], tenant=f["tenant"])
            recorder.event(seq, kind, **data)
        elif kind in ("rejected", "unsubscribed"):
            recorder.finish(seq, kind, **data)
        elif kind == "finished":
            recorder.finish(seq, f["status"], **data)
        elif kind == "crash":
            recorder.crash(seq, **data)
        elif kind == "delivered":
            recorder.event(seq, kind if f["ok"] else "delivery_dropped",
                           **data)
        else:
            recorder.event(seq, kind, **data)
            if kind == "delta_batch" and f["retractions"]:
                recorder.event(seq, "retracted", version=f["version"],
                               matches=f["retractions"])

    return sink
