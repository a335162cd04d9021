"""The serving tier's one event stream.

Every lifecycle transition of a request, subscription or dataset is
announced exactly once through :meth:`EventStream.emit`; everything that
observes the service is a *sink* on that stream.
:class:`~repro.serve.instruments.ServiceInstruments` — the registry
whose reads are ``QueryService.stats()`` — is always registered; the
:class:`~repro.serve.tracing.ServiceTracer` only when configured.  A sink
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

__all__ = ["EVENT_KINDS", "EventStream"]

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

