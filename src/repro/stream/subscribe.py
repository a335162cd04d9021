"""Standing subscriptions: the client-facing half of ``repro.stream``.

A :class:`SubscribeRequest` registers a pattern against a served dataset
(:meth:`repro.serve.QueryService.subscribe`); the returned
:class:`Subscription` is the handle a client consumes ``+/-``
:class:`DeltaBatch` deliveries from.  Delivery mirrors the serving
tier's exactly-once discipline for query results: each graph version is
delivered to a subscription at most once (a second attempt increments
``delivery_violations`` instead of duplicating), and the per-handle
queue applies the same bounded-backpressure strategy as streamed query
chunks.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Iterator

from ..query.pattern import QueryGraph
from .delta import DeltaEnumerator, Match

__all__ = ["SubscribeRequest", "Subscription", "DeltaBatch", "UpdateReport"]

#: bound of a subscription's delivery queue; `apply_updates` blocks (with
#: the service abort as escape hatch) once a slow consumer falls this
#: many batches behind
MAX_PENDING_BATCHES = 64

Edge = tuple[int, int]


def _next_seq() -> int:
    # share the serving tier's request sequence space so flight-recorder
    # entries for queries and subscriptions interleave on one axis;
    # imported lazily to keep repro.stream importable on its own
    from ..serve.request import _request_seq
    return next(_request_seq)


@dataclass
class SubscribeRequest:
    """A standing-pattern subscription request."""

    pattern: QueryGraph | str
    dataset: str
    tenant: str = "default"
    #: when True, the current snapshot's matches are delivered up front
    #: as an initial all-additions batch (seq = current graph version)
    bootstrap: bool = False
    tag: str | None = None
    seq: int = field(default_factory=_next_seq)

    @property
    def label(self) -> str:
        base = self.tag or (self.pattern if isinstance(self.pattern, str)
                            else self.pattern.name)
        return f"{base}@{self.dataset}#sub{self.seq}"


@dataclass(frozen=True)
class DeltaBatch:
    """One delivered update batch: signed match deltas plus provenance."""

    seq: int                      # graph version after the batch
    dataset: str
    inserted: tuple[Edge, ...]    # effective edge inserts (Δ+)
    deleted: tuple[Edge, ...]     # effective edge deletes (Δ-)
    additions: tuple[Match, ...]  # + match deltas
    retractions: tuple[Match, ...]  # - match deltas
    count_after: int              # standing count after folding this batch
    latency_s: float
    error: str | None = None

    @property
    def net(self) -> int:
        return len(self.additions) - len(self.retractions)

    def as_dict(self) -> dict:
        return {
            "seq": self.seq,
            "dataset": self.dataset,
            "inserted": len(self.inserted),
            "deleted": len(self.deleted),
            "additions": len(self.additions),
            "retractions": len(self.retractions),
            "count_after": self.count_after,
            "latency_s": round(self.latency_s, 6),
            "error": self.error,
        }


class Subscription:
    """A standing query registered with a :class:`QueryService`.

    The service's workers run the delta passes and call :meth:`_deliver`;
    clients consume via :meth:`poll` / :meth:`batches` and tear down
    with :meth:`unsubscribe`.
    """

    def __init__(self, request: SubscribeRequest, pattern: QueryGraph,
                 service=None):
        self.request = request
        self.pattern = pattern
        self.enumerator = DeltaEnumerator(pattern)
        self.count = 0
        self.delivered_batches = 0
        self.delivery_violations = 0
        self.active = True
        self._service = service
        self._seen: set[int] = set()
        self._lock = threading.Lock()
        self._queue: queue.Queue[DeltaBatch | None] = queue.Queue(
            maxsize=MAX_PENDING_BATCHES)

    @property
    def seq(self) -> int:
        return self.request.seq

    @property
    def tenant(self) -> str:
        return self.request.tenant

    # -- service side ------------------------------------------------------

    def _deliver(self, batch: DeltaBatch, abort: threading.Event) -> bool:
        """Deliver one batch exactly once; False on duplicate/teardown."""
        with self._lock:
            if not self.active:
                return False
            if batch.seq in self._seen:
                self.delivery_violations += 1
                return False
            self._seen.add(batch.seq)
            self.count = batch.count_after
            self.delivered_batches += 1
        while not abort.is_set():
            try:
                self._queue.put(batch, timeout=0.05)
                return True
            except queue.Full:
                continue
        return False

    def _close(self) -> None:
        with self._lock:
            self.active = False
        try:
            self._queue.put_nowait(None)
        except queue.Full:
            pass

    # -- client side -------------------------------------------------------

    def poll(self, timeout: float | None = 0.0) -> DeltaBatch | None:
        """Next pending batch, or ``None`` if none arrives in time."""
        try:
            return self._queue.get(
                block=timeout is None or timeout > 0, timeout=timeout or None)
        except queue.Empty:
            return None

    def batches(self, timeout: float = 0.5) -> Iterator[DeltaBatch]:
        """Iterate delivered batches until idle for ``timeout`` seconds
        or the subscription is closed."""
        while True:
            try:
                batch = self._queue.get(timeout=timeout)
            except queue.Empty:
                return
            if batch is None:
                return
            yield batch

    def drain(self) -> list[DeltaBatch]:
        """All currently pending batches, without blocking."""
        out: list[DeltaBatch] = []
        while True:
            try:
                batch = self._queue.get_nowait()
            except queue.Empty:
                return out
            if batch is not None:
                out.append(batch)

    def unsubscribe(self) -> None:
        """Deregister from the service and stop deliveries."""
        if self._service is not None:
            self._service.unsubscribe(self)
        else:
            self._close()


@dataclass(frozen=True)
class UpdateReport:
    """Outcome of one :meth:`QueryService.apply_updates` call."""

    dataset: str
    version: int
    inserted: tuple[Edge, ...]
    deleted: tuple[Edge, ...]
    batches: tuple[DeltaBatch, ...]   # one per subscription notified
    wall_s: float
    timed_out: bool = False

    @property
    def additions(self) -> int:
        return sum(len(b.additions) for b in self.batches)

    @property
    def retractions(self) -> int:
        return sum(len(b.retractions) for b in self.batches)

    def as_dict(self) -> dict:
        return {
            "dataset": self.dataset,
            "version": self.version,
            "inserted": len(self.inserted),
            "deleted": len(self.deleted),
            "subscriptions": len(self.batches),
            "additions": self.additions,
            "retractions": self.retractions,
            "wall_s": round(self.wall_s, 6),
            "timed_out": self.timed_out,
            "batches": [b.as_dict() for b in self.batches],
        }
