"""Query requests, handles and streaming result delivery.

A client builds a :class:`QueryRequest` (pattern + dataset handle +
engine overrides + deadline/priority/tenant), submits it to a
:class:`~repro.serve.service.QueryService` and receives a
:class:`QueryHandle` — a future-like object that tracks the request
through its lifecycle::

    PENDING -> QUEUED -> RUNNING -> COMPLETED
                   \\-> CANCELLED / FAILED          (terminal)
    PENDING -> REJECTED                             (admission control)

Every handle reaches **exactly one** terminal state exactly once; the
transition is guarded by a lock and double transitions are recorded as
``delivery_violations`` so the serving oracles can assert the
no-lost/no-duplicated-results invariant even across worker crashes and
retries.

Every completed outcome comes from an engine run.  Result delivery is
either *direct* (``handle.result().result`` carries the full
:class:`~repro.core.engine.EnumerationResult`, collected matches on its
``matches`` in the request's vertex order) or *streamed*
(``request.stream=True``): matches are pushed through a bounded chunk
queue (``max_pending_chunks`` backpressure) and consumed with
``for chunk in handle.chunks(): ...``.
"""

from __future__ import annotations

import enum
import itertools
import queue
import threading
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from ..core.engine import EngineConfig, EnumerationResult
from ..query.pattern import QueryGraph

__all__ = ["Priority", "QueryStatus", "QueryRequest", "QueryOutcome",
           "ResultChunk", "QueryHandle"]


class Priority(enum.IntEnum):
    """Scheduling priority classes (lower value = more urgent)."""

    HIGH = 0
    NORMAL = 1
    LOW = 2


class QueryStatus(enum.Enum):
    """Lifecycle states of a submitted query."""

    PENDING = "pending"
    QUEUED = "queued"
    RUNNING = "running"
    COMPLETED = "completed"
    CANCELLED = "cancelled"
    FAILED = "failed"
    REJECTED = "rejected"

    @property
    def terminal(self) -> bool:
        return self in (QueryStatus.COMPLETED, QueryStatus.CANCELLED,
                        QueryStatus.FAILED, QueryStatus.REJECTED)


_request_seq = itertools.count()


@dataclass
class QueryRequest:
    """One subgraph-enumeration request against a registered dataset."""

    pattern: QueryGraph | str
    """The pattern, or a benchmark query name (``"q1"`` .. ``"triangle"``)."""

    dataset: str
    """Handle of a dataset registered with the service."""

    num_machines: int = 4
    """Simulated cluster shape the query runs on."""

    workers_per_machine: int = 4

    partition_seed: int = 0
    """Graph-partitioning seed (identical seed => identical partition =>
    bit-identical results to a solo run)."""

    config: EngineConfig | None = None
    """Engine overrides; the service copies it per attempt, never mutates
    the caller's object."""

    collect: bool = False
    """Collect the matched tuples (vs. count only)."""

    stream: bool = False
    """Deliver collected matches as bounded chunks via ``handle.chunks()``
    instead of on the outcome (implies :attr:`collect`)."""

    chunk_size: int = 1024
    """Tuples per streamed chunk."""

    max_pending_chunks: int = 8
    """Backpressure bound: the worker blocks once this many chunks are
    undelivered."""

    priority: Priority = Priority.NORMAL

    deadline_s: float | None = None
    """Wall-clock budget from submission; expiry cancels the query whether
    queued or mid-run (the engine's cancellation token enforces it)."""

    tenant: str = "default"
    """Fairness bucket for per-tenant in-flight caps."""

    tag: str | None = None
    """Optional client label, echoed in traces/metrics."""

    seq: int = field(default_factory=lambda: next(_request_seq))
    """Process-unique request id (assigned at construction)."""

    def __post_init__(self) -> None:
        if self.stream:
            self.collect = True
        if self.num_machines < 1 or self.workers_per_machine < 1:
            raise ValueError("need at least one machine and one worker")
        if self.chunk_size < 1 or self.max_pending_chunks < 1:
            raise ValueError("chunk sizes must be positive")
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ValueError("deadline_s must be positive")

    @property
    def label(self) -> str:
        """Display name for traces and logs."""
        base = self.pattern if isinstance(self.pattern, str) else \
            self.pattern.name
        return self.tag or f"{base}@{self.dataset}#{self.seq}"


@dataclass
class ResultChunk:
    """One bounded slice of a streamed result."""

    seq: int
    """Chunk index within the request (0-based)."""

    rows: Sequence[tuple[int, ...]]
    """Matches in the *request's* query-vertex order."""

    last: bool = False
    """Whether this is the final chunk."""


@dataclass
class QueryOutcome:
    """Terminal summary of one request."""

    status: QueryStatus
    count: int = 0
    result: EnumerationResult | None = field(default=None, repr=False)
    error: str | None = None
    attempts: int = 1
    """Execution attempts consumed (> 1 means worker-crash retries)."""
    plan_cache_hit: bool = False
    canonical_key: str | None = None
    queue_wait_s: float = 0.0
    plan_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    """Submit-to-terminal wall-clock latency."""

    def as_dict(self) -> dict:
        """JSON-serialisable view (the engine result is summarised)."""
        return {
            "status": self.status.value,
            "count": self.count,
            "error": self.error,
            "attempts": self.attempts,
            "plan_cache_hit": self.plan_cache_hit,
            "canonical_key": self.canonical_key,
            "queue_wait_s": self.queue_wait_s,
            "plan_s": self.plan_s,
            "execute_s": self.execute_s,
            "total_s": self.total_s,
            "sim_total_time_s": (self.result.report.total_time_s
                                 if self.result is not None else None),
        }


class QueryHandle:
    """Client-side view of a submitted request (a future plus a stream)."""

    def __init__(self, request: QueryRequest, service=None):
        self.request = request
        self._service = service
        #: the service's queue entry for this request (cancel routing)
        self._entry = None
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._status = QueryStatus.PENDING
        self._outcome: QueryOutcome | None = None
        #: terminal transitions after the first one (must stay 0; the
        #: exactly-once oracle asserts it)
        self.delivery_violations = 0
        self._chunks: queue.Queue[ResultChunk | None] = queue.Queue(
            maxsize=request.max_pending_chunks)

    # -- state -----------------------------------------------------------------

    @property
    def status(self) -> QueryStatus:
        return self._status

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def _set_status(self, status: QueryStatus) -> None:
        """Non-terminal transition (service internal)."""
        with self._lock:
            if not self._status.terminal:
                self._status = status

    def _finish(self, outcome: QueryOutcome) -> bool:
        """Deliver the terminal outcome exactly once.

        Returns ``False`` (and counts a violation) on a second terminal
        transition — the exactly-once guard behind crash retries.
        """
        with self._lock:
            if self._status.terminal:
                self.delivery_violations += 1
                return False
            self._status = outcome.status
            self._outcome = outcome
        self._done.set()
        return True

    # -- client API ------------------------------------------------------------

    def wait(self, timeout: float | None = None) -> bool:
        """Block until the query reaches a terminal state."""
        return self._done.wait(timeout)

    def result(self, timeout: float | None = None) -> QueryOutcome:
        """The terminal outcome (blocks; raises ``TimeoutError`` on wait
        expiry).  Inspect ``outcome.status`` — failures do not raise."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"query {self.request.label} still {self._status.value} "
                f"after {timeout}s")
        assert self._outcome is not None
        return self._outcome

    def cancel(self, reason: str = "client cancel") -> None:
        """Request cancellation (queued: dropped; running: the engine's
        cancellation token fires at its next scheduler poll)."""
        if self._service is not None:
            self._service._cancel(self, reason)

    # -- streaming -------------------------------------------------------------

    def _push_chunk(self, chunk: ResultChunk | None,
                    abort: threading.Event, timeout: float = 0.05) -> bool:
        """Producer side (service internal): blocks under backpressure but
        gives up when ``abort`` is set (service shutdown)."""
        while True:
            try:
                self._chunks.put(chunk, timeout=timeout)
                return True
            except queue.Full:
                if abort.is_set():
                    return False

    def chunks(self, timeout: float | None = None) -> Iterator[ResultChunk]:
        """Iterate the streamed result chunks (``request.stream`` runs).

        Terminates after the chunk marked ``last``; on a non-completed
        outcome the stream simply ends (check :meth:`result`).
        """
        if not self.request.stream:
            raise ValueError("request was not submitted with stream=True")
        while True:
            try:
                chunk = self._chunks.get(timeout=timeout)
            except queue.Empty:
                raise TimeoutError(
                    f"no chunk from {self.request.label} within {timeout}s")
            if chunk is None:  # terminated without a final chunk
                return
            yield chunk
            if chunk.last:
                return
