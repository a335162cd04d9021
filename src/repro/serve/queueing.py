"""Fair multi-queue request scheduling.

Queued requests live in one queue per :class:`Priority`.  Dispatch order
combines three policies:

* **weighted round-robin across priorities** — HIGH/NORMAL/LOW drain in
  a 4:2:1 credit cycle, so low-priority work keeps flowing under a
  sustained high-priority load (no starvation) while urgent work still
  dominates;
* **earliest-deadline-first within a priority** — entries carry an
  absolute wall-clock deadline (``inf`` when none); ties break FIFO by
  submission sequence;
* **an eligibility predicate from the dispatcher** — per-tenant in-flight
  caps, the admission controller's free budget, and retry backoff
  (``not_before``) are all dispatch-time conditions, so the queue skips
  over entries the dispatcher cannot place *right now* without losing
  their position.

The structure is lock-free from the queue's perspective: the owning
dispatcher thread is the only mutator; ``depths()`` reads are safe for
metrics snapshots.

A dispatched :class:`QueueEntry` is itself the query task the lifecycle
runs (:mod:`repro.serve.lifecycle`): one request, one engine run.
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable

from .request import (Priority, QueryHandle, QueryOutcome, QueryStatus,
                      ResultChunk)

__all__ = ["QueueEntry", "MultiQueue", "PRIORITY_WEIGHTS"]

#: weighted-round-robin credits per priority class
PRIORITY_WEIGHTS: dict[Priority, int] = {
    Priority.HIGH: 4,
    Priority.NORMAL: 2,
    Priority.LOW: 1,
}


class QueueEntry:
    """One queued request plus its dispatch bookkeeping.

    Once dispatched it is also the request's task (as a
    :class:`~repro.serve.lifecycle.DeltaTask` is an update's), whose
    :attr:`token` is what the engine polls: a client cancel, the
    deadline or a shutdown aborts the run.
    """

    __slots__ = ("handle", "estimate_bytes", "submit_t", "abs_deadline",
                 "not_before", "attempts", "cancel_reason", "pattern",
                 "graph", "token", "dispatch_t", "reserved_bytes")

    #: tracked in the in-flight / per-tenant tables and retried after a
    #: worker crash
    tracked = True

    def __init__(self, handle: QueryHandle, estimate_bytes: float,
                 submit_t: float, abs_deadline: float):
        self.handle = handle
        self.estimate_bytes = estimate_bytes
        self.submit_t = submit_t
        #: absolute deadline on the service clock (``inf`` = none)
        self.abs_deadline = abs_deadline
        #: retry backoff gate: not dispatchable before this time
        self.not_before = submit_t
        #: execution attempts consumed so far
        self.attempts = 0
        #: set by QueryHandle.cancel while queued
        self.cancel_reason: str | None = None
        #: resolved at submission by the service
        self.pattern = None
        self.graph = None
        #: per-attempt cancellation token (set at dispatch)
        self.token = None
        #: service-clock time of the latest dispatch
        self.dispatch_t = 0.0
        #: admission reservation currently held (``None`` = none)
        self.reserved_bytes: float | None = None

    @property
    def seq(self) -> int:
        return self.handle.request.seq

    @property
    def label(self) -> str:
        return self.handle.request.label

    @property
    def tenant(self) -> str:
        return self.handle.request.tenant

    @property
    def sort_key(self) -> tuple[float, int]:
        """EDF order with FIFO tie-break."""
        return (self.abs_deadline, self.seq)

    def terminal(self, status: QueryStatus, error: str, now: float,
                 execute_s: float = 0.0) -> QueryOutcome:
        """The outcome of an attempt that produced no result (cancelled,
        failed, or crashed out of retries) at service time ``now``."""
        return QueryOutcome(
            status=status, error=error, attempts=self.attempts,
            queue_wait_s=(self.dispatch_t or now) - self.submit_t,
            execute_s=execute_s, total_s=now - self.submit_t)

    def run(self, worker) -> QueryOutcome:
        """Execute the request on ``worker`` (its thread) and return its
        outcome.  Engine errors (cancellation, crash,
        failure) propagate to the lifecycle, which maps them."""
        svc = worker.service
        req = self.handle.request
        t0 = svc._now()
        result, info = worker.executor.execute(req, self.graph, self.pattern,
                                               token=self.token)
        t1 = svc._now()
        t_exec = t0 + info["plan_s"]
        svc.emit("planned", req.seq, label=req.label, worker=worker.wid,
                 t0=t0, t1=t_exec, cache_hit=info["plan_cache_hit"],
                 plan_s=info["plan_s"], key=info["canonical_key"])
        svc.emit("executed", req.seq, label=req.label, worker=worker.wid,
                 attempt=self.attempts, t0=t_exec, t1=t1,
                 execute_s=info["execute_s"], count=result.count,
                 sim_time_s=result.report.total_time_s)
        if req.stream:
            ts0 = svc._now()
            chunks = _stream_result(self.handle, result, svc._abort)
            svc.emit("streamed", req.seq, label=req.label, worker=worker.wid,
                     t0=ts0, t1=svc._now(), chunks=chunks)
        return QueryOutcome(
            status=QueryStatus.COMPLETED, count=result.count, result=result,
            attempts=self.attempts, plan_cache_hit=info["plan_cache_hit"],
            canonical_key=info["canonical_key"],
            queue_wait_s=self.dispatch_t - self.submit_t,
            plan_s=info["plan_s"], execute_s=info["execute_s"],
            total_s=svc._now() - self.submit_t)


def _stream_result(handle, result, abort) -> int:
    """Deliver collected matches as bounded chunks; returns #chunks."""
    matches = result.matches or []
    result.matches = None  # delivered via the stream, not the outcome
    size = handle.request.chunk_size
    chunks = [matches[i:i + size] for i in range(0, len(matches), size)] \
        or [[]]
    for seq, rows in enumerate(chunks):
        chunk = ResultChunk(seq=seq, rows=rows, last=seq == len(chunks) - 1)
        if not handle._push_chunk(chunk, abort=abort):
            break
    return len(chunks)


class MultiQueue:
    """Priority × deadline × eligibility dispatch queue."""

    def __init__(self, weights: dict[Priority, int] | None = None):
        self._queues: dict[Priority, list[QueueEntry]] = {
            p: [] for p in Priority}
        self._keys: dict[Priority, list[tuple[float, int]]] = {
            p: [] for p in Priority}
        self.weights = dict(weights or PRIORITY_WEIGHTS)
        self._credits = dict(self.weights)

    def __len__(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def depths(self) -> dict[str, int]:
        """Queue depth per priority (metrics snapshot)."""
        return {p.name.lower(): len(self._queues[p]) for p in Priority}

    def push(self, entry: QueueEntry) -> None:
        """Insert in EDF position within the entry's priority queue."""
        p = entry.handle.request.priority
        i = bisect.bisect(self._keys[p], entry.sort_key)
        self._keys[p].insert(i, entry.sort_key)
        self._queues[p].insert(i, entry)

    def _remove_at(self, priority: Priority, index: int) -> QueueEntry:
        self._keys[priority].pop(index)
        return self._queues[priority].pop(index)

    def _priority_cycle(self) -> Iterable[Priority]:
        """Priorities in weighted-round-robin order: classes with credit
        left first (most credit wins, urgency breaks ties), exhausted
        classes last so nothing blocks when the credited ones are empty."""
        return sorted(Priority,
                      key=lambda p: (-self._credits[p], p.value))

    def pop_eligible(self, now: float,
                     eligible: Callable[[QueueEntry], bool]) -> QueueEntry | None:
        """Remove and return the next dispatchable entry, or ``None``.

        Scans priorities in WRR order and entries in EDF order, skipping
        entries still in retry backoff (``not_before > now``) or failing
        the dispatcher's ``eligible`` predicate (tenant caps, budget fit).
        """
        for p in self._priority_cycle():
            entries = self._queues[p]
            for i, entry in enumerate(entries):
                if entry.not_before > now:
                    continue
                if not eligible(entry):
                    continue
                popped = self._remove_at(p, i)
                # clamp at zero: a pop from an exhausted class only happens
                # as a fallback (every credited class had nothing
                # dispatchable), and must not sink its credits further —
                # unbounded negative credits would silently collapse the
                # weighted ratio into strict alternation
                self._credits[p] = max(0, self._credits[p] - 1)
                # replenish once every *non-empty* class is exhausted; an
                # idle class's unspent credits must not block the cycle
                # (idle-HIGH starvation bug)
                if all(self._credits[q] <= 0 for q in Priority
                       if self._queues[q]):
                    self._credits = dict(self.weights)
                return popped
        return None

    def pop_where(self, predicate: Callable[[QueueEntry], bool]) -> list[QueueEntry]:
        """Remove and return every queued entry matching ``predicate``
        (deadline expiry sweeps, shutdown drains, client cancels),
        scanning priorities urgent-first and EDF within."""
        removed: list[QueueEntry] = []
        for p in Priority:
            keep_e, keep_k = [], []
            for entry, key in zip(self._queues[p], self._keys[p]):
                if predicate(entry):
                    removed.append(entry)
                else:
                    keep_e.append(entry)
                    keep_k.append(key)
            self._queues[p] = keep_e
            self._keys[p] = keep_k
        return removed
