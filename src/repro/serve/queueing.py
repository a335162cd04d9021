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
"""

from __future__ import annotations

import bisect
from typing import Callable, Iterable

from .request import Priority, QueryHandle, QueryOutcome, QueryStatus

__all__ = ["QueueEntry", "MultiQueue", "PRIORITY_WEIGHTS"]

#: weighted-round-robin credits per priority class
PRIORITY_WEIGHTS: dict[Priority, int] = {
    Priority.HIGH: 4,
    Priority.NORMAL: 2,
    Priority.LOW: 1,
}


class QueueEntry:
    """One queued request plus its dispatch bookkeeping."""

    __slots__ = ("handle", "estimate_bytes", "submit_t", "abs_deadline",
                 "not_before", "attempts", "cancel_reason", "pattern",
                 "graph", "token", "dispatch_t", "canonical_key",
                 "config_fp", "plan_key", "group", "reserved_bytes")

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
        #: share-grouping keys, resolved at submission when sharing is on:
        #: canonical pattern key, effective engine-config fingerprint and
        #: plan-cache key (prefix-signature lookups)
        self.canonical_key: str | None = None
        self.config_fp: str | None = None
        self.plan_key: tuple | None = None
        #: the ShareGroup this entry is currently dispatched in, if any
        self.group = None
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
            shared_group=self.group.size if self.group is not None else 1,
            queue_wait_s=(self.dispatch_t or now) - self.submit_t,
            execute_s=execute_s, total_s=now - self.submit_t)


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

    def _pop(self, predicate: Callable[[QueueEntry], bool],
             limit: float = float("inf")) -> list[QueueEntry]:
        """Remove up to ``limit`` entries matching ``predicate``, scanning
        priorities urgent-first and EDF within."""
        removed: list[QueueEntry] = []
        for p in Priority:
            keep_e, keep_k = [], []
            for entry, key in zip(self._queues[p], self._keys[p]):
                if len(removed) < limit and predicate(entry):
                    removed.append(entry)
                else:
                    keep_e.append(entry)
                    keep_k.append(key)
            self._queues[p] = keep_e
            self._keys[p] = keep_k
        return removed

    def pop_matching(self, now: float,
                     eligible: Callable[[QueueEntry], bool],
                     match: Callable[[QueueEntry], bool],
                     limit: int) -> list[QueueEntry]:
        """Remove up to ``limit`` dispatchable entries satisfying ``match``.

        Used by the dispatcher to gather share-group followers behind an
        already-popped leader: followers piggyback on the leader's engine
        run, so **no WRR credits are charged** — grouping strictly reduces
        the work done per dispatch, it never lets a class overdraw its
        weight.  Honours retry backoff and the dispatcher's eligibility
        predicate; ``match`` is evaluated last, only on entries that will
        be taken if it holds.
        """
        return self._pop(
            lambda e: (e.not_before <= now and e.cancel_reason is None
                       and eligible(e) and match(e)), limit)

    def pop_where(self, predicate: Callable[[QueueEntry], bool]) -> list[QueueEntry]:
        """Remove and return every queued entry matching ``predicate``
        (deadline expiry sweeps, shutdown drains, client cancels)."""
        return self._pop(predicate)
