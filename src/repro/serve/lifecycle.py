"""One task lifecycle: reserve → run → deliver → release.

Every unit of work the pool executes is a **task** with one protocol —
``task.tracked`` (the task counts against its tenant and is retried),
``task.run(worker) -> outcome`` and ``task.terminal(...)`` (the outcome
of an attempt that produced none) — implemented by
:class:`~repro.serve.queueing.QueueEntry` (one query, one engine run)
and :class:`DeltaTask` (one subscription's share of a graph update).
:class:`Lifecycle` walks a task through its steps and is the **only**
code that touches the mutable serving state: the admission
ledger's query/delta reservations, the in-flight and per-tenant tables,
the dispatch-unit count, and the two exactly-once hand-overs
(``QueryHandle._finish``, ``Subscription._deliver``).  DESIGN §8 has the
state diagram.

An admission rejection, a queue-swept cancel and a subscription's
bootstrap batch are tasks that never ran: they enter at ``deliver``
(whose ``release`` finds nothing to return).
"""

from __future__ import annotations

from queue import Queue

from ..cluster.errors import QueryCancelledError
from ..stream.subscribe import DeltaBatch, Subscription
from .request import QueryStatus

__all__ = ["WorkerCrashError", "Lifecycle", "DeltaTask", "UpdateWork"]

#: longest wait before a crashed attempt is retried (the exponential
#: back-off from ``backoff_base_s`` saturates here)
BACKOFF_CAP_S = 2.0


class WorkerCrashError(RuntimeError):
    """An injected worker crash (kills the worker thread mid-query)."""


class UpdateWork:
    """What one ``apply_updates`` fan-out shares: the two snapshots, the
    effective delta, and the queue every finished :class:`DeltaTask`
    reports its ``(subscription seq, batch)`` on."""

    def __init__(self, dataset: str, version: int, old_graph, new_graph,
                 delta):
        self.dataset = dataset
        self.version = version
        self.old_graph = old_graph
        self.new_graph = new_graph
        self.delta = delta
        self.done: Queue = Queue()


class DeltaTask:
    """One subscription's share of an update batch.

    Delta passes always run in-process on the worker *thread* (the
    columnar delta kernels are cheap relative to full enumeration);
    under the process backend they simply bypass the child process.
    Its reservation is best-effort and it is never retried.
    """

    __slots__ = ("sub", "work", "estimate_bytes", "reserved_bytes")

    tracked = False
    attempts = 1

    def __init__(self, sub: Subscription, work: UpdateWork | None = None,
                 estimate_bytes: float = 0.0):
        self.sub = sub
        #: ``None`` for the bootstrap batch (no update behind it)
        self.work = work
        self.estimate_bytes = estimate_bytes
        self.reserved_bytes: float | None = None

    @property
    def seq(self) -> int:
        return self.sub.request.seq

    @property
    def label(self) -> str:
        return self.sub.request.label

    def batch(self, additions=(), retractions=(), latency_s: float = 0.0,
              error: str | None = None) -> DeltaBatch:
        work = self.work
        return DeltaBatch(
            seq=work.version, dataset=work.dataset,
            inserted=work.delta.inserted, deleted=work.delta.deleted,
            additions=tuple(additions), retractions=tuple(retractions),
            count_after=self.sub.count + len(additions) - len(retractions),
            latency_s=latency_s, error=error)

    def run(self, worker) -> DeltaBatch:
        """Retractions on the pre-update snapshot, additions on the
        post-update one."""
        work, t0 = self.work, worker.service._now()
        retractions = self.sub.enumerator.delta_matches(
            work.old_graph, work.delta.deleted)
        additions = self.sub.enumerator.delta_matches(
            work.new_graph, work.delta.inserted)
        return self.batch(additions, retractions,
                          worker.service._now() - t0)

    def terminal(self, status: QueryStatus, error: str, now: float,
                 execute_s: float = 0.0) -> DeltaBatch:
        """A failing pass is delivered as an errored, empty batch."""
        return self.batch(latency_s=execute_s, error=error)


class Lifecycle:
    """The single owner of reservations, in-flight tables, dispatch
    units and exactly-once delivery."""

    def __init__(self, service):
        self.svc = service
        self.admission = service.admission
        self.emit = service.emit
        self._cond = service._cond
        #: tasks occupying workers right now — queries (each also in
        #: ``_inflight``) and delta tasks (never in it)
        self._dispatch_units = 0
        self._inflight: dict[int, object] = {}
        self._tenant_inflight: dict[str, int] = {}

    # read-only views for the dispatcher

    @property
    def units(self) -> int:
        return self._dispatch_units

    @property
    def inflight(self) -> dict:
        return self._inflight

    def tenant_load(self, tenant: str) -> int:
        return self._tenant_inflight.get(tenant, 0)

    def reserve(self, task, now: float) -> None:
        """Dispatch ``task``: take its reservation (a query is only
        dispatched when it fits; a delta task's is best-effort), start
        the attempt and occupy one dispatch unit."""
        with self._cond:
            if self.admission.try_reserve(task.estimate_bytes):
                task.reserved_bytes = task.estimate_bytes
            if task.tracked:
                task.attempts += 1
                task.dispatch_t = now
                self._inflight[task.seq] = task
                self._tenant_inflight[task.tenant] = \
                    self.tenant_load(task.tenant) + 1
            self._dispatch_units += 1
        if task.tracked:
            req = task.handle.request
            self.emit("dispatched", task.seq, label=task.label,
                      tenant=task.tenant, priority=req.priority.name,
                      attempt=task.attempts, t0=task.submit_t, t1=now,
                      queue_wait_s=now - task.submit_t)

    def run(self, worker, task) -> None:
        """Execute ``task`` on ``worker`` (its thread) and deliver its
        outcome.  ``WorkerCrashError`` deliberately propagates — the
        caller treats it as thread death and the reaper abandons the
        task."""
        if task.tracked:
            task.handle._set_status(QueryStatus.RUNNING)
        self.emit("executing", task.seq, worker=worker.wid, pid=worker.pid,
                  backend=worker.backend, attempt=task.attempts)
        fields = {"worker": worker.wid}
        t0 = self.svc._now()
        try:
            outcome = task.run(worker)
        except WorkerCrashError:
            raise
        except Exception as exc:  # noqa: BLE001 - worker boundary
            if isinstance(exc, QueryCancelledError):
                status, error = QueryStatus.CANCELLED, exc.reason
            else:
                status, error = (QueryStatus.FAILED,
                                 f"{type(exc).__name__}: {exc}")
            now = self.svc._now()
            outcome = task.terminal(status, error, now, now - t0)
            fields.update(t0=t0, t1=now)
        self.deliver(task, outcome, **fields)
        with self._cond:
            self._dispatch_units -= 1
            self._cond.notify_all()

    def deliver(self, task, outcome, **fields) -> None:
        """Terminal step for one task: hand the outcome over exactly
        once, release what the task holds, announce it."""
        if isinstance(outcome, DeltaBatch):
            self._deliver_batch(task, outcome, fields)
            return
        req = task.handle.request
        delivered = task.handle._finish(outcome)
        if req.stream and outcome.status is not QueryStatus.COMPLETED:
            task.handle._push_chunk(None, abort=self.svc._abort)
        # one critical section: whatever this release lets the dispatcher
        # start is announced after this task's ``finished``
        with self._cond:
            self.release(task)
            # drop the handle's back-reference (handle → entry →
            # handle): a finished entry pins its graph snapshot, and only
            # an acyclic one is freed the moment the client lets go
            task.handle._entry = None
            self.emit("finished", req.seq, status=outcome.status.value,
                      delivered=delivered, label=req.label,
                      tenant=req.tenant, count=outcome.count,
                      attempts=outcome.attempts, error=outcome.error,
                      total_s=outcome.total_s,
                      queue_wait_s=outcome.queue_wait_s,
                      execute_s=outcome.execute_s, **fields)

    def _deliver_batch(self, task: DeltaTask, batch: DeltaBatch,
                       fields: dict) -> None:
        try:
            if task.work is not None:
                self.emit("delta_batch", task.seq, version=batch.seq,
                          inserted=len(batch.inserted),
                          deleted=len(batch.deleted),
                          additions=len(batch.additions),
                          retractions=len(batch.retractions),
                          latency_s=batch.latency_s, error=batch.error,
                          **fields)
            ok = task.sub._deliver(batch, abort=self.svc._abort)
            self.emit("delivered", task.seq, ok=ok, version=batch.seq,
                      count=task.sub.count)
        finally:  # whatever a sink does, keep the ledger and latch moving
            self.release(task)
            if task.work is not None:
                task.work.done.put((task.seq, batch))

    def release(self, task) -> None:
        """Return the task's reservation and drop it from the in-flight
        tables; a task holding nothing is a no-op."""
        with self._cond:
            nbytes, task.reserved_bytes = task.reserved_bytes, None
            if self._inflight.pop(task.seq, None) is not None:
                self._tenant_inflight[task.tenant] -= 1
            if nbytes is not None:
                self.admission.release(nbytes)
            self._cond.notify_all()

    def abandon(self, task, worker) -> None:
        """``worker`` died running ``task``: release it, then requeue it
        with exponential backoff — or deliver ``FAILED`` once its retries
        are spent (untracked tasks are never retried).  The handle's
        exactly-once transition guarantees no result is lost or
        duplicated across retries."""
        svc = self.svc
        with self._cond:
            self._dispatch_units -= 1
        self.emit("crash", task.seq, label=task.label, worker=worker.wid,
                  pid=worker.pid, backend=worker.backend,
                  attempt=task.attempts)
        now = svc._now()
        if not task.tracked or task.attempts > svc.max_retries:
            error = f"worker crashed on all {task.attempts} attempts"
            self.deliver(task, task.terminal(QueryStatus.FAILED, error, now),
                         worker=worker.wid)
            return
        self.release(task)
        backoff = min(BACKOFF_CAP_S,
                      svc.backoff_base_s * (2 ** (task.attempts - 1)))
        task.not_before = now + backoff
        task.token = None
        task.handle._set_status(QueryStatus.QUEUED)
        with self._cond:
            svc._queue.push(task)
            self._cond.notify_all()
        self.emit("retry_scheduled", task.seq, label=task.label,
                  backend=worker.backend, backoff_s=backoff,
                  next_attempt=task.attempts + 1)
