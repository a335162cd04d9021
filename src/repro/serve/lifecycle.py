"""One task lifecycle: reserve → run → deliver → release.

Every unit of work the pool executes is a **task** with one protocol —
``task.members`` (the entries it answers for), ``task.tracked`` (members
count against tenants and are retried) and ``task.run(worker) ->
[(member, outcome)]`` — implemented by
:class:`~repro.serve.queueing.QueueEntry` (one query, one engine run)
and :class:`DeltaTask` (one subscription's share of a graph update);
each is its own only member.  :class:`Lifecycle` walks a task through
its steps and is the **only** code that touches the mutable serving
state: the admission
ledger's query/delta reservations, the in-flight and per-tenant tables,
the dispatch-unit count, and the two exactly-once hand-overs
(``QueryHandle._finish``, ``Subscription._deliver``).  DESIGN §8 has the
state diagram.

An admission rejection, a queue-swept cancel and a subscription's
bootstrap batch are members that never ran: they enter at ``deliver``
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
    """One subscription's share of an update batch; its own only member.

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
    def members(self) -> tuple:
        # computed, not stored: a stored self-reference would make every
        # task (and the two graph snapshots it pins) cyclic garbage
        return (self,)

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

    def run(self, worker) -> list:
        """Retractions on the pre-update snapshot, additions on the
        post-update one."""
        work, t0 = self.work, worker.service._now()
        retractions = self.sub.enumerator.delta_matches(
            work.old_graph, work.delta.deleted)
        additions = self.sub.enumerator.delta_matches(
            work.new_graph, work.delta.inserted)
        return [(self, self.batch(additions, retractions,
                                  worker.service._now() - t0))]

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
        """Dispatch ``task``: take each member's reservation (queries are
        only dispatched when theirs fits; a delta task's is best-effort),
        start the attempt and occupy one dispatch unit."""
        with self._cond:
            for m in task.members:
                if self.admission.try_reserve(m.estimate_bytes):
                    m.reserved_bytes = m.estimate_bytes
                if task.tracked:
                    m.attempts += 1
                    m.dispatch_t = now
                    self._inflight[m.seq] = m
                    self._tenant_inflight[m.tenant] = \
                        self.tenant_load(m.tenant) + 1
            self._dispatch_units += 1
        for m in task.members if task.tracked else ():
            req = m.handle.request
            self.emit("dispatched", m.seq, label=m.label, tenant=m.tenant,
                      priority=req.priority.name, attempt=m.attempts,
                      t0=m.submit_t, t1=now, queue_wait_s=now - m.submit_t)

    def run(self, worker, task) -> None:
        """Execute ``task`` on ``worker`` (its thread) and deliver every
        member.  ``WorkerCrashError`` deliberately propagates — the
        caller treats it as thread death and the reaper abandons the
        task."""
        for m in task.members:
            if task.tracked:
                m.handle._set_status(QueryStatus.RUNNING)
            self.emit("executing", m.seq, worker=worker.wid, pid=worker.pid,
                      backend=worker.backend, attempt=m.attempts)
        fields = {"worker": worker.wid}
        t0 = self.svc._now()
        try:
            results = task.run(worker)
        except WorkerCrashError:
            raise
        except Exception as exc:  # noqa: BLE001 - worker boundary
            if isinstance(exc, QueryCancelledError):
                status, error = QueryStatus.CANCELLED, exc.reason
            else:
                status, error = (QueryStatus.FAILED,
                                 f"{type(exc).__name__}: {exc}")
            now = self.svc._now()
            results = [(m, m.terminal(status, error, now, now - t0))
                       for m in task.members]
            fields.update(t0=t0, t1=now)
        for member, outcome in results:
            self.deliver(member, outcome, **fields)
        with self._cond:
            self._dispatch_units -= 1
            self._cond.notify_all()

    def deliver(self, member, outcome, **fields) -> None:
        """Terminal step for one member: hand the outcome over exactly
        once, release what the member holds, announce it."""
        if isinstance(outcome, DeltaBatch):
            self._deliver_batch(member, outcome, fields)
            return
        req = member.handle.request
        delivered = member.handle._finish(outcome)
        if req.stream and outcome.status is not QueryStatus.COMPLETED:
            member.handle._push_chunk(None, abort=self.svc._abort)
        # one critical section: whatever this release lets the dispatcher
        # start is announced after this member's ``finished``
        with self._cond:
            self.release(member)
            # drop the handle's back-reference (handle → entry →
            # handle): a finished entry pins its graph snapshot, and only
            # an acyclic one is freed the moment the client lets go
            member.handle._entry = None
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

    def release(self, member) -> None:
        """Return the member's reservation and drop it from the
        in-flight tables; a member holding nothing is a no-op."""
        with self._cond:
            nbytes, member.reserved_bytes = member.reserved_bytes, None
            if self._inflight.pop(member.seq, None) is not None:
                self._tenant_inflight[member.tenant] -= 1
            if nbytes is not None:
                self.admission.release(nbytes)
            self._cond.notify_all()

    def abandon(self, task, worker) -> None:
        """``worker`` died running ``task``: release every member, then
        requeue it with exponential backoff — or deliver ``FAILED`` once
        its retries are spent (untracked tasks are never retried).  The
        handle's exactly-once transition guarantees no result is lost or
        duplicated across retries."""
        svc = self.svc
        with self._cond:
            self._dispatch_units -= 1
        for m in task.members:
            self.emit("crash", m.seq, label=m.label,
                      worker=worker.wid, pid=worker.pid,
                      backend=worker.backend, attempt=m.attempts)
            now = svc._now()
            if not task.tracked or m.attempts > svc.max_retries:
                error = f"worker crashed on all {m.attempts} attempts"
                self.deliver(m, m.terminal(QueryStatus.FAILED, error, now),
                             worker=worker.wid)
                continue
            self.release(m)
            backoff = min(BACKOFF_CAP_S,
                          svc.backoff_base_s * (2 ** (m.attempts - 1)))
            m.not_before = now + backoff
            m.token = None
            m.handle._set_status(QueryStatus.QUEUED)
            with self._cond:
                svc._queue.push(m)
                self._cond.notify_all()
            self.emit("retry_scheduled", m.seq, label=m.label,
                      backend=worker.backend, backoff_s=backoff,
                      next_attempt=m.attempts + 1)
