"""The concurrent query service: worker pool, dispatch, fault tolerance.

``QueryService`` multiplexes many :class:`QueryRequest`\\ s over a pool of
real worker threads, each driving its own simulated cluster +
:class:`~repro.core.engine.HugeEngine` (clusters are never shared across
threads — the metrics ledger is per-run mutable state).  The dispatcher
thread owns the :class:`MultiQueue`; everything a request *holds* — its
admission reservation, its place in the in-flight and per-tenant tables,
its one terminal delivery — is owned by the
:class:`~repro.serve.lifecycle.Lifecycle`:

1. **submit** — the pattern is resolved and its Theorem-5.4
   reservation estimated; a request whose bound exceeds the whole
   budget is delivered rejected at once, otherwise it queues.
2. **reserve** — the fair scheduler picks the next entry whose
   reservation fits the free budget and whose tenant is under its cap,
   and the entry — its own task: one request, one engine run — goes to
   the worker pool with its reservation taken.
3. **run** — the worker gets-or-plans the canonical plan, runs the
   engine under a per-attempt :class:`CancelToken` (deadline + client
   cancel + shutdown) and remaps matches to the request's vertex order.
4. **deliver → release** — the request gets exactly one terminal
   outcome and its reservation back.
5. **abandon** — an injected :class:`WorkerCrashError` kills the worker
   thread mid-run; the dispatcher respawns it and the lifecycle releases
   the task's reservation and requeues it with backoff.

``apply_updates`` fans one :class:`~repro.serve.lifecycle.DeltaTask` per
subscription through the same steps.  Every transition is announced once
on the event stream (:mod:`repro.serve.events`); the metrics registry
(which :meth:`QueryService.stats` reads) and tracing are sinks on it.

Determinism: a query executed through the service produces **the same
count and simulated metrics** as the same request executed solo
(:func:`run_query_solo`) — concurrency multiplexes isolated simulated
clusters, it never changes what any of them computes.
"""

from __future__ import annotations

import os
import threading
import time
from queue import Empty, Queue
from typing import Mapping

from ..cluster.cost import CostModel
from ..core.cancel import CancelToken
from ..core.engine import EngineConfig
from ..graph.graph import Graph
from ..graph.updates import apply_updates as graph_apply_updates
from ..stream.subscribe import (DeltaBatch, SubscribeRequest, Subscription,
                                UpdateReport)
from ..obs.metrics import MetricsRegistry
from ..query.pattern import get_query
from .admission import AdmissionController, estimate_query_bytes
from .events import EventStream
from .executor import Executor, effective_config, run_query_solo
from .instruments import ServiceInstruments
from .lifecycle import DeltaTask, Lifecycle, UpdateWork, WorkerCrashError
from .plancache import PlanCache
from .queueing import MultiQueue, QueueEntry
from .request import (Priority, QueryHandle, QueryOutcome, QueryRequest,
                      QueryStatus)
from .stats import ServiceStats
from .tracing import ServiceTracer

__all__ = ["WorkerCrashError", "FaultInjector", "Executor", "QueryService",
           "run_query_solo"]


class FaultInjector:
    """Deterministic worker-crash injection for tests, CI and benchmarks.

    Crashes are scheduled per ``(request seq, attempt)`` and fire through
    the engine's cancellation-token poll point, i.e. genuinely *mid-run*
    inside the scheduler loop — after some batches have been processed,
    before the query completes.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._planned: dict[tuple[int, int], int] = {}
        self.injected = 0

    def crash(self, request_seq: int, attempt: int = 1,
              after_polls: int = 3) -> None:
        """Schedule a crash for the given attempt of a request; the worker
        dies after ``after_polls`` scheduler rounds."""
        if after_polls < 1:
            raise ValueError("after_polls must be >= 1")
        with self._lock:
            self._planned[(request_seq, attempt)] = after_polls

    def arm(self, request_seq: int, attempt: int) -> int | None:
        """One-shot: pop the scheduled crash for this attempt, if any."""
        with self._lock:
            return self._planned.pop((request_seq, attempt), None)

    def fired(self) -> None:
        with self._lock:
            self.injected += 1


class _AttemptToken(CancelToken):
    """Per-attempt cancellation token, optionally armed to crash."""

    __slots__ = ("_crash_after", "_injector")

    def __init__(self, deadline: float | None,
                 crash_after: int | None = None,
                 injector: FaultInjector | None = None):
        super().__init__(deadline=deadline)
        self._crash_after = crash_after
        self._injector = injector

    def on_poll(self) -> None:
        if self._crash_after is not None and self.polls >= self._crash_after:
            self._crash_after = None
            if self._injector is not None:
                self._injector.fired()
            raise WorkerCrashError("injected worker crash")


_SHUTDOWN = object()


class _Worker(threading.Thread):
    """One pool worker; dies on an injected crash (no cleanup — the
    dispatcher's liveness check is the detection path)."""

    #: pool backend label carried on events and crash metrics
    backend = "thread"

    def __init__(self, service: "QueryService", wid: int):
        super().__init__(name=f"repro-serve-w{wid}", daemon=True)
        self.service = service
        self.wid = wid
        #: the task being run (QueueEntry or DeltaTask), if any
        self.current = None
        self.crashed = False
        self.executor = self._make_executor(service)

    def _make_executor(self, service: "QueryService") -> Executor:
        return Executor(
            plan_cache=service.plan_cache,
            default_config=service.default_config,
            cost=service.cost)

    @property
    def pid(self) -> int:
        """OS pid doing this worker's compute (the service process)."""
        return os.getpid()

    def dispose(self) -> None:
        """Release backend resources (no-op for thread workers)."""

    def run(self) -> None:
        svc = self.service
        while True:
            try:
                task = svc._ready.get(timeout=0.2)
            except Empty:
                if svc._abort.is_set():
                    return
                continue
            if task is _SHUTDOWN:
                return
            self.current = task
            try:
                svc.lifecycle.run(self, task)
            except WorkerCrashError:
                # simulated hard death: leave ``current`` set and exit
                # without any cleanup; the dispatcher's liveness sweep
                # detects the corpse and abandons the task
                self.crashed = True
                return
            # an idle worker must not pin its last task's graph snapshots
            self.current = task = None


class QueryService:
    """A long-running, concurrent subgraph-enumeration service."""

    def __init__(self, datasets: Mapping[str, Graph] | None = None,
                 num_workers: int = 4,
                 memory_budget_bytes: float = float("inf"),
                 default_config: EngineConfig | None = None,
                 cost: CostModel | None = None,
                 tenant_max_inflight: int | None = None,
                 max_retries: int = 3,
                 backoff_base_s: float = 0.05,
                 injector: FaultInjector | None = None,
                 trace: bool = False,
                 metrics: MetricsRegistry | None = None,
                 pool: str = "thread"):
        if num_workers < 1:
            raise ValueError("need at least one worker")
        if pool not in ("thread", "process"):
            raise ValueError(f"unknown pool backend {pool!r}; "
                             "expected 'thread' or 'process'")
        self.num_workers = num_workers
        #: worker backend: "thread" (GIL-bound, zero-copy in-process) or
        #: "process" (true multi-core against the shared-memory graph)
        self.pool = pool
        self.default_config = default_config
        self.cost = cost
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.tenant_max_inflight = tenant_max_inflight
        self.injector = injector
        self.plan_cache = PlanCache()
        self.admission = AdmissionController(memory_budget_bytes)

        self._graphs: dict[str, Graph] = dict(datasets or {})
        self._graph_versions: dict[str, int] = {n: 0 for n in self._graphs}
        self._queue = MultiQueue()
        self._ready: Queue = Queue()
        self._cond = threading.Condition()
        self._abort = threading.Event()
        self._stop_requested = False
        self._drain_on_stop = True
        self._started = False
        self._stopped = False
        self._start_t = 0.0
        self._workers: list[_Worker] = []
        #: process backend only: shared-memory segments + child hosts
        self._procpool = None
        self._dispatcher: threading.Thread | None = None
        #: standing subscriptions: dataset -> {sub seq -> Subscription}
        self._subscriptions: dict[str, dict[int, Subscription]] = {}
        #: per-dataset mutex serialising ``apply_updates``
        self._update_locks: dict[str, threading.Lock] = {}

        # one event stream; the registry's instruments are its one
        # counting sink (``stats()`` reads them), tracing is a sink only
        # when configured
        self.events = EventStream()
        self.emit = self.events.emit
        #: the registry every statistic of this service is counted in
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._obs = ServiceInstruments(self.metrics, gauges=self._gauges)
        self.events.add(self._obs)
        self.tracer: ServiceTracer | None = (
            ServiceTracer(num_workers, gauges=self._gauges)
            if trace else None)
        if self.tracer is not None:
            self.events.add(self.tracer)
        self.lifecycle = Lifecycle(self)

    def _gauges(self) -> dict:
        """Live state sampled by sinks (lock-free: sinks run inside
        ``emit``, which may itself be called under ``_cond``)."""
        return {"inflight": len(self.lifecycle.inflight),
                "reserved_bytes": self.admission.reserved_bytes,
                "depths": self._queue.depths()}

    # -- datasets --------------------------------------------------------------

    def register_dataset(self, name: str, graph: Graph) -> None:
        """Register (or replace) a data graph under ``name``.

        Replacing bumps the dataset's **graph version**.  A dataset with
        standing subscriptions changes only through :meth:`apply_updates`,
        which delivers the delta: a wholesale swap would leave every
        subscription's count describing a graph that is gone, so it
        raises ``ValueError``.
        """
        with self._cond:
            if self._subscriptions.get(name):
                raise ValueError(
                    f"dataset {name!r} has standing subscriptions; change "
                    "it with apply_updates, which delivers the delta")
            self._swap_dataset(name, graph)

    def _swap_dataset(self, name: str, graph: Graph) -> None:
        fresh = name not in self._graphs
        self._graphs[name] = graph
        self._graph_versions[name] = 0 if fresh else (
            self._graph_versions.get(name, 0) + 1)

    def graph_version(self, name: str) -> int:
        """Current version of a registered dataset: the seq of its
        subscriptions' latest delivery, and the shared-memory store's key
        for its snapshot."""
        return self._graph_versions.get(name, 0)

    def _resolve_graph(self, dataset: str) -> Graph:
        try:
            return self._graphs[dataset]
        except KeyError:
            raise KeyError(
                f"unknown dataset {dataset!r}; registered: "
                f"{sorted(self._graphs)}") from None

    # -- streaming subscriptions -----------------------------------------------

    def subscribe(self, request: SubscribeRequest) -> Subscription:
        """Register a standing pattern subscription against a dataset.

        Every subsequent :meth:`apply_updates` on the dataset delivers
        one signed :class:`~repro.stream.subscribe.DeltaBatch` to the
        returned handle — additions enumerated on the post-update
        snapshot, retractions on the pre-update one, each graph version
        exactly once.  With ``request.bootstrap`` the current snapshot's
        matches are delivered up front as an initial all-additions batch.
        """
        if not self._started or self._stop_requested:
            raise RuntimeError("service is not accepting requests")
        graph = self._resolve_graph(request.dataset)
        pattern = get_query(request.pattern)
        sub = Subscription(request, pattern, service=self)
        with self._cond:
            self._subscriptions.setdefault(
                request.dataset, {})[request.seq] = sub
        self.emit("subscribed", request.seq, label=request.label,
                  tenant=request.tenant, pattern=pattern.name,
                  dataset=request.dataset)
        if request.bootstrap:
            t0 = self._now()
            matches = sub.enumerator.delta_matches(graph, graph.edge_array())
            self.emit("bootstrapped", request.seq, count=len(matches))
            # a batch that never ran on the pool: enters at deliver
            self.lifecycle.deliver(DeltaTask(sub), DeltaBatch(
                seq=self.graph_version(request.dataset),
                dataset=request.dataset, inserted=(), deleted=(),
                additions=tuple(matches), retractions=(),
                count_after=len(matches), latency_s=self._now() - t0))
        return sub

    def unsubscribe(self, sub: Subscription) -> None:
        """Deregister a subscription; pending deliveries stay consumable."""
        with self._cond:
            subs = self._subscriptions.get(sub.request.dataset, {})
            subs.pop(sub.request.seq, None)
        sub._close()
        self.emit("unsubscribed", sub.request.seq,
                  batches=sub.delivered_batches, count=sub.count)

    def apply_updates(self, dataset: str, inserts=(), deletes=(),
                      timeout: float = 60.0) -> UpdateReport:
        """Apply one edge-update batch to a registered dataset.

        Produces a new immutable snapshot (``E' = (E ∪ I) \\ D``), bumps
        the dataset's graph version and fans one delta task per standing
        subscription out through the worker pool.  Blocks until every
        subscription has been notified (or ``timeout`` elapses).  Updates
        on one dataset are serialised under a per-dataset lock held from
        the snapshot read to the end of the fan-out, so no update is lost
        and delivery seqs are monotonic.
        """
        if not self._started or self._stop_requested:
            raise RuntimeError("service is not accepting updates")
        t0 = self._now()
        with self._cond:
            lock = self._update_locks.setdefault(dataset, threading.Lock())
        with lock:
            old_graph = self._resolve_graph(dataset)
            new_graph, delta = graph_apply_updates(old_graph, inserts,
                                                   deletes)
            self._swap_dataset(dataset, new_graph)
            version = self.graph_version(dataset)
            with self._cond:
                subs = list(self._subscriptions.get(dataset, {}).values())
            self.emit("graph_update", None, dataset=dataset, version=version,
                      inserted=len(delta.inserted),
                      deleted=len(delta.deleted), subscriptions=len(subs))
            work = UpdateWork(dataset, version, old_graph, new_graph, delta)
            for sub in subs:
                # coarse working-set bound for the admission ledger: each
                # Δ-edge seeds |E_q| pinned extensions whose frontier is
                # at most one adjacency list wide per placed vertex
                # (8-byte ids)
                estimate = (8.0 * delta.size * max(1, sub.pattern.num_edges)
                            * sub.pattern.num_vertices
                            * max(1.0, new_graph.avg_degree))
                task = DeltaTask(sub, work, estimate)
                self.lifecycle.reserve(task, self._now())
                self._ready.put(task)
            batches: dict[int, DeltaBatch] = {}
            try:
                for _ in subs:
                    seq, batch = work.done.get(
                        timeout=max(0.0, t0 + timeout - self._now()))
                    batches[seq] = batch
            except Empty:
                pass
        return UpdateReport(
            dataset=dataset, version=version, inserted=delta.inserted,
            deleted=delta.deleted,
            batches=tuple(batches[s.seq] for s in subs if s.seq in batches),
            wall_s=self._now() - t0, timed_out=len(batches) < len(subs))

    def stream_stats(self) -> dict:
        """Streaming-side counters (see :meth:`stats` for the query side)."""
        counters = self.events.between(self._obs.read)
        with self._cond:
            active = sum(len(s) for s in self._subscriptions.values())
        return {"subscriptions_total": counters["subscriptions"],
                "subscriptions_active": active,
                **{k: counters[k] for k in (
                    "stream_updates", "stream_batches", "stream_additions",
                    "stream_retractions", "stream_errors")}}

    # -- pool lifecycle --------------------------------------------------------

    def _new_worker(self, wid: int) -> _Worker:
        if self._procpool is not None:
            from .procpool import ProcessWorker
            return ProcessWorker(self, wid)
        return _Worker(self, wid)

    def start(self) -> "QueryService":
        if self._started:
            raise RuntimeError("service already started")
        self._started = True
        self._start_t = time.monotonic()
        if self.pool == "process":
            from .procpool import ProcessWorkerPool
            self._procpool = ProcessWorkerPool(self)
        for wid in range(self.num_workers):
            worker = self._new_worker(wid)
            self._workers.append(worker)
            worker.start()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True)
        self._dispatcher.start()
        return self

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every worker can execute (process children spawned
        and attached).  Thread pools are ready immediately; benchmarks use
        this to keep spawn cost out of throughput windows."""
        if self._procpool is not None:
            deadline = time.monotonic() + timeout
            for worker in self._workers:
                worker.wait_ready(max(0.0, deadline - time.monotonic()))

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Shut the service down.

        ``drain=True`` finishes everything already submitted first;
        ``drain=False`` cancels queued and running queries immediately.
        Either way every submitted handle reaches a terminal state before
        the pool is torn down (clean shutdown is part of the contract),
        and every shared-memory segment is unlinked exactly once.
        """
        if not self._started or self._stopped:
            return
        with self._cond:
            self._stop_requested = True
            self._drain_on_stop = drain
            subs = [s for d in self._subscriptions.values()
                    for s in d.values()]
            self._subscriptions.clear()
            self._cond.notify_all()
        for sub in subs:
            sub._close()
        assert self._dispatcher is not None
        self._dispatcher.join(timeout)
        self._abort.set()
        for worker in self._workers:
            self._ready.put(_SHUTDOWN)
        for worker in self._workers:
            worker.join(timeout=5.0)
        for worker in self._workers:
            worker.dispose()
        if self._procpool is not None:
            self._procpool.close()
        self._stopped = True

    def __enter__(self) -> "QueryService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop(drain=all(e is None for e in exc))

    # -- client API ------------------------------------------------------------

    def _now(self) -> float:
        return time.monotonic()

    def _estimate(self, request: QueryRequest, pattern, graph) -> float:
        return estimate_query_bytes(
            pattern.num_vertices, graph,
            effective_config(request, self.default_config),
            request.num_machines, self.cost or CostModel())

    def submit(self, request: QueryRequest) -> QueryHandle:
        """Admit a request into the service; returns its handle.

        Raises on malformed requests (unknown dataset/pattern); admission
        *rejection* (bound exceeds the whole budget) is delivered through
        the handle as a ``REJECTED`` outcome, not an exception.
        """
        if not self._started or self._stop_requested:
            raise RuntimeError("service is not accepting requests")
        graph = self._resolve_graph(request.dataset)
        pattern = get_query(request.pattern)
        request.priority = Priority(request.priority)
        handle = QueryHandle(request, service=self)
        now = self._now()
        estimate = self._estimate(request, pattern, graph)
        deadline = (now + request.deadline_s
                    if request.deadline_s is not None else float("inf"))
        entry = handle._entry = QueueEntry(handle, estimate, now, deadline)
        entry.pattern = pattern
        entry.graph = graph
        self.emit("submitted", request.seq, label=request.label,
                  tenant=request.tenant, deadline_s=request.deadline_s,
                  estimate_bytes=estimate, priority=request.priority.name)
        if not self.admission.admissible(estimate):
            self.emit("rejected", request.seq, label=request.label,
                      reason="memory_bound", estimate_bytes=estimate)
            self.lifecycle.deliver(entry, QueryOutcome(
                status=QueryStatus.REJECTED,
                error=(f"memory bound {estimate:.3g}B exceeds the "
                       f"service budget "
                       f"{self.admission.budget_bytes:.3g}B"),
                canonical_key=pattern.canonical_key(), attempts=0))
            return handle
        with self._cond:
            handle._set_status(QueryStatus.QUEUED)
            self._queue.push(entry)
            # under the lock the dispatcher pops with, so "queued" always
            # precedes this request's "dispatched" on the event stream
            self.emit("queued", request.seq, priority=request.priority.name)
            self._cond.notify_all()
        return handle

    def _cancel(self, handle: QueryHandle, reason: str) -> None:
        """Client-side cancel (QueryHandle.cancel routes here): abort the
        run if the entry is in flight, else mark it for the queue sweep."""
        entry = handle._entry
        with self._cond:
            if entry is None:
                return  # already delivered
            if entry.seq in self.lifecycle.inflight:
                entry.token.cancel(reason)
            else:
                entry.cancel_reason = reason
            self._cond.notify_all()

    # -- dispatcher ------------------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            with self._cond:
                self._cond.wait(timeout=0.005)
                stop = self._stop_requested
                drain = self._drain_on_stop
            self._reap_crashed_workers()
            shutdown = "service shutdown" if stop and not drain else None
            if shutdown:
                self._cancel_running(shutdown)
            self._sweep_queue(shutdown)
            self._fill_workers()
            if stop:
                with self._cond:
                    idle = (not self.lifecycle.inflight
                            and not len(self._queue))
                if idle and (not drain or self._ready.empty()):
                    return

    def _pop_task(self, now: float) -> QueueEntry | None:
        """Pop the next dispatchable entry and arm its attempt token;
        ``None`` when nothing fits."""

        def fits(e: QueueEntry) -> bool:
            tenant = e.handle.request.tenant
            if (self.tenant_max_inflight is not None
                    and self.lifecycle.tenant_load(tenant)
                    >= self.tenant_max_inflight):
                return False
            return self.admission.fits_now(e.estimate_bytes)

        entry = self._queue.pop_eligible(now, fits)
        if entry is None:
            return None
        crash_after = (self.injector.arm(entry.seq, entry.attempts + 1)
                       if self.injector else None)
        deadline = (entry.abs_deadline
                    if entry.abs_deadline != float("inf") else None)
        entry.token = _AttemptToken(deadline, crash_after, self.injector)
        return entry

    def _fill_workers(self) -> None:
        while True:
            with self._cond:
                # delta tasks occupy workers without being in flight, so
                # the gate counts dispatch units, not inflight requests
                if self.lifecycle.units >= self.num_workers:
                    return
                now = self._now()
                task = self._pop_task(now)
                if task is None:
                    return
                # same critical section as the pop: a client cancel must
                # find the entry either queued or in flight
                self.lifecycle.reserve(task, now)
            self._ready.put(task)

    def _sweep_queue(self, shutdown: str | None = None) -> None:
        """Cancel queued entries that expired or were client-cancelled —
        or, with a ``shutdown`` reason, all of them."""
        now = self._now()
        with self._cond:
            swept = self._queue.pop_where(
                lambda e: (shutdown is not None or e.abs_deadline <= now
                           or e.cancel_reason is not None))
        for entry in swept:
            reason = entry.cancel_reason or (
                "deadline exceeded" if entry.abs_deadline <= now
                else shutdown)
            self.lifecycle.deliver(entry, entry.terminal(
                QueryStatus.CANCELLED, reason, now))

    def _cancel_running(self, reason: str) -> None:
        with self._cond:
            for entry in self.lifecycle.inflight.values():
                entry.token.cancel(reason)

    def _reap_crashed_workers(self) -> None:
        """Detect dead workers, respawn them, abandon their tasks."""
        for i, worker in enumerate(self._workers):
            task = worker.current
            if worker.is_alive() or task is None:
                continue  # running, or a normal shutdown exit
            # respawn first so capacity is restored even if retry fails
            fresh = self._new_worker(worker.wid)
            self._workers[i] = fresh
            fresh.start()
            self.lifecycle.abandon(task, worker)
            worker.dispose()  # reap the corpse (dead child process, pipes)

    # -- introspection ---------------------------------------------------------

    def stats(self) -> ServiceStats:
        """A point-in-time snapshot, read from :attr:`metrics` (plus the
        counters only the plan cache and the ledger observe)."""
        c = self.events.between(self._obs.read)
        with self._cond:
            depth = self._queue.depths()
            inflight = len(self.lifecycle.inflight)
        return ServiceStats(
            **{k: c[k] for k in (
                "submitted", "completed", "cancelled", "failed", "rejected",
                "retries", "worker_crashes", "delivery_violations",
                "latency", "queue_wait", "execute")},
            inflight=inflight,
            queue_depth=depth,
            reserved_bytes=self.admission.reserved_bytes,
            budget_bytes=self.admission.budget_bytes,
            admission={**self.admission.stats_snapshot(),
                       "rejected": c["admission_rejected"]},
            plan_cache=_cache_stats(c["plan_cache_hits"],
                                    c["plan_cache_misses"], self.plan_cache),
            uptime_s=(time.monotonic() - self._start_t
                      if self._started else 0.0),
        )


def _cache_stats(hits: int, misses: int, cache) -> dict:
    """A cache's snapshot dict: its lookups (counted from events) around
    the counters only the cache itself observes."""
    total = hits + misses
    return {"hits": hits, "misses": misses, **cache.stats.as_dict(),
            "hit_rate": hits / total if total else 0.0}
