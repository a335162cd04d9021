"""The concurrent query service: worker pool, dispatch, fault tolerance.

``QueryService`` multiplexes many :class:`QueryRequest`\\ s over a pool of
real worker threads, each driving its own simulated cluster +
:class:`~repro.core.engine.HugeEngine` (clusters are never shared across
threads — the metrics ledger is per-run mutable state).  The dispatcher
thread owns the :class:`MultiQueue`; everything a request *holds* — its
admission reservation, its place in the in-flight and per-tenant tables,
its one terminal delivery — is owned by the
:class:`~repro.serve.lifecycle.Lifecycle`:

1. **submit** — the pattern is resolved and canonicalised, its
   Theorem-5.4 reservation estimated; a result-cache hit or a request
   whose bound exceeds the whole budget is delivered immediately,
   otherwise it queues.
2. **reserve** — the fair scheduler picks the next entry whose
   reservation fits the free budget and whose tenant is under its cap,
   gathers share-group followers behind it, and the task (a
   :class:`~repro.serve.sharing.ShareGroup`, of one for a solo query)
   goes to the worker pool with its reservations taken.
3. **run** — the worker gets-or-plans the canonical plan, runs the
   engine under a per-attempt :class:`CancelToken` (deadline + client
   cancel) and remaps matches to the request's vertex order.
4. **deliver → release** — every member gets exactly one terminal
   outcome and its reservation back.
5. **abandon** — an injected :class:`WorkerCrashError` kills the worker
   thread mid-run; the dispatcher respawns it and the lifecycle releases
   the task's reservations and requeues its members with backoff.

``apply_updates`` fans one :class:`~repro.serve.lifecycle.DeltaTask` per
subscription through the same steps.  Every transition is announced once
on the event stream (:mod:`repro.serve.events`); the metrics registry
(which :meth:`QueryService.stats` reads), tracing and the flight
recorder are sinks on it.

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
from ..obs.flight import FlightRecorder
from ..obs.metrics import MetricsRegistry
from .admission import AdmissionController, estimate_query_bytes
from .events import EventStream, flight_sink
from .executor import (Executor, effective_config, remap_matches,
                       resolve_pattern, run_query_solo)
from .instruments import ServiceInstruments
from .lifecycle import DeltaTask, Lifecycle, UpdateWork, WorkerCrashError
from .plancache import PlanCache
from .queueing import MultiQueue, QueueEntry
from .request import (Priority, QueryHandle, QueryOutcome, QueryRequest,
                      QueryStatus)
from .resultcache import ResultCache
from .sharing import MAX_SHARE_GROUP, ShareGroup, config_fingerprint
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
        #: the task being run (ShareGroup or DeltaTask), if any
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
                 flight: FlightRecorder | None = None,
                 sharing: bool = False,
                 result_cache_bytes: float = 0.0,
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
        #: batch concurrently queued requests with shared plan prefixes
        #: into one engine run (opt-in: a shared run's simulated report
        #: is the group's ledger, not any member's solo report)
        self.sharing = sharing
        self.default_config = default_config
        self.cost = cost
        self.max_retries = max_retries
        self.backoff_base_s = backoff_base_s
        self.tenant_max_inflight = tenant_max_inflight
        self.injector = injector
        self.plan_cache = PlanCache()
        self.admission = AdmissionController(memory_budget_bytes)
        self.result_cache: ResultCache | None = (
            ResultCache(result_cache_bytes, ledger=self.admission)
            if result_cache_bytes > 0 else None)

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
        # counting sink (``stats()`` reads them), tracing and the flight
        # recorder are sinks only when configured
        self.events = EventStream()
        self.emit = self.events.emit
        #: the registry every statistic of this service is counted in
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._obs = ServiceInstruments(self.metrics, gauges=self._gauges)
        self.tracer: ServiceTracer | None = (
            ServiceTracer(num_workers, gauges=self._gauges)
            if trace else None)
        for sink in (self._obs, self.tracer,
                     flight_sink(flight) if flight is not None else None):
            if sink is not None:
                self.events.add(sink)
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

        Re-registering bumps the dataset's **graph version**: cached
        results keyed on the old version become unreachable and are
        eagerly invalidated.
        """
        fresh = name not in self._graphs
        self._graphs[name] = graph
        self._graph_versions[name] = 0 if fresh else (
            self._graph_versions.get(name, 0) + 1)
        if not fresh and self.result_cache is not None:
            self.result_cache.invalidate(dataset=name)

    def graph_version(self, name: str) -> int:
        """Current version of a registered dataset (result-cache keying)."""
        return self._graph_versions.get(name, 0)

    def invalidate_results(self, dataset: str | None = None,
                           tenant: str | None = None) -> int:
        """Explicitly drop cached results (both filters ``None`` = all);
        returns how many entries were invalidated."""
        if self.result_cache is None:
            return 0
        return self.result_cache.invalidate(dataset=dataset, tenant=tenant)

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
        pattern = resolve_pattern(request)
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
        the dataset's graph version through :meth:`register_dataset` —
        which invalidates stale result-cache entries — and fans one
        delta task per standing subscription out through the worker
        pool.  Blocks until every subscription has been notified (or
        ``timeout`` elapses).  Updates on one dataset are serialised
        under a per-dataset lock held from the snapshot read to the end
        of the fan-out, so no update is lost and delivery seqs are
        monotonic.
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
            self.register_dataset(dataset, new_graph)
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
        if self.result_cache is not None:
            # drop all cached results so the admission ledger drains to
            # zero (the serving memory oracle asserts this post-stop)
            self.result_cache.clear()
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
        pattern = resolve_pattern(request)
        request.priority = Priority(request.priority)
        handle = QueryHandle(request, service=self)
        now = self._now()
        estimate = self._estimate(request, pattern, graph)
        deadline = (now + request.deadline_s
                    if request.deadline_s is not None else float("inf"))
        entry = handle._entry = QueueEntry(handle, estimate, now, deadline)
        entry.pattern = pattern
        entry.graph = graph
        if self.sharing or self.result_cache is not None:
            entry.canonical_key = pattern.canonical_key()
            entry.config_fp = config_fingerprint(
                effective_config(request, self.default_config))
            entry.plan_key = PlanCache.key(entry.canonical_key,
                                           request.dataset, graph,
                                           request.num_machines)
        self.emit("submitted", request.seq, label=request.label,
                  tenant=request.tenant, deadline_s=request.deadline_s,
                  estimate_bytes=estimate, priority=request.priority.name)

        if self.result_cache is not None and not request.stream:
            hit = self.result_cache.get(self._result_cache_key(entry),
                                        need_matches=request.collect)
            self.emit("result_cache", request.seq, hit=hit is not None,
                      label=request.label, count=hit.count if hit else None)
            if hit is not None:
                # answered without queueing or touching the engine: a
                # member that never ran enters at deliver
                _canon, mapping = pattern.canonical_form()
                self.lifecycle.deliver(entry, QueryOutcome(
                    status=QueryStatus.COMPLETED, count=hit.count,
                    matches=(list(remap_matches(pattern, mapping,
                                                hit.matches))
                             if request.collect else None),
                    result_cache_hit=True,
                    canonical_key=entry.canonical_key, attempts=0,
                    total_s=self._now() - entry.submit_t))
                return handle

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
            self._cond.notify_all()
        self.emit("queued", request.seq, priority=request.priority.name)
        return handle

    # -- result cache ----------------------------------------------------------

    def _result_cache_key(self, entry: QueueEntry) -> tuple:
        req = entry.handle.request
        return ResultCache.key(
            entry.canonical_key, req.dataset,
            self._graph_versions.get(req.dataset, 0), req.tenant,
            req.num_machines, req.workers_per_machine, req.partition_seed,
            entry.config_fp)

    def _store_result(self, entry: QueueEntry, count: int,
                      canonical_matches: list | None) -> None:
        """Insert a completed request's answer into the result cache."""
        if self.result_cache is None or entry.canonical_key is None:
            return
        req = entry.handle.request
        if req.stream:
            return  # streamed matches are gone; nothing worth caching
        self.result_cache.put(
            self._result_cache_key(entry), count,
            canonical_matches if req.collect else None,
            dataset=req.dataset, tenant=req.tenant)

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

    def _share_match(self, leader: QueueEntry):
        """Follower predicate: same dataset/cluster/config, and either the
        same canonical pattern (full dedup — no signature needed) or a
        plan-cache signature starting with the leader's scan spec.
        Deadlines stay solo (a group run cannot abort for one member's
        deadline without killing the others'), and so does streaming."""
        lreq = leader.handle.request
        leader_sig = self.plan_cache.signature(leader.plan_key)

        def match(e: QueueEntry) -> bool:
            req = e.handle.request
            if (e.canonical_key is None or req.stream
                    or e.abs_deadline != float("inf")
                    or e.graph is not leader.graph
                    or req.dataset != lreq.dataset
                    or req.num_machines != lreq.num_machines
                    or req.workers_per_machine != lreq.workers_per_machine
                    or req.partition_seed != lreq.partition_seed
                    or e.config_fp != leader.config_fp):
                return False
            if e.canonical_key == leader.canonical_key:
                return True  # isomorphic: identical canonical plan
            if leader_sig is None:
                return False
            sig = self.plan_cache.signature(e.plan_key)
            return sig is not None and sig[0] == leader_sig[0]

        return match

    def _pop_task(self, now: float) -> ShareGroup | None:
        """Pop the next dispatchable leader plus (with sharing on) its
        compatible followers as one task; ``None`` when nothing fits."""
        taken_bytes = 0.0
        taken_tenants: dict[str, int] = {}

        def fits(e: QueueEntry) -> bool:
            # cumulative: budget/tenant headroom shrinks with every
            # member already taken into the task
            tenant = e.handle.request.tenant
            if (self.tenant_max_inflight is not None
                    and self.lifecycle.tenant_load(tenant)
                    + taken_tenants.get(tenant, 0)
                    >= self.tenant_max_inflight):
                return False
            return self.admission.fits_now(taken_bytes + e.estimate_bytes)

        def take(e: QueueEntry) -> bool:
            nonlocal taken_bytes
            taken_bytes += e.estimate_bytes
            tenant = e.handle.request.tenant
            taken_tenants[tenant] = taken_tenants.get(tenant, 0) + 1
            return True

        leader = self._queue.pop_eligible(now, fits)
        if leader is None:
            return None
        take(leader)
        members = [leader]
        if self.sharing:
            match = self._share_match(leader)
            # a leader that would not match itself (streaming, deadline,
            # no canonical key) cannot lead a group
            if match(leader):
                members += self._queue.pop_matching(
                    now, fits, lambda e: match(e) and take(e),
                    MAX_SHARE_GROUP - 1)
        crash_after = (self.injector.arm(leader.seq, leader.attempts + 1)
                       if self.injector else None)
        deadline = (leader.abs_deadline
                    if leader.abs_deadline != float("inf") else None)
        token = _AttemptToken(deadline, crash_after, self.injector)
        for e in members:
            # alone, the member's token is the run's; in a larger group it
            # is only a delivery-time cancel flag (cancelling one member
            # must not abort the group's engine run)
            e.token = token if len(members) == 1 else CancelToken()
        return ShareGroup(members, token)

    def _fill_workers(self) -> None:
        while True:
            with self._cond:
                # groups occupy ONE worker but many inflight entries, so
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
                # member tokens of a larger group are delivery-time flags
                # only; the group token is what the engine actually polls
                entry.token.cancel(reason)
                entry.group.token.cancel(reason)

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
        counters only the caches and the ledger observe)."""
        c = self.events.between(self._obs.read)
        with self._cond:
            depth = self._queue.depths()
            inflight = len(self.lifecycle.inflight)
        return ServiceStats(
            **{k: c[k] for k in (
                "submitted", "completed", "cancelled", "failed", "rejected",
                "retries", "worker_crashes", "delivery_violations",
                "shared_groups", "shared_requests", "result_cache_hits",
                "latency", "queue_wait", "execute")},
            inflight=inflight,
            queue_depth=depth,
            reserved_bytes=self.admission.reserved_bytes,
            budget_bytes=self.admission.budget_bytes,
            admission={**self.admission.stats_snapshot(),
                       "rejected": c["admission_rejected"]},
            plan_cache=_cache_stats(c["plan_cache_hits"],
                                    c["plan_cache_misses"], self.plan_cache),
            result_cache=(_cache_stats(c["result_cache_hits"],
                                       c["result_cache_misses"],
                                       self.result_cache)
                          if self.result_cache is not None else {}),
            uptime_s=(time.monotonic() - self._start_t
                      if self._started else 0.0),
        )


def _cache_stats(hits: int, misses: int, cache) -> dict:
    """A cache's snapshot dict: its lookups (counted from events) around
    the counters only the cache itself observes."""
    total = hits + misses
    return {"hits": hits, "misses": misses, **cache.stats.as_dict(),
            "hit_rate": hits / total if total else 0.0}
