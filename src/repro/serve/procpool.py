"""Process worker backend: true multi-core serving over a shared graph.

``QueryService(pool="process")`` swaps each worker thread's in-process
:class:`~repro.serve.service.Executor` for a :class:`RemoteExecutor`
fronting one long-lived child **process** — the BENU shape (PAPERS.md):
k independent compute processes against one read-only copy of the data
graph in POSIX shared memory (:mod:`repro.core.shm`).  Threads keep the
queueing, admission and delivery machinery (cheap, IO-ish, lock-bound);
children do the enumeration compute, so wall-clock throughput scales
with cores instead of saturating at the GIL.

Protocol (one duplex pipe per worker, strictly request/reply):

* parent ships a picklable :class:`WorkerTask` — stripped requests +
  patterns, the :class:`~repro.core.shm.SharedGraphHandle`, the
  absolute wall-clock deadline (``CLOCK_MONOTONIC`` is system-wide on
  Linux, so absolute deadlines are valid cross-process) and the armed
  crash point, tagged with a **generation** number;
* the child attaches the graph (zero-copy), runs the exact same
  ``Executor.execute`` code path the thread backend runs, and replies
  ``("ok" | "cancelled" | "failed", generation, payload)``;
* cooperative cancellation crosses the boundary through a shared int
  cell: the parent writes the task's generation into the cell, the
  child's :class:`_SharedCellToken` observes it at the scheduler's poll
  point and aborts — stale writes for earlier generations are ignored;
* an injected :class:`WorkerCrashError` makes the child ``os._exit``
  without replying — genuine process death.  The parent detects the
  corpse (EOF / liveness probe), raises ``WorkerCrashError`` into the
  worker thread, and the dispatcher's existing reap/respawn/requeue
  path recovers the query with exactly-once delivery intact.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import time
from ctypes import c_long
from dataclasses import dataclass, replace

from ..cluster.cost import CostModel
from ..cluster.errors import QueryCancelledError, ReproError
from ..core.cancel import CancelToken
from ..core.engine import EngineConfig
from ..core.shm import SharedGraphHandle, SharedGraphStore
from ..graph.graph import Graph
from ..query.pattern import QueryGraph
from .plancache import PlanCache
from .request import QueryRequest
from .service import Executor, WorkerCrashError, _Worker

__all__ = ["ProcessWorkerPool", "ProcessWorker", "RemoteExecutor",
           "WorkerTask", "RemoteWorkerError"]

#: child exit code for a simulated hard crash (diagnostic only; the
#: parent keys off process death, not the code)
_CRASH_EXIT = 13


class RemoteWorkerError(ReproError):
    """A child-process failure whose original exception does not pickle;
    carries the formatted ``TypeName: message`` string instead."""


@dataclass(frozen=True)
class WorkerTask:
    """One unit of work shipped to a worker process (picklable)."""

    generation: int
    """Per-host monotonic task id; the cancel cell carries the generation
    being cancelled so stale writes never abort a later task."""

    requests: tuple[QueryRequest, ...]
    patterns: tuple[QueryGraph, ...]
    graph: SharedGraphHandle

    deadline: float | None
    """Absolute ``time.monotonic`` deadline (system-wide clock)."""

    crash_after: int | None
    """Injected-crash poll count (fault-injection tests), if armed."""


def _strip_request(req: QueryRequest) -> QueryRequest:
    """Drop the per-attempt cancellation token from a request's config —
    tokens hold no spawn-safe state and the child builds its own."""
    cfg = req.config
    if cfg is not None and cfg.cancellation is not None:
        req = replace(req, config=replace(cfg, cancellation=None))
    return req


def _portable_exc(exc: BaseException) -> BaseException:
    """The exception itself if it survives pickling, else a
    :class:`RemoteWorkerError` carrying its formatted form."""
    try:
        pickle.loads(pickle.dumps(exc))
        return exc
    except Exception:
        return RemoteWorkerError(f"{type(exc).__name__}: {exc}")


class _SharedCellToken(CancelToken):
    """Child-side cancellation token backed by the host's shared cell.

    The parent relays a cancel by writing the task's generation into the
    cell; the token observes it at the next scheduler poll.  Deadlines
    fire locally off the same system-wide monotonic clock the parent
    used to compute them.  An armed ``crash_after`` raises
    :class:`WorkerCrashError` through the poll point exactly as the
    thread backend's ``_AttemptToken`` does.
    """

    __slots__ = ("_cell", "_generation", "_crash_after")

    def __init__(self, cell, generation: int, deadline: float | None = None,
                 crash_after: int | None = None):
        super().__init__(deadline=deadline)
        self._cell = cell
        self._generation = generation
        self._crash_after = crash_after

    def on_poll(self) -> None:
        if self._crash_after is not None and self.polls >= self._crash_after:
            self._crash_after = None
            raise WorkerCrashError("injected worker crash")
        if self._cell.value == self._generation:
            self.cancel("cancelled")


def _worker_main(wid: int, conn, cell,
                 default_config: EngineConfig | None,
                 cost: CostModel | None) -> None:
    """Child process main loop: attach, execute, reply — forever."""
    executor = Executor(plan_cache=PlanCache(),
                        default_config=default_config, cost=cost)
    conn.send(("ready", -1, os.getpid()))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return  # parent died or closed the pipe: quiet exit
        if task is None:
            return  # polite shutdown
        gen = task.generation
        try:
            graph = task.graph.attach()
            token = _SharedCellToken(cell, gen, deadline=task.deadline,
                                     crash_after=task.crash_after)
            payload = executor.execute(list(task.requests), graph,
                                       list(task.patterns), token=token)
            conn.send(("ok", gen, payload))
        except WorkerCrashError:
            # simulated hard death: no reply, no cleanup — the parent
            # must recover from genuine process loss
            os._exit(_CRASH_EXIT)
        except QueryCancelledError as exc:
            conn.send(("cancelled", gen, exc.reason))
        except BaseException as exc:  # noqa: BLE001 - process boundary
            conn.send(("failed", gen, _portable_exc(exc)))


class ProcessHost:
    """Parent-side handle on one worker process: pipe, cancel cell,
    liveness, zombie reaping."""

    def __init__(self, ctx, wid: int, default_config: EngineConfig | None,
                 cost: CostModel | None):
        self.wid = wid
        self.conn, child_conn = ctx.Pipe(duplex=True)
        #: shared cancel cell: holds the generation being cancelled
        self.cell = ctx.Value(c_long, 0, lock=False)
        self.generation = 0
        self.disposed = False
        self._ready = False
        self.proc = ctx.Process(
            target=_worker_main,
            args=(wid, child_conn, self.cell, default_config, cost),
            name=f"repro-serve-proc{wid}", daemon=True)
        self.proc.start()
        child_conn.close()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _handle_oob(self, msg) -> None:
        if msg[0] == "ready":
            self._ready = True

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until the child has imported and sent its hello."""
        deadline = time.monotonic() + timeout
        while not self._ready:
            if not self.proc.is_alive():
                raise WorkerCrashError(
                    f"worker process {self.wid} died during startup")
            try:
                if self.conn.poll(0.05):
                    self._handle_oob(self.conn.recv())
            except (EOFError, OSError):
                raise WorkerCrashError(
                    f"worker process {self.wid} died during startup")
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"worker process {self.wid} not ready in {timeout}s")

    def run(self, task: WorkerTask, parent_token: CancelToken | None):
        """Ship one task and block for its reply, relaying cancellation
        and watching for process death.

        Raises :class:`WorkerCrashError` if the child dies before
        replying; otherwise returns the ``(tag, generation, payload)``
        message.
        """
        self.generation += 1
        gen = self.generation
        task = replace(task, generation=gen)
        try:
            self.conn.send(task)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerCrashError(
                f"worker process {self.wid} (pid {self.pid}) is gone: "
                f"{exc}") from None
        relayed = False
        while True:
            try:
                if self.conn.poll(0.02):
                    msg = self.conn.recv()
                    if msg[0] == "ready":
                        self._handle_oob(msg)
                        continue
                    if msg[1] != gen:
                        continue  # stale reply from an abandoned attempt
                    return msg
            except (EOFError, OSError):
                raise WorkerCrashError(
                    f"worker process {self.wid} (pid {self.pid}) died "
                    "mid-query") from None
            if not self.proc.is_alive():
                # drain a reply that raced the death notification
                try:
                    if self.conn.poll(0.2):
                        msg = self.conn.recv()
                        if msg[0] != "ready" and msg[1] == gen:
                            return msg
                except (EOFError, OSError):
                    pass
                raise WorkerCrashError(
                    f"worker process {self.wid} (pid {self.pid}) died "
                    "mid-query")
            if (parent_token is not None and not relayed
                    and parent_token.cancelled):
                # relay: the child's token sees the cell at its next poll
                self.cell.value = gen
                relayed = True

    def dispose(self) -> None:
        """Shut the child down and reap it (idempotent)."""
        if self.disposed:
            return
        self.disposed = True
        try:
            self.conn.send(None)
        except Exception:
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        try:
            self.conn.close()
        except Exception:
            pass


class RemoteExecutor:
    """Drop-in for :class:`~repro.serve.service.Executor` that forwards
    execution to a worker process.

    Same call signatures, same exception surface: engine errors re-raise
    with their original type (when picklable), cancellations surface as
    :class:`QueryCancelledError` with the parent token's reason, and
    process death raises :class:`WorkerCrashError` so the dispatcher's
    thread-backend recovery path applies unchanged.
    """

    def __init__(self, service, host: ProcessHost):
        self.service = service
        self.host = host

    def _task(self, reqs: list[QueryRequest], graph: Graph,
              patterns: list[QueryGraph],
              token: CancelToken | None) -> WorkerTask:
        svc = self.service
        req0 = reqs[0]
        store: SharedGraphStore = svc._procpool.store
        version = svc._graph_versions.get(req0.dataset, 0)
        return WorkerTask(
            generation=0,
            requests=tuple(_strip_request(r) for r in reqs),
            patterns=tuple(patterns),
            graph=store.handle(req0.dataset, graph, version=version),
            deadline=getattr(token, "deadline", None),
            crash_after=getattr(token, "_crash_after", None))

    def execute(self, reqs: list[QueryRequest], graph: Graph,
                patterns: list[QueryGraph],
                plan_keys: list[tuple | None] | None = None,
                token: CancelToken | None = None) -> list:
        # plan_keys are parent-cache keys; the child recomputes its own
        task = self._task(reqs, graph, patterns, token)
        try:
            tag, _gen, payload = self.host.run(task, token)
        except WorkerCrashError:
            if (task.crash_after is not None
                    and self.service.injector is not None):
                # the injected crash fired inside the child, which cannot
                # reach the parent's injector; account for it here
                self.service.injector.fired()
            raise
        if tag == "cancelled":
            reason = payload
            if (token is not None and token.cancelled
                    and reason == "cancelled"):
                # the child only sees a generic shared flag; the parent
                # token knows why the cancel was requested
                reason = token.reason
            raise QueryCancelledError(reason)
        if tag == "failed":
            raise payload
        return payload


class ProcessWorker(_Worker):
    """A pool worker whose compute runs in a child process."""

    backend = "process"

    def _make_executor(self, service) -> RemoteExecutor:
        self.host = service._procpool.new_host(self.wid)
        return RemoteExecutor(service, self.host)

    @property
    def pid(self) -> int:
        return self.host.pid

    def wait_ready(self, timeout: float = 30.0) -> None:
        self.host.wait_ready(timeout)

    def dispose(self) -> None:
        self.host.dispose()


class ProcessWorkerPool:
    """Owns the process backend's shared state: the spawn context, the
    shared-memory graph store, and every child host ever created (so
    crashed corpses are still reaped and segments unlinked once)."""

    def __init__(self, service):
        self.service = service
        self.ctx = mp.get_context("spawn")
        self.store = SharedGraphStore()
        self._hosts: list[ProcessHost] = []
        self.closed = False

    def new_host(self, wid: int) -> ProcessHost:
        if self.closed:
            raise RuntimeError("process pool is closed")
        svc = self.service
        host = ProcessHost(self.ctx, wid, svc.default_config, svc.cost)
        self._hosts.append(host)
        return host

    def close(self) -> None:
        """Dispose every host (idempotent), then unlink all shared
        memory exactly once."""
        if self.closed:
            return
        self.closed = True
        for host in self._hosts:
            host.dispose()
        self.store.close()
