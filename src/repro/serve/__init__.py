"""``repro.serve`` — the concurrent query service.

A long-running serving tier on top of :class:`~repro.core.engine.HugeEngine`:

* **requests & handles** (:mod:`.request`) — priorities, deadlines,
  tenants, streamed chunk delivery, exactly-once outcomes;
* **admission control** (:mod:`.admission`) — Theorem-5.4-shaped memory
  reservations against a global budget;
* **plan cache** (:mod:`.plancache`) — Algorithm-1 plans keyed by the
  pattern's canonical form, shared across isomorphic requests;
* **fair scheduling** (:mod:`.queueing`) — weighted round-robin across
  priorities, EDF within, per-tenant caps;
* **the service** (:mod:`.service`) — the client API, worker pool and
  dispatcher; :mod:`.lifecycle` walks every task (query share group or
  subscription delta) through reserve → run → deliver → release, and
  :mod:`.executor` is the engine seam (thread or process behind it);
* **work sharing** (:mod:`.sharing`) — share-group formation: canonical
  plan-prefix signatures let the dispatcher run concurrently queued
  requests with a common join-unit prefix as one engine execution;
* **standing subscriptions** (:meth:`.service.QueryService.subscribe` /
  :meth:`~.service.QueryService.apply_updates`) — streaming graph
  updates fanned out through the worker pool as incremental delta
  enumeration (:mod:`repro.stream`), with signed ``+/-`` match-delta
  delivery, exactly-once per graph version;
* **load driving** (:mod:`.driver`) — seeded (optionally Zipf-skewed)
  workloads with solo-run verification;
* **observability** (:mod:`.events` and its sinks :mod:`.instruments`,
  :mod:`.tracing`) — one event stream feeding the service's metrics
  registry (admission/queue/plan-cache/crash counters, latency
  histograms; :mod:`.stats` is the snapshot read from it) and, when
  tracing is on, a wall-clock Chrome trace of every request and
  subscription.
"""

from .admission import AdmissionController, AdmissionStats, estimate_query_bytes
from .driver import DriverReport, LoadDriver, WorkloadSpec
from .instruments import ServiceInstruments
from .plancache import PlanCache, PlanCacheStats
from .queueing import PRIORITY_WEIGHTS, MultiQueue, QueueEntry
from .request import (Priority, QueryHandle, QueryOutcome, QueryRequest,
                      QueryStatus, ResultChunk)
from .service import (Executor, FaultInjector, QueryService, WorkerCrashError,
                      run_query_solo)
from .sharing import (ShareGroup, config_fingerprint, plan_signature,
                      signature_of_plan)
from .stats import ServiceStats, percentile
from .tracing import ServiceTracer
from ..stream.subscribe import (DeltaBatch, SubscribeRequest, Subscription,
                                UpdateReport)

__all__ = [
    "AdmissionController", "AdmissionStats", "estimate_query_bytes",
    "DriverReport", "LoadDriver", "WorkloadSpec",
    "PlanCache", "PlanCacheStats",
    "PRIORITY_WEIGHTS", "MultiQueue", "QueueEntry",
    "Priority", "QueryHandle", "QueryOutcome", "QueryRequest",
    "QueryStatus", "ResultChunk",
    "Executor", "FaultInjector", "QueryService", "WorkerCrashError",
    "run_query_solo",
    "ShareGroup", "config_fingerprint", "plan_signature",
    "signature_of_plan",
    "ServiceStats", "percentile",
    "ServiceInstruments", "ServiceTracer",
    "DeltaBatch", "SubscribeRequest", "Subscription", "UpdateReport",
]
