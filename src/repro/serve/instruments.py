"""The serving tier's one counting sink, over the service's registry.

Every :class:`~repro.serve.service.QueryService` owns one
:class:`~repro.obs.metrics.MetricsRegistry` (its ``metrics=`` argument,
or a private one) and registers one :class:`ServiceInstruments` on its
event stream (:mod:`repro.serve.events`).  Each lifecycle fact —
submission, admission decision, plan-cache lookup, crash, retry,
terminal outcome, stream batch — is counted exactly once, here;
``QueryService.stats()`` and ``stream_stats()`` are reads of these
families (:meth:`ServiceInstruments.read` and the
latency histograms' :meth:`~repro.obs.metrics.Histogram.summary`), so
the ``stats()`` dicts and the registry's JSON snapshot (which ``serve
--json`` / ``stream --json`` print under ``"metrics"``) cannot disagree.
Plan-cache lookups are counted from the ``planned`` events, which also
carry the lookups a process worker makes in its own cache.

Counters only a component can observe stay with that component: the
plan cache's inserts / overwrites / evictions, and the admission
ledger's admitted / releases / underflows / peak.
"""

from __future__ import annotations

from typing import Callable

from ..obs.metrics import MetricsRegistry

__all__ = ["ServiceInstruments"]


class ServiceInstruments:
    """Metric families and the event-stream sink that feeds them.

    ``gauges`` samples the live service state —
    ``{"inflight": ..., "reserved_bytes": ..., "depths": ...}`` — whenever
    an event moves it.
    """

    def __init__(self, registry: MetricsRegistry,
                 gauges: Callable[[], dict]):
        self._gauges = gauges
        #: label children, resolved on first use of each distinct value
        #: (sinks run serialised under the stream's lock)
        self._children: dict = {}
        self.submitted = registry.counter(
            "repro_serve_submitted_total", "requests submitted", ("tenant",))
        self.completed = registry.counter(
            "repro_serve_completed_total", "requests completed", ("tenant",))
        self.requests = registry.counter(
            "repro_serve_requests_total", "terminal request outcomes",
            ("status",))
        self.delivery_violations = registry.counter(
            "repro_serve_delivery_violations_total",
            "terminal outcomes offered to an already finished handle")
        self.admission = registry.counter(
            "repro_serve_admission_total", "admission decisions",
            ("decision", "reason"))
        self.queue_depth = registry.gauge(
            "repro_serve_queue_depth", "queued requests per priority class",
            ("priority",))
        self.inflight = registry.gauge(
            "repro_serve_inflight", "requests currently executing")
        self.reserved_bytes = registry.gauge(
            "repro_serve_reserved_bytes", "admission ledger reservation")
        self.plan_cache = registry.counter(
            "repro_serve_plan_cache_total", "canonical plan-cache lookups",
            ("result",))
        self.crashes = registry.counter(
            "repro_serve_worker_crashes_total",
            "workers lost mid-query, by pool backend", ("backend",))
        self.retries = registry.counter(
            "repro_serve_retries_total",
            "crash-recovery requeues, by pool backend", ("backend",))
        self.deadline_missed = registry.counter(
            "repro_serve_deadline_missed_total",
            "requests cancelled for missing their deadline")
        self.latency = registry.histogram(
            "repro_serve_latency_seconds", "end-to-end request latency")
        self.queue_wait = registry.histogram(
            "repro_serve_queue_wait_seconds", "submit-to-dispatch wait")
        self.execute = registry.histogram(
            "repro_serve_execute_seconds",
            "dispatch-to-completion execution time")
        self.stream_updates = registry.counter(
            "repro_stream_updates_total", "graph update batches applied",
            ("dataset",))
        self.stream_deltas = registry.counter(
            "repro_stream_deltas_emitted_total",
            "standing-subscription match deltas emitted, by sign", ("sign",))
        self.stream_errors = registry.counter(
            "repro_stream_batch_errors_total",
            "delta batches delivered with an error")
        self.stream_subscribed = registry.counter(
            "repro_stream_subscribed_total",
            "standing subscriptions registered")
        self.stream_subscriptions = registry.gauge(
            "repro_stream_subscriptions", "active standing subscriptions")
        self.stream_batch_latency = registry.histogram(
            "repro_stream_batch_latency_seconds",
            "per-subscription delta enumeration latency for one update batch")

    def _child(self, family, *labels: str):
        child = self._children.get((family, labels))
        if child is None:
            child = self._children[family, labels] = family.labels(*labels)
        return child

    def _inc(self, counter, *labels: str, by: float = 1.0) -> None:
        counter.inc_child(self._child(counter, *labels), by)

    def __call__(self, kind: str, seq: int | None, f: dict) -> None:
        """Event-stream sink."""
        if kind == "submitted":
            self._inc(self.submitted, f["tenant"])
        elif kind == "rejected":
            self._inc(self.admission, "reject", f["reason"])
        elif kind == "queued":
            self._inc(self.admission, "accept", "fits")
        elif kind == "planned":
            self._inc(self.plan_cache, "hit" if f["cache_hit"] else "miss")
        elif kind == "crash":
            self._inc(self.crashes, f["backend"])
        elif kind == "retry_scheduled":
            self._inc(self.retries, f["backend"])
        elif kind == "finished":
            self._finished(f)
        elif kind == "graph_update":
            self._inc(self.stream_updates, f["dataset"])
        elif kind == "subscribed":
            self._inc(self.stream_subscribed)
            self.stream_subscriptions.inc()
        elif kind == "unsubscribed":
            self.stream_subscriptions.dec()
        elif kind == "delta_batch":
            for sign, n in (("+", f["additions"]), ("-", f["retractions"])):
                if n:
                    self._inc(self.stream_deltas, sign, by=float(n))
            if f["error"] is not None:
                self._inc(self.stream_errors)
            self.stream_batch_latency.observe(f["latency_s"])
        if kind in ("queued", "dispatched", "finished"):
            g = self._gauges()
            self.inflight.set(g["inflight"])
            self.reserved_bytes.set(g["reserved_bytes"])
            for priority, depth in g["depths"].items():
                self.queue_depth.set_child(
                    self._child(self.queue_depth, priority), depth)

    def _finished(self, f: dict) -> None:
        if not f["delivered"]:
            self._inc(self.delivery_violations)
            return
        self._inc(self.requests, f["status"])
        if f["status"] == "completed":
            self._inc(self.completed, f["tenant"])
            self.latency.observe(f["total_s"])
            self.queue_wait.observe(f["queue_wait_s"])
            self.execute.observe(f["execute_s"])
        elif f["error"] == "deadline exceeded":
            self._inc(self.deadline_missed)

    def read(self) -> dict:
        """Every event count ``stats()`` and ``stream_stats()`` report,
        plus the three request-latency summaries."""
        status, sign = self.requests.total, self.stream_deltas.total
        counts = {name: int(value) for name, value in {
            "submitted": self.submitted.total(),
            "completed": status(status="completed"),
            "cancelled": status(status="cancelled"),
            "failed": status(status="failed"),
            "rejected": status(status="rejected"),
            "admission_rejected": self.admission.total(decision="reject"),
            "retries": self.retries.total(),
            "worker_crashes": self.crashes.total(),
            "delivery_violations": self.delivery_violations.total(),
            "plan_cache_hits": self.plan_cache.total(result="hit"),
            "plan_cache_misses": self.plan_cache.total(result="miss"),
            "subscriptions": self.stream_subscribed.total(),
            "stream_updates": self.stream_updates.total(),
            "stream_batches": self.stream_batch_latency.count,
            "stream_additions": sign(sign="+"),
            "stream_retractions": sign(sign="-"),
            "stream_errors": self.stream_errors.total(),
        }.items()}
        return {**counts, "latency": self.latency.summary(),
                "queue_wait": self.queue_wait.summary(),
                "execute": self.execute.summary()}
