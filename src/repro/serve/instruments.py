"""Registry instrumentation for the serving tier.

One :class:`ServiceInstruments` per :class:`~repro.serve.service.QueryService`
holds the pre-resolved metric handles the service's hot paths update —
admission decisions by reason, per-priority queue depth, plan-cache
outcomes, per-tenant submit/complete counters, worker crashes and
retries, and the three wall-clock latency histograms.  The latency
histograms double as the backing store of the service's
:class:`~repro.serve.stats.LatencyRecorder`\\ s, so the ``snapshot()``
percentile dicts and the Prometheus exposition report the same samples.

Everything here is observational: the instruments are a sink on the
service's event stream (:mod:`repro.serve.events`), registered only when
a registry is attached.
"""

from __future__ import annotations

from typing import Callable

from ..obs.metrics import MetricsRegistry

__all__ = ["ServiceInstruments"]


class ServiceInstruments:
    """Pre-resolved metric handles for one service instance.

    ``gauges`` (optional) samples the live service state —
    ``{"inflight": ..., "reserved_bytes": ..., "depths": ...}`` — whenever
    an event moves it.
    """

    def __init__(self, registry: MetricsRegistry,
                 gauges: Callable[[], dict] | None = None):
        self.registry = registry
        self._gauges = gauges
        self.submitted = registry.counter(
            "serve_submitted_total", "requests submitted", ("tenant",))
        self.completed = registry.counter(
            "serve_completed_total", "requests completed", ("tenant",))
        self.requests = registry.counter(
            "serve_requests_total", "terminal request outcomes", ("status",))
        self.admission = registry.counter(
            "serve_admission_total", "admission decisions",
            ("decision", "reason"))
        self.queue_depth = registry.gauge(
            "serve_queue_depth", "queued requests per priority class",
            ("priority",))
        self.inflight = registry.gauge(
            "serve_inflight", "requests currently executing")
        self.reserved_bytes = registry.gauge(
            "serve_reserved_bytes", "admission ledger reservation")
        self.plan_cache = registry.counter(
            "serve_plan_cache_total", "canonical plan-cache lookups",
            ("result",))
        self.result_cache = registry.counter(
            "serve_result_cache_total", "result-cache lookups", ("result",))
        self.share_group = registry.histogram(
            "serve_share_group_size",
            "requests per dispatched share group", reservoir=10_000)
        self.crashes = registry.counter(
            "serve_worker_crashes_total",
            "workers lost mid-query, by pool backend", ("backend",))
        self.retries = registry.counter(
            "serve_retries_total", "crash-recovery requeues, by pool backend",
            ("backend",))
        self.deadline_missed = registry.counter(
            "serve_deadline_missed_total",
            "requests cancelled for missing their deadline")
        self.latency = registry.histogram(
            "serve_latency_seconds", "end-to-end request latency",
            time_base="wall", reservoir=10_000)
        self.queue_wait = registry.histogram(
            "serve_queue_wait_seconds", "submit-to-dispatch wait",
            time_base="wall", reservoir=10_000)
        self.execute = registry.histogram(
            "serve_execute_seconds", "dispatch-to-completion execution time",
            time_base="wall", reservoir=10_000)
        self.stream_updates = registry.counter(
            "stream_updates_total", "graph update batches applied",
            ("dataset",))
        self.stream_deltas = registry.counter(
            "stream_deltas_emitted_total",
            "standing-subscription match deltas emitted, by sign", ("sign",))
        self.stream_subscriptions = registry.gauge(
            "stream_subscriptions", "active standing subscriptions")
        self.stream_batch_latency = registry.histogram(
            "stream_batch_latency_seconds",
            "per-subscription delta enumeration latency for one update batch",
            time_base="wall", reservoir=10_000)

    @staticmethod
    def _inc(counter, *labels: str, by: float = 1.0) -> None:
        counter.inc_child(counter.labels(*labels), by)

    def __call__(self, kind: str, seq: int | None, f: dict) -> None:
        """Event-stream sink."""
        if kind == "submitted":
            self._inc(self.submitted, f["tenant"])
        elif kind == "result_cache":
            self._inc(self.result_cache, "hit" if f["hit"] else "miss")
        elif kind == "rejected":
            self._inc(self.admission, "reject", f["reason"])
        elif kind == "queued":
            self._inc(self.admission, "accept", "fits")
        elif kind == "share_group" and seq == f["leader"]:
            self.share_group.observe(float(f["size"]))
        elif kind == "planned":
            self._inc(self.plan_cache, "hit" if f["cache_hit"] else "miss")
        elif kind == "crash" and seq == f["leader"]:
            self._inc(self.crashes, f["backend"])
        elif kind == "retry_scheduled":
            self._inc(self.retries, f["backend"])
        elif kind == "finished" and f["delivered"]:
            self._inc(self.requests, f["status"])
            if f["status"] == "completed":
                self._inc(self.completed, f["tenant"])
            elif f["error"] == "deadline exceeded":
                self.deadline_missed.inc()
        elif kind == "graph_update":
            self._inc(self.stream_updates, f["dataset"])
        elif kind in ("subscribed", "unsubscribed"):
            self.stream_subscriptions.inc(1.0 if kind == "subscribed"
                                          else -1.0)
        elif kind == "delta_batch":
            for sign, n in (("+", f["additions"]), ("-", f["retractions"])):
                if n:
                    self._inc(self.stream_deltas, sign, by=float(n))
            self.stream_batch_latency.observe(f["latency_s"])
        if (self._gauges is not None
                and kind in ("queued", "dispatched", "finished")):
            g = self._gauges()
            self.inflight.set(g["inflight"])
            self.reserved_bytes.set(g["reserved_bytes"])
            for priority, depth in g["depths"].items():
                self.queue_depth.set_child(
                    self.queue_depth.labels(priority), depth)
