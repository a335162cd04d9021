"""Service-level metrics: counters, latency recorders, snapshots.

The serving tier reports wall-clock observables — queue depth, admission
counters, plan-cache hit rate, and latency distributions (p50/p95/p99)
for queue wait, execution, and end-to-end latency — alongside the
simulated per-query metrics the engine already produces.  Snapshots are
plain dataclasses with ``as_dict`` so the CLI, the load driver and the
benchmarks all serialise the same shape.

:class:`LatencyRecorder` is backed by the shared
:class:`~repro.obs.metrics.Histogram` type (log buckets for exposition,
plus the recorder's historical deterministic round-robin reservoir for
exact percentiles); its ``snapshot()`` dict shape is pinned by a
regression test.  Pass ``histogram=`` to share one registered in a
:class:`~repro.obs.metrics.MetricsRegistry`, so the same samples serve
both the snapshot dicts and the Prometheus exposition.

:class:`StatsSink` is the event-stream sink that owns the service's
counters and its three latency recorders.
"""

from __future__ import annotations

import threading
from dataclasses import asdict, dataclass, field

from ..obs.metrics import Histogram, percentile

__all__ = ["percentile", "LatencyRecorder", "StatsSink", "ServiceStats"]


class LatencyRecorder:
    """Latency samples over a shared histogram, with percentile snapshots.

    The histogram keeps a bounded deterministic reservoir (round-robin
    overwrite — sample ``i`` of the stream lands in slot ``i mod
    capacity``) for exact percentiles, exactly the retention policy this
    recorder has always had.
    """

    def __init__(self, max_samples: int = 10_000,
                 histogram: Histogram | None = None):
        if histogram is None:
            histogram = Histogram("latency_seconds",
                                  "standalone latency recorder",
                                  time_base="wall", reservoir=max_samples)
        elif not histogram.reservoir:
            raise ValueError("LatencyRecorder needs a histogram with a "
                             "reservoir (exact percentiles)")
        self._hist = histogram
        self._child = histogram.labels() if not histogram.labelnames \
            else None
        if self._child is None:
            raise ValueError("LatencyRecorder histograms must be unlabelled")

    @property
    def count(self) -> int:
        return self._child.count

    @property
    def total(self) -> float:
        return self._child.sum

    def add(self, seconds: float) -> None:
        self._hist.observe_child(self._child, seconds)

    def snapshot(self) -> dict:
        """``{count, mean_s, p50_s, p95_s, p99_s, max_s}``."""
        with self._hist._lock:
            ordered = sorted(self._child.samples)
            count, total = self._child.count, self._child.sum
        return {
            "count": count,
            "mean_s": total / count if count else 0.0,
            "p50_s": percentile(ordered, 50.0),
            "p95_s": percentile(ordered, 95.0),
            "p99_s": percentile(ordered, 99.0),
            "max_s": ordered[-1] if ordered else 0.0,
        }


class StatsSink:
    """The counters and latency recorders behind ``QueryService.stats()``
    and ``stream_stats()``, fed by the service's event stream."""

    #: events that bump exactly one counter by one
    _ONE = {"submitted": "submitted", "retry_scheduled": "retries",
            "graph_update": "stream_updates", "subscribed": "subscriptions"}

    def __init__(self, latency: Histogram | None = None,
                 queue_wait: Histogram | None = None,
                 execute: Histogram | None = None):
        self._lock = threading.Lock()
        self._counters = dict.fromkeys((
            *self._ONE.values(), "completed", "cancelled", "failed",
            "rejected", "worker_crashes", "delivery_violations",
            "shared_groups", "shared_requests", "result_cache_hits",
            "stream_batches", "stream_additions", "stream_retractions",
            "stream_errors"), 0)
        self.latency = LatencyRecorder(histogram=latency)
        self.queue_wait = LatencyRecorder(histogram=queue_wait)
        self.execute = LatencyRecorder(histogram=execute)

    def counters(self) -> dict[str, int]:
        """Atomic copy of every counter."""
        with self._lock:
            return dict(self._counters)

    def __call__(self, kind: str, seq: int | None, f: dict) -> None:
        bump: dict[str, int] = {}
        if kind in self._ONE:
            bump[self._ONE[kind]] = 1
        elif kind == "result_cache":
            bump["result_cache_hits"] = int(f["hit"])
        elif kind == "share_group" and seq == f["leader"]:
            bump.update(shared_groups=1, shared_requests=f["size"])
        elif kind == "crash" and seq == f["leader"]:
            bump["worker_crashes"] = 1
        elif kind == "delta_batch":
            bump.update(stream_batches=1, stream_additions=f["additions"],
                        stream_retractions=f["retractions"],
                        stream_errors=int(f["error"] is not None))
        elif kind == "finished":
            bump[f["status"] if f["delivered"] else "delivery_violations"] = 1
            if f["delivered"] and f["status"] == "completed":
                self.latency.add(f["total_s"])
                if not f.get("result_cache_hit"):
                    self.queue_wait.add(f["queue_wait_s"])
                    self.execute.add(f["execute_s"])
        with self._lock:
            for name, delta in bump.items():
                self._counters[name] += delta


@dataclass
class ServiceStats:
    """One point-in-time snapshot of the service (``QueryService.stats``)."""

    submitted: int = 0
    completed: int = 0
    cancelled: int = 0
    failed: int = 0
    rejected: int = 0
    retries: int = 0
    worker_crashes: int = 0
    delivery_violations: int = 0
    inflight: int = 0
    queue_depth: dict = field(default_factory=dict)
    reserved_bytes: float = 0.0
    budget_bytes: float = float("inf")
    admission: dict = field(default_factory=dict)
    plan_cache: dict = field(default_factory=dict)
    shared_groups: int = 0
    shared_requests: int = 0
    result_cache_hits: int = 0
    result_cache: dict = field(default_factory=dict)
    latency: dict = field(default_factory=dict)
    queue_wait: dict = field(default_factory=dict)
    execute: dict = field(default_factory=dict)
    uptime_s: float = 0.0

    @property
    def throughput_qps(self) -> float:
        """Completed queries per wall-clock second of service uptime."""
        return self.completed / self.uptime_s if self.uptime_s > 0 else 0.0

    def as_dict(self) -> dict:
        out = asdict(self)
        if self.budget_bytes == float("inf"):
            out["budget_bytes"] = None
        out["throughput_qps"] = self.throughput_qps
        return out
