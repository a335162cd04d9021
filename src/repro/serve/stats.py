"""The service snapshot: :class:`ServiceStats`.

``QueryService.stats()`` reads its registry — event counts and the
latency / queue-wait / execute histogram summaries from the
:class:`~repro.serve.instruments.ServiceInstruments` families, LRU and
ledger counters from the components that alone observe them — into one
plain dataclass with ``as_dict``, so the CLI, the load driver and the
benchmarks all serialise the same shape.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

from ..obs.metrics import percentile

__all__ = ["percentile", "ServiceStats"]


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
