"""Deterministic load generation against a :class:`QueryService`.

The driver builds a seeded mixed workload — benchmark patterns across
priority classes and tenants, a fraction submitted as random isomorphic
relabellings (so the canonical plan cache gets cross-pattern hits), a
fraction carrying deadlines, and optionally injected worker crashes —
submits everything concurrently, waits for the fleet to drain, and
produces a :class:`DriverReport`.

``verify=True`` applies the ``solo-identical`` serving oracle
(:func:`repro.testing.serving.solo_mismatches`): every distinct
(pattern, cluster shape, engine config) is re-run solo and each served
count — and, where the request did not run in a share group, the
simulated metrics report — must be **bit-identical** to the solo run.  This is the
acceptance gate wired into the CLI and the CI smokes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from ..core.engine import EngineConfig
from ..graph.graph import Graph
from ..obs.metrics import MetricsRegistry
from ..query.pattern import QueryGraph, get_query
from .request import Priority, QueryRequest
from .service import FaultInjector, QueryService

__all__ = ["WorkloadSpec", "DriverReport", "LoadDriver"]

#: default pattern mix (names resolved through ``get_query``)
DEFAULT_PATTERNS = ("triangle", "q1", "q2", "q3", "q4")


@dataclass
class WorkloadSpec:
    """A seeded workload description."""

    num_queries: int = 32
    dataset: str = "GO"
    patterns: tuple[str, ...] = DEFAULT_PATTERNS
    num_machines: int = 4
    workers_per_machine: int = 4
    seed: int = 1
    relabel_fraction: float = 0.5
    """Fraction of requests submitted as a random isomorphic relabelling
    of their pattern (exercises canonical plan-cache keying)."""
    deadline_fraction: float = 0.0
    deadline_s: float = 5.0
    tenants: tuple[str, ...] = ("default",)
    collect_fraction: float = 0.0
    crashes: int = 0
    """Worker crashes to inject (on the first ``crashes`` requests'
    first attempts)."""
    zipf_s: float = 0.0
    """Zipf skew for pattern choice: > 0 draws pattern ``r`` (1-based
    rank in :attr:`patterns`) with weight ``1/r**zipf_s`` instead of
    round-robin — the skewed mix that makes work sharing pay off (hot
    patterns repeat)."""

    def build(self) -> list[QueryRequest]:
        """Materialise the request list (deterministic in ``seed``)."""
        rng = random.Random(self.seed)
        priorities = [Priority.HIGH, Priority.NORMAL, Priority.NORMAL,
                      Priority.LOW]
        weights = ([1.0 / (r + 1) ** self.zipf_s
                    for r in range(len(self.patterns))]
                   if self.zipf_s > 0 else None)
        requests: list[QueryRequest] = []
        for i in range(self.num_queries):
            if weights is not None:
                name = rng.choices(self.patterns, weights=weights)[0]
            else:
                name = self.patterns[i % len(self.patterns)]
            pattern: QueryGraph | str = name
            if rng.random() < self.relabel_fraction:
                base = get_query(name)
                perm = list(range(base.num_vertices))
                rng.shuffle(perm)
                pattern = base.relabel(dict(enumerate(perm)),
                                       name=f"{base.name}~{i}")
            deadline = (self.deadline_s
                        if rng.random() < self.deadline_fraction else None)
            requests.append(QueryRequest(
                pattern=pattern, dataset=self.dataset,
                num_machines=self.num_machines,
                workers_per_machine=self.workers_per_machine,
                collect=rng.random() < self.collect_fraction,
                priority=priorities[i % len(priorities)],
                deadline_s=deadline,
                tenant=self.tenants[i % len(self.tenants)],
                tag=f"{name}#{i}"))
        return requests


@dataclass
class DriverReport:
    """Everything one driver run observed."""

    spec: WorkloadSpec
    wall_s: float
    outcomes: list[dict]
    service: dict
    verified: bool | None = None
    """``True``/``False`` after a verification pass, ``None`` if skipped."""
    verify_failures: list[str] = field(default_factory=list)

    @property
    def counts_by_status(self) -> dict[str, int]:
        by: dict[str, int] = {}
        for o in self.outcomes:
            by[o["status"]] = by.get(o["status"], 0) + 1
        return by

    def as_dict(self) -> dict:
        return {
            "num_queries": self.spec.num_queries,
            "dataset": self.spec.dataset,
            "seed": self.spec.seed,
            "wall_s": self.wall_s,
            "by_status": self.counts_by_status,
            "verified": self.verified,
            "verify_failures": self.verify_failures,
            "service": self.service,
            "outcomes": self.outcomes,
        }


class LoadDriver:
    """Drives a workload through a service and (optionally) verifies it."""

    def __init__(self, graph: Graph, spec: WorkloadSpec,
                 num_workers: int = 4,
                 memory_budget_bytes: float = float("inf"),
                 default_config: EngineConfig | None = None,
                 tenant_max_inflight: int | None = None,
                 trace: bool = False,
                 metrics: MetricsRegistry | None = None,
                 sharing: bool = False,
                 pool: str = "thread"):
        self.graph = graph
        self.spec = spec
        self.num_workers = num_workers
        self.memory_budget_bytes = memory_budget_bytes
        self.default_config = default_config
        self.tenant_max_inflight = tenant_max_inflight
        self.trace = trace
        self.metrics = metrics
        self.sharing = sharing
        self.pool = pool
        self.service: QueryService | None = None

    def run(self, verify: bool = False,
            timeout_s: float = 300.0) -> DriverReport:
        spec = self.spec
        requests = spec.build()
        injector = FaultInjector() if spec.crashes else None
        if injector is not None:
            for req in requests[:spec.crashes]:
                injector.crash(req.seq, attempt=1, after_polls=3)

        service = QueryService(
            datasets={spec.dataset: self.graph},
            num_workers=self.num_workers,
            memory_budget_bytes=self.memory_budget_bytes,
            default_config=self.default_config,
            tenant_max_inflight=self.tenant_max_inflight,
            injector=injector, trace=self.trace,
            metrics=self.metrics, sharing=self.sharing, pool=self.pool)
        self.service = service
        t0 = time.perf_counter()
        with service:
            handles = [service.submit(req) for req in requests]
            outcomes = [h.result(timeout=timeout_s) for h in handles]
        wall = time.perf_counter() - t0

        report = DriverReport(
            spec=spec, wall_s=wall,
            outcomes=[o.as_dict() for o in outcomes],
            service=service.stats().as_dict())
        if verify:
            # the solo-identical oracle lives with the other serving
            # oracles (imported here: repro.testing imports this module)
            from ..testing.serving import solo_mismatches
            report.verify_failures = solo_mismatches(
                self.graph, requests, outcomes, self.default_config)
            report.verified = not report.verify_failures
        return report
