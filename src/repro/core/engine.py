"""The HUGE engine: plan → dataflow → scheduled execution on the cluster.

This is the system's public entry point.  :meth:`HugeEngine.run` is the
one run body: resolve the query to a plan (Algorithm 1 for a pattern; a
plan — the optimiser's or a plug-in builder's, the HUGE-BENU / -RADS /
-SEED / -WCO mode of Remark 3.2 — runs as built), translate it
(Algorithm 2) into a segment tree and its operator table (ids / kinds /
schemas, numbered once; pure spec construction costing microseconds, so
it runs per engine run), build the execution context, declare the
table's operators on the tracer, drive the scheduler into the sink.
One request is one engine run: nothing is shared between runs but the
immutable graph, so every run is under Theorem 5.4's memory bound.

Execution uses:

* the pushing/pulling-hybrid operators of §4 (two-stage ``PULL-EXTEND``
  over a per-machine LRBU cache; buffered ``PUSH-JOIN``);
* the DFS/BFS-adaptive scheduler of §5 with its
  ``O(|V_q|² · D_G)``-bounded queues;
* two-layer work stealing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..cluster.cluster import Cluster
from ..cluster.metrics import RunReport
from ..obs.trace import ENGINE, NULL_TRACER, Trace, Tracer
from ..query.estimate import CardinalityEstimator, SamplingEstimator
from ..query.pattern import QueryGraph
from .cache import CACHE_VARIANTS, make_cache
from .operators import ExecContext, SinkConsumer, Tuple
from .plan.optimiser import Optimiser
from .plan.translate import translate
from .plan.tree import ExecutionPlan
from .scheduler import SchedulerConfig, run_tree

__all__ = ["EngineConfig", "EnumerationResult", "HugeEngine"]


@dataclass
class EngineConfig(SchedulerConfig):
    """Engine knobs: scheduler settings plus cache configuration.

    The paper's cluster-scale defaults (batch 512 K, queue 5·10⁷, cache 30%
    of the data graph) are scaled to the stand-in graph sizes; the 30%
    cache fraction is kept.
    """

    cache_variant: str = "lrbu"
    """One of :data:`~repro.core.cache.CACHE_VARIANTS` (Table 5); the
    variant's cache class is also PULL-EXTEND's fetch stage."""

    cache_capacity_fraction: float = 0.30
    """Cache capacity as a fraction of the data-graph size (§7.1)."""

    cache_capacity_ids: int | None = None
    """Absolute capacity in vertex-id units; overrides the fraction."""

    collect_results: bool = False
    """Keep the matched tuples (tests); benchmarks count only."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cache_variant not in CACHE_VARIANTS:
            raise ValueError(f"unknown cache variant {self.cache_variant!r}")
        if not 0.0 <= self.cache_capacity_fraction <= 1.0:
            raise ValueError("cache_capacity_fraction must be in [0, 1]")
        if self.cache_capacity_ids is not None and self.cache_capacity_ids < 0:
            raise ValueError("cache_capacity_ids must be at least 0")


@dataclass
class EnumerationResult:
    """Outcome of one query execution."""

    count: int
    """Number of symmetry-broken matches (= subgraph instances)."""

    report: RunReport
    """The paper's T / T_R / T_C / C / M metrics."""

    plan: ExecutionPlan
    """The execution plan that ran."""

    fetch_time_s: float
    """Simulated time spent in PULL-EXTEND fetch stages (Table 5's t_f)."""

    matches: list[Tuple] | None = field(default=None, repr=False)
    """Matches in query-vertex order, if collection was enabled."""

    cache_overflow_ids: int = 0
    """Worst per-machine cache overflow beyond capacity, in vertex-id
    units.  The §4.4 invariant bounds this by one batch's remote
    footprint; the conformance oracles check it."""

    cache_evictions: int = 0
    """Total cache evictions across machines."""

    cache_capacity_ids: int = 0
    """The per-machine cache capacity the run was configured with."""

    trace: Trace | None = field(default=None, repr=False)
    """The recorded span trace, when the run was traced."""

    @property
    def cache_hit_rate(self) -> float:
        """Fetch-stage cache hit rate (Exp-5): the ledger's."""
        return self.report.cache_hit_rate

    @property
    def throughput_per_s(self) -> float:
        """Matches per simulated second (Exp-3 / Table 4)."""
        if self.report.total_time_s <= 0:
            return 0.0
        return self.count / self.report.total_time_s

    def as_dict(self) -> dict:
        """JSON-serialisable view of the result (the trace is exported
        separately via ``Trace.save``; matches are omitted)."""
        return {
            "count": self.count,
            "throughput_per_s": self.throughput_per_s,
            "fetch_time_s": self.fetch_time_s,
            "cache_hit_rate": self.cache_hit_rate,
            "cache_overflow_ids": self.cache_overflow_ids,
            "cache_evictions": self.cache_evictions,
            "cache_capacity_ids": self.cache_capacity_ids,
            "plan": self.plan.describe(),
            "report": self.report.as_dict(),
        }


class HugeEngine:
    """The HUGE runtime bound to one simulated cluster."""

    def __init__(self, cluster: Cluster, config: EngineConfig | None = None,
                 estimator: CardinalityEstimator | None = None):
        self.cluster = cluster
        self.config = config or EngineConfig()
        self.estimator = estimator or SamplingEstimator(cluster.graph)

    # -- planning ------------------------------------------------------------------

    def plan(self, query: QueryGraph) -> ExecutionPlan:
        """Run Algorithm 1 for ``query`` on this cluster."""
        opt = Optimiser(self.estimator, self.cluster.num_machines,
                        self.cluster.graph.num_edges,
                        avg_degree=self.cluster.graph.avg_degree)
        return opt.run(query)

    # -- execution --------------------------------------------------------------------

    def _cache_capacity_ids(self) -> int:
        if self.config.cache_capacity_ids is not None:
            return self.config.cache_capacity_ids
        g = self.cluster.graph
        graph_ids = 2 * g.num_edges + g.num_vertices
        return max(1, int(self.config.cache_capacity_fraction * graph_ids))

    def run(self, query: QueryGraph | None = None,
            plan: ExecutionPlan | None = None,
            tracer: Tracer | None = None) -> EnumerationResult:
        """Execute a subgraph-enumeration query.

        ``query`` is the pattern (optional when ``plan`` is given);
        ``plan`` an :class:`ExecutionPlan` — Algorithm 1's or a plug-in
        builder's, run as built — or ``None`` to plan ``query`` with
        Algorithm 1.

        ``tracer`` records spans; the default is the shared no-op tracer.
        Tracing reads the simulated clocks but never charges them, so a
        traced run is bit-identical to an untraced one.
        """
        tr = tracer if tracer is not None else NULL_TRACER
        config = self.config
        wall0 = time.perf_counter()
        if plan is None:
            if query is None:
                raise ValueError("need a query or a plan")
            plan = self.plan(query)
        wall1 = time.perf_counter()
        root = translate(plan)
        table = root.operator_table()
        wall2 = time.perf_counter()
        self.cluster.reset_metrics()
        tr.bind(self.cluster.metrics)

        # a fresh cache for every machine, its capacity reserved on the
        # ledger
        capacity = self._cache_capacity_ids()
        cache = make_cache(config.cache_variant, capacity, self.cluster.cost,
                           workers=self.cluster.workers_per_machine)
        ctx = ExecContext(self.cluster, cache, tracer=tr)
        ctx.metrics.reserve_constant(capacity * self.cluster.cost.bytes_per_id)
        if tr.enabled:
            for ops in table:
                for op in ops:
                    tr.declare_operator(op.opid, op.kind, op.schema)
            tr.trace.meta.update({
                "plan": plan.describe(),
                "num_machines": self.cluster.num_machines,
                "workers_per_machine": self.cluster.workers_per_machine,
            })
            t = tr.now(ENGINE)  # plan/translate are free in simulated time
            tr.complete("plan", ENGINE, t, t,
                        {"wall_s": wall1 - wall0})
            tr.complete("translate", ENGINE, t, t,
                        {"wall_s": wall2 - wall1})

        sink = SinkConsumer(root.out_schema, collect=config.collect_results)
        t_exec = tr.now(ENGINE) if tr.enabled else 0.0
        self.cluster.tracer = tr
        try:
            run_tree(ctx, config, root, sink, table)
        finally:
            self.cluster.tracer = NULL_TRACER
        ctx.metrics.check_time()
        if tr.enabled:
            tr.complete("execute", ENGINE, t_exec, tr.now(ENGINE),
                        {"wall_s": time.perf_counter() - wall2})
        return EnumerationResult(
            count=sink.count,
            report=ctx.metrics.report(),
            plan=plan,
            fetch_time_s=self.cluster.cost.ticks_to_seconds(ctx.fetch_ops),
            matches=sink.matches() if config.collect_results else None,
            cache_overflow_ids=cache.stats.max_overflow_ids,
            cache_evictions=cache.stats.evictions,
            cache_capacity_ids=capacity,
            trace=tr.trace if tr.enabled else None,
        )
