"""The HUGE engine: plan → dataflow → scheduled execution on the cluster.

This is the system's public entry point.  ``HugeEngine.run`` accepts a
query (planned by Algorithm 1), a plugged-in logical plan (the HUGE-BENU /
HUGE-RADS / HUGE-SEED / HUGE-WCO mode of Remark 3.2), or a pre-configured
execution plan, and executes it with:

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
from ..cluster.errors import PlanError
from ..cluster.metrics import RunReport
from ..obs.trace import ENGINE, NULL_TRACER, Trace, Tracer
from ..query.estimate import CardinalityEstimator, SamplingEstimator
from ..query.pattern import QueryGraph
from .cache import CACHE_VARIANTS, make_cache
from .dataflow import ScanSpec, Segment
from .operators import ExecContext, SinkConsumer, Tuple
from .plan.logical import LogicalPlan
from .plan.optimiser import Optimiser
from .plan.physical import ExecutionPlan, configure_plan
from .plan.translate import translate
from .scheduler import SchedulerConfig, run_segment, run_shared_chains

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

    cache_hit_rate: float
    """Fetch-stage cache hit rate (Exp-5)."""

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

    def _resolve_plan(self, query: QueryGraph | None,
                      plan: ExecutionPlan | LogicalPlan | None) -> ExecutionPlan:
        if isinstance(plan, ExecutionPlan):
            return plan
        if isinstance(plan, LogicalPlan):
            return configure_plan(plan)
        if query is None:
            raise ValueError("need a query or a plan")
        return self.plan(query)

    # -- execution --------------------------------------------------------------------

    def _cache_capacity_ids(self) -> int:
        if self.config.cache_capacity_ids is not None:
            return self.config.cache_capacity_ids
        g = self.cluster.graph
        graph_ids = 2 * g.num_edges + g.num_vertices
        return max(1, int(self.config.cache_capacity_fraction * graph_ids))

    def _context(self, tracer: Tracer | None = None) -> ExecContext:
        """Fresh per-machine caches and the execution context of one run,
        with the caches' capacity reserved on the memory ledger."""
        config = self.config
        capacity = self._cache_capacity_ids()
        caches = [
            make_cache(config.cache_variant, capacity, self.cluster.cost,
                       workers=self.cluster.workers_per_machine)
            for _ in range(self.cluster.num_machines)
        ]
        ctx = ExecContext(self.cluster, caches, config.batch_size,
                          tracer=tracer)
        ctx.metrics.reserve_constant(capacity * self.cluster.cost.bytes_per_id)
        return ctx

    def _results(self, ctx: ExecContext, plans, sinks, collects,
                 trace: Trace | None = None) -> list[EnumerationResult]:
        """One result per (plan, sink) of a finished run; the ledger
        report and the cache statistics are the run's, shared by all."""
        caches = ctx.caches
        report = ctx.metrics.report()
        hits = sum(c.stats.hits for c in caches)
        misses = sum(c.stats.misses for c in caches)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0
        fetch_s = self.cluster.cost.ticks_to_seconds(ctx.fetch_ops)
        overflow = max((c.stats.max_overflow_ids for c in caches), default=0)
        evictions = sum(c.stats.evictions for c in caches)
        capacity = self._cache_capacity_ids()
        return [
            EnumerationResult(
                count=sink.count,
                report=report,
                plan=plan,
                fetch_time_s=fetch_s,
                cache_hit_rate=hit_rate,
                matches=sink.matches() if collect else None,
                cache_overflow_ids=overflow,
                cache_evictions=evictions,
                cache_capacity_ids=capacity,
                trace=trace,
            )
            for plan, sink, collect in zip(plans, sinks, collects)
        ]

    def run(self, query: QueryGraph | None = None,
            plan: ExecutionPlan | LogicalPlan | None = None,
            reset_metrics: bool = True,
            tracer: Tracer | None = None) -> EnumerationResult:
        """Execute a subgraph-enumeration query.

        Parameters
        ----------
        query:
            The pattern; optional when ``plan`` is given.
        plan:
            An :class:`ExecutionPlan`, a :class:`LogicalPlan` (plug-in
            mode: physical settings assigned by Equation 3), or ``None``
            to plan with Algorithm 1.
        reset_metrics:
            Start a fresh metrics ledger (default) or accumulate.
        tracer:
            A :class:`~repro.obs.trace.Tracer` to record spans into.  The
            default is the shared no-op tracer: tracing reads the
            simulated clocks but never charges them, so a traced run is
            bit-identical to an untraced one.
        """
        tr = tracer if tracer is not None else NULL_TRACER
        wall0 = time.perf_counter()
        exec_plan = self._resolve_plan(query, plan)
        wall1 = time.perf_counter()
        segment: Segment = translate(exec_plan)
        wall2 = time.perf_counter()
        if reset_metrics:
            self.cluster.reset_metrics()
        tr.bind(self.cluster.metrics)

        config = self.config
        ctx = self._context(tr)
        for si, seg in enumerate(segment.all_segments()):
            ctx.seg_ids[id(seg)] = si
        if tr.enabled:
            for si, seg in enumerate(segment.all_segments()):
                if isinstance(seg.source, ScanSpec):
                    tr.declare_operator(f"s{si}.0", "SCAN",
                                        tuple(seg.source.schema))
                else:
                    tr.declare_operator(f"s{si}.0", "PUSH-JOIN",
                                        tuple(seg.source.out_schema))
                for oi, ext in enumerate(seg.extends):
                    kind = "VERIFY" if ext.is_verify else "PULL-EXTEND"
                    tr.declare_operator(f"s{si}.{oi + 1}", kind,
                                        tuple(ext.out_schema))
            tr.trace.meta.update({
                "plan": exec_plan.describe(),
                "num_machines": self.cluster.num_machines,
                "workers_per_machine": self.cluster.workers_per_machine,
            })
            t = tr.now(ENGINE)  # plan/translate are free in simulated time
            tr.complete("plan", ENGINE, t, t,
                        {"wall_s": wall1 - wall0})
            tr.complete("translate", ENGINE, t, t,
                        {"wall_s": wall2 - wall1})

        sink = SinkConsumer(segment.out_schema, collect=config.collect_results)
        t_exec = tr.now(ENGINE) if tr.enabled else 0.0
        self.cluster.tracer = tr
        try:
            run_segment(ctx, config, segment, sink)
        finally:
            self.cluster.tracer = NULL_TRACER
        ctx.metrics.check_time()
        if tr.enabled:
            tr.complete("execute", ENGINE, t_exec, tr.now(ENGINE),
                        {"wall_s": time.perf_counter() - wall2})

        return self._results(ctx, [exec_plan], [sink],
                             [config.collect_results],
                             trace=tr.trace if tr.enabled else None)[0]

    def run_shared(self, plans: list[ExecutionPlan],
                   collects: list[bool] | None = None,
                   reset_metrics: bool = True) -> list[EnumerationResult]:
        """Execute several plans as one share group.

        All plans must translate to single-segment chains (edge ``SCAN``
        plus ``PULL-EXTEND``\\ s) whose leading operator specs are
        literally equal for at least the scan — the serving dispatcher
        guarantees this by grouping on prefix signatures.  The longest
        common spec prefix runs **once** into a tee buffer; each plan's
        remaining extends then run over a replay of that buffer into a
        per-plan sink (multi-sink result tagging).  When every plan is
        the same canonical pattern the suffixes are empty and the group
        degenerates to pure isomorphism dedup.

        Per plan, the returned count and (collected) match *set* are
        identical to a solo :meth:`run` of that plan — the operator specs
        executed for each plan are spec-for-spec the same, only the
        batch schedule differs.  The simulated metrics report is the
        single shared run's ledger, attached to every result; it is
        **not** comparable to any member's solo report (that is the
        point — the shared run does strictly less total work).

        ``collects[i]`` overrides ``config.collect_results`` per member.
        """
        if not plans:
            raise ValueError("run_shared needs at least one plan")
        segments = [translate(p) for p in plans]
        sigs = []
        for plan, seg in enumerate(segments):
            if seg.left is not None or not isinstance(seg.source, ScanSpec):
                raise PlanError(
                    "work sharing requires single-segment scan+extend "
                    f"chains; plan {plan} has a PUSH-JOIN")
            sigs.append((seg.source, *seg.extends))
        shared = min(len(s) for s in sigs)
        for sig in sigs[1:]:
            n = 0
            while n < shared and sig[n] == sigs[0][n]:
                n += 1
            shared = n
        if shared < 1:
            raise PlanError("plans share no common scan prefix")

        if collects is None:
            collects = [self.config.collect_results] * len(plans)
        if len(collects) != len(plans):
            raise ValueError("one collect flag per plan")
        if reset_metrics:
            self.cluster.reset_metrics()

        ctx = self._context()
        base = segments[0]
        prefix = Segment(source=base.source,
                         extends=list(base.extends[:shared - 1]))
        suffixes = [
            Segment(source=seg.source,
                    extends=list(seg.extends[shared - 1:]),
                    out_schema=tuple(seg.out_schema))
            for seg in segments
        ]
        sinks = [SinkConsumer(seg.out_schema, collect=collect)
                 for seg, collect in zip(segments, collects)]
        run_shared_chains(ctx, self.config, prefix, suffixes, sinks)
        ctx.metrics.check_time()
        return self._results(ctx, plans, sinks, collects)
