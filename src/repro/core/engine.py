"""The HUGE engine: plan → dataflow → scheduled execution on the cluster.

This is the system's public entry point, in two halves.  **Compile**:
:func:`compile_group` translates N ≥ 1 execution plans (Algorithm 2) into
one :class:`~repro.core.dataflow.Program` — the members' segments, their
longest common spec prefix when N > 1, and the operator table (ids /
kinds / schemas, numbered once).  It is pure spec construction costing
microseconds, so it runs per engine run: a structure, not a cache.
**Run**: :meth:`HugeEngine.run_group` is the one run body — resolve each
member to a plan (Algorithm 1 for a pattern; a plan — the optimiser's or
a plug-in builder's, the HUGE-BENU / -RADS / -SEED / -WCO mode of
Remark 3.2 — runs as built), compile, build the execution context,
declare the table's operators on the tracer, drive the scheduler into one
sink per member.
``HugeEngine.run`` is the group of one: solo and shared runs differ in
fan-out, not in which code ran them.

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
from itertools import takewhile
from typing import Sequence

from ..cluster.cluster import Cluster
from ..cluster.errors import PlanError
from ..cluster.metrics import RunReport
from ..obs.trace import ENGINE, NULL_TRACER, Trace, Tracer
from ..query.estimate import CardinalityEstimator, SamplingEstimator
from ..query.pattern import QueryGraph
from .cache import CACHE_VARIANTS, make_cache
from .dataflow import Program, ReplaySpec, Segment, plan_signature
from .operators import ExecContext, SinkConsumer, Tuple
from .plan.optimiser import Optimiser
from .plan.translate import translate
from .plan.tree import ExecutionPlan
from .scheduler import SchedulerConfig, run_program

__all__ = ["EngineConfig", "EnumerationResult", "HugeEngine", "compile_group"]


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


def compile_group(plans: Sequence[ExecutionPlan]) -> Program:
    """Translate N ≥ 1 plans and compile them as one share group.

    A group of one is its translated segment tree, any shape.  For N > 1
    every plan must translate to a single-segment scan + extend chain
    whose leading operator specs are literally equal for at least the
    scan (the serving dispatcher groups on prefix signatures): the
    longest common spec prefix becomes the head, each member's remaining
    extends (none for same-pattern members) its tail.
    """
    if not plans:
        raise ValueError("an engine run needs at least one plan")
    segments = [translate(plan) for plan in plans]
    head, tails = segments[0], []
    if len(segments) > 1:
        sigs = [plan_signature(seg) for seg in segments]
        if None in sigs:
            raise PlanError(
                "work sharing requires single-segment scan+extend "
                f"chains; plan {sigs.index(None)} has a PUSH-JOIN")
        shared = sum(1 for _ in takewhile(
            lambda specs: len(set(specs)) == 1, zip(*sigs)))
        if shared < 1:
            raise PlanError("plans share no common scan prefix")
        head = Segment(source=head.source,
                       extends=list(head.extends[:shared - 1]))
        tails = [
            Segment(source=ReplaySpec(head.out_schema),
                    extends=list(seg.extends[shared - 1:]),
                    out_schema=tuple(seg.out_schema))
            for seg in segments
        ]
    return Program(head, tails, [
        seg.operators(n)
        for n, seg in enumerate(head.all_segments() + tails)])


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

    def _resolve_plan(self, member: QueryGraph | ExecutionPlan
                      ) -> ExecutionPlan:
        if isinstance(member, ExecutionPlan):
            return member
        if member is None:
            raise ValueError("need a query or a plan")
        return self.plan(member)

    # -- execution --------------------------------------------------------------------

    def _cache_capacity_ids(self) -> int:
        if self.config.cache_capacity_ids is not None:
            return self.config.cache_capacity_ids
        g = self.cluster.graph
        graph_ids = 2 * g.num_edges + g.num_vertices
        return max(1, int(self.config.cache_capacity_fraction * graph_ids))

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
            plan: ExecutionPlan | None = None,
            tracer: Tracer | None = None) -> EnumerationResult:
        """Execute a subgraph-enumeration query: the share group of one.

        ``query`` is the pattern (optional when ``plan`` is given);
        ``plan`` an :class:`ExecutionPlan` — Algorithm 1's or a plug-in
        builder's — or ``None`` to plan with Algorithm 1; ``tracer`` as
        in :meth:`run_group`.
        """
        return self.run_group([plan if plan is not None else query],
                              tracer=tracer)[0]

    def run_group(self,
                  members: Sequence[QueryGraph | ExecutionPlan],
                  collects: Sequence[bool] | None = None,
                  tracer: Tracer | None = None) -> list[EnumerationResult]:
        """Execute N ≥ 1 queries or plans as one engine run.

        Each member is a pattern (planned by Algorithm 1) or an
        :class:`ExecutionPlan` (run as built); ``collects[i]``
        overrides ``config.collect_results`` for member ``i``.  The
        members' longest common spec prefix runs **once**; with N > 1 it
        runs into a tee buffer and each member's remaining extends run
        over a replay of it into the member's own sink (see
        :func:`compile_group` for what may share).

        Per member, count and collected match *set* are identical to a
        run of that member alone — spec for spec the same operators, only
        the batch schedule differs.  The metrics report is the one run's
        ledger, attached to every result; for N > 1 it is **not**
        comparable to a member's solo report (the shared run does
        strictly less total work — that is the point).

        ``tracer`` records spans; the default is the shared no-op tracer.
        Tracing reads the simulated clocks but never charges them, so a
        traced run is bit-identical to an untraced one.
        """
        tr = tracer if tracer is not None else NULL_TRACER
        config = self.config
        wall0 = time.perf_counter()
        plans = [self._resolve_plan(member) for member in members]
        wall1 = time.perf_counter()
        program = compile_group(plans)
        wall2 = time.perf_counter()
        if collects is None:
            collects = [config.collect_results] * len(plans)
        if len(collects) != len(plans):
            raise ValueError("one collect flag per member")
        self.cluster.reset_metrics()
        tr.bind(self.cluster.metrics)

        # fresh per-machine caches, their capacity reserved on the ledger
        capacity = self._cache_capacity_ids()
        caches = [
            make_cache(config.cache_variant, capacity, self.cluster.cost,
                       workers=self.cluster.workers_per_machine)
            for _ in range(self.cluster.num_machines)
        ]
        ctx = ExecContext(self.cluster, caches, tracer=tr)
        ctx.metrics.reserve_constant(capacity * self.cluster.cost.bytes_per_id)
        if tr.enabled:
            for ops in program.ops:
                for op in ops:
                    tr.declare_operator(op.opid, op.kind, op.schema)
            tr.trace.meta.update({
                "plan": "\n".join(plan.describe() for plan in plans),
                "num_machines": self.cluster.num_machines,
                "workers_per_machine": self.cluster.workers_per_machine,
            })
            t = tr.now(ENGINE)  # plan/translate are free in simulated time
            tr.complete("plan", ENGINE, t, t,
                        {"wall_s": wall1 - wall0})
            tr.complete("translate", ENGINE, t, t,
                        {"wall_s": wall2 - wall1})

        sinks = [SinkConsumer(seg.out_schema, collect=collect)
                 for seg, collect in zip(program.tails or [program.head],
                                         collects)]
        t_exec = tr.now(ENGINE) if tr.enabled else 0.0
        self.cluster.tracer = tr
        try:
            run_program(ctx, config, program, sinks)
        finally:
            self.cluster.tracer = NULL_TRACER
        ctx.metrics.check_time()
        if tr.enabled:
            tr.complete("execute", ENGINE, t_exec, tr.now(ENGINE),
                        {"wall_s": time.perf_counter() - wall2})
        return self._results(ctx, plans, sinks, collects,
                             trace=tr.trace if tr.enabled else None)
