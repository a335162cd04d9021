"""The engine seam of the serving tier: plan, execute, remap.

An :class:`Executor` runs requests on per-thread cached clusters — one
per worker thread, plus one per solo run (:func:`run_query_solo`, the
oracle baseline every served result must be bit-identical to).  A group
of any size is one :meth:`HugeEngine.run_group` call — a solo request is
the group of one, not a second path.  The process backend's
:class:`~repro.serve.procpool.RemoteExecutor` is a drop-in for it, so
thread vs process never shows above this seam.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import replace

from ..cluster.cluster import Cluster
from ..cluster.cost import CostModel
from ..core.cancel import CancelToken
from ..core.engine import EngineConfig, HugeEngine
from ..graph.graph import Graph
from ..query.pattern import QueryGraph, get_query
from .plancache import PlanCache
from .request import QueryOutcome, QueryRequest, QueryStatus
from .sharing import signature_of_plan

__all__ = ["Executor", "run_query_solo", "remap_matches",
           "effective_config", "resolve_pattern"]

#: simulated clusters an executor keeps, least recently used evicted
MAX_CLUSTERS = 4


def effective_config(request: QueryRequest,
                      default: EngineConfig | None) -> EngineConfig:
    return request.config or default or EngineConfig()


def resolve_pattern(request) -> QueryGraph:
    if isinstance(request.pattern, QueryGraph):
        return request.pattern
    return get_query(request.pattern)


def remap_matches(pattern: QueryGraph, mapping: tuple,
                  matches: list | None) -> list | None:
    """Matches of the canonical pattern (what cached plans enumerate) in
    the request's own vertex numbering."""
    n = pattern.num_vertices
    if matches is None or mapping == tuple(range(n)):
        return matches
    return [tuple(m[mapping[v]] for v in range(n)) for m in matches]


class Executor:
    """Executes requests on per-thread cached clusters.

    One ``Executor`` per worker thread (plus one per solo run): simulated
    clusters are mutable during a run and must never be shared, while the
    immutable data graphs and cached plans are shared freely.
    """

    def __init__(self, plan_cache: PlanCache | None = None,
                 default_config: EngineConfig | None = None,
                 cost: CostModel | None = None):
        self.plan_cache = plan_cache
        self.default_config = default_config
        self.cost = cost
        self._clusters: OrderedDict[tuple, Cluster] = OrderedDict()

    def _cluster(self, graph: Graph, req: QueryRequest) -> Cluster:
        key = (req.dataset, req.num_machines, req.workers_per_machine,
               req.partition_seed)
        cached = self._clusters.get(key)
        # a dataset re-registration (streaming update) swaps the snapshot
        # under the same name: a cached cluster is only valid for the
        # exact graph object it was built on
        cluster = cached[1] if cached is not None and cached[0] is graph \
            else None
        if cluster is None:
            cluster = Cluster(graph, num_machines=req.num_machines,
                              workers_per_machine=req.workers_per_machine,
                              cost=self.cost, seed=req.partition_seed)
            if key not in self._clusters and \
                    len(self._clusters) >= MAX_CLUSTERS:
                self._clusters.popitem(last=False)
            self._clusters[key] = (graph, cluster)
        else:
            self._clusters.move_to_end(key)
        return cluster

    def _engine(self, graph: Graph, req: QueryRequest, collect: bool,
                token: CancelToken | None) -> HugeEngine:
        # always a config copy: the caller's object is never mutated and
        # the cancellation token is strictly per-attempt
        return HugeEngine(self._cluster(graph, req), replace(
            effective_config(req, self.default_config),
            collect_results=collect, cancellation=token))

    def resolve_plan(self, req: QueryRequest, graph: Graph,
                     canon: QueryGraph, key: tuple):
        """Plan-cache get-or-plan for one request.

        Returns ``(plan, cache_hit, plan_seconds)``; planning happens on
        a cluster-bound engine so the cardinality estimator sees the
        right graph.
        """
        t0 = time.perf_counter()
        plan = self.plan_cache.get(key) if self.plan_cache is not None \
            else None
        hit = plan is not None
        if plan is None:
            plan = self._engine(graph, req, False, None).plan(canon)
            if self.plan_cache is not None:
                # the prefix signature rides the cache entry so the
                # dispatcher can group future requests without replanning
                self.plan_cache.put(key, plan,
                                    signature=signature_of_plan(plan))
        return plan, hit, time.perf_counter() - t0

    def execute(self, reqs: list[QueryRequest], graph: Graph,
                patterns: list[QueryGraph],
                plan_keys: list[tuple | None] | None = None,
                token: CancelToken | None = None) -> list:
        """Run one share group — a solo query is a group of one: the
        members' common plan prefix once, each member's tail into its
        own sink.

        Returns one ``(result, info)`` per member: the engine result
        (matches in the request's vertex order) plus execution info —
        canonical key, plan-cache hit, phase timings (``execute_s`` is
        the shared run's).  A missing plan key (``None``, or no list at
        all) is recomputed locally: a request the dispatcher never
        keyed, or the process-worker path, whose keys live in the
        child's cache.
        """
        plans, planned = [], []
        for req, pattern, key in zip(reqs, patterns,
                                     plan_keys or [None] * len(reqs)):
            if key is None:
                key = PlanCache.key(pattern.canonical_key(), req.dataset,
                                    graph, req.num_machines)
            canon, mapping = pattern.canonical_form()
            plan, hit, plan_s = self.resolve_plan(req, graph, canon, key)
            plans.append(plan)
            planned.append((pattern, mapping, key[0], hit, plan_s))
        t0 = time.perf_counter()
        results = self._engine(graph, reqs[0], False, token).run_group(
            plans, collects=[r.collect for r in reqs])
        execute_s = time.perf_counter() - t0
        out = []
        for result, (pattern, mapping, ckey, hit, plan_s) in zip(results,
                                                                 planned):
            result.matches = remap_matches(pattern, mapping, result.matches)
            out.append((result, {
                "canonical_key": ckey, "plan_cache_hit": hit,
                "plan_s": plan_s, "execute_s": execute_s}))
        return out


def run_query_solo(graph: Graph, request: QueryRequest,
                   default_config: EngineConfig | None = None,
                   cost: CostModel | None = None,
                   plan_cache: PlanCache | None = None) -> QueryOutcome:
    """Execute one request alone, through the service's exact execution
    path (canonicalisation included) but with no pool, queue or budget.

    This is the oracle baseline: a request served under concurrency must
    produce a bit-identical count and simulated report to its solo run.
    """
    executor = Executor(plan_cache=plan_cache, default_config=default_config,
                        cost=cost)
    t0 = time.perf_counter()
    result, info = executor.execute([request], graph,
                                    [resolve_pattern(request)])[0]
    return QueryOutcome(
        status=QueryStatus.COMPLETED, count=result.count, result=result,
        canonical_key=info["canonical_key"],
        plan_cache_hit=info["plan_cache_hit"],
        plan_s=info["plan_s"], execute_s=info["execute_s"],
        total_s=time.perf_counter() - t0)
