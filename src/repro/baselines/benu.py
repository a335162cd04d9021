"""BENU [84]: distributed subgraph enumeration with backtracking.

BENU embarrassingly parallelises a sequential DFS backtracking program
(Ullmann-style [82]) on each machine: every machine takes its local edges
as pivot tasks and matches the remaining query vertices depth-first,
pulling adjacency lists from an external key-value store (Cassandra)
through a per-machine LRU cache.

Characteristics reproduced here (Table 1 row BENU):

* tiny memory — DFS holds one partial match plus the cache;
* low communication volume — only cache misses touch the wire;
* poor computation time — every miss stalls on the external store, and the
  DFS cannot batch or overlap those stalls (§1: low CPU utilisation);
* load skew — work is distributed by the firstly matched (pivot) vertex
  with no stealing (Exp-8's comparison point).

The adjacency pulls stay sequential — the cache hit/miss sequence (and
its per-request charges) is part of the simulated behaviour — but the
per-node candidate work is vectorised: intersections use the shared
``intersect_sorted`` kernel, candidate filtering is mask-based, and the
innermost recursion level charges its matches as one count × emit ticks.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..core.cache import LRUCache
from ..core.kernels import intersect_sorted
from ..core.plan.plans import dfs_order
from ..core.plan.translate import order_chain
from ..core.stealing import chunked_distribution
from ..query.pattern import QueryGraph
from ..query.symmetry import symmetry_break
from .base import BaselineEngine, BaselineResult
from .kvstore import ExternalKVStore

__all__ = ["BenuEngine"]


class BenuEngine(BaselineEngine):
    """BENU: pulling-based DFS enumeration over an external KV store."""

    name = "BENU"

    def __init__(self, cluster: Cluster, cache_capacity_fraction: float = 0.3):
        super().__init__(cluster)
        self.cache_capacity_fraction = cache_capacity_fraction

    def run(self, query: QueryGraph) -> BaselineResult:
        """Enumerate ``query`` BENU-style; returns count + metrics."""
        self._check_query(query)
        cluster = self.cluster
        cost = cluster.cost
        cluster.reset_metrics()
        store = ExternalKVStore(cluster)
        store.load()

        g = cluster.graph
        capacity = max(1, int(self.cache_capacity_fraction
                              * (2 * g.num_edges + g.num_vertices)))
        cluster.metrics.reserve_constant(capacity * cost.bytes_per_id)

        # the engine's own chain along BENU's DFS order: match position i
        # holds order[i], extends[d - 2] places the vertex of depth d
        scan, extends = order_chain(query, dfs_order(query),
                                    symmetry_break(query))
        n = query.num_vertices

        graph = cluster.pgraph.graph
        indices = graph.indices
        indptr_l = graph.indptr.tolist()
        owner_l = cluster.pgraph.owner.tolist()
        probe_l = cluster.probe_ticks.tolist()
        iop = cost.ticks.intersect
        emit_step = n * cost.ticks.emit
        task_base = 2 * cost.ticks.scan

        total = 0
        workers = cluster.workers_per_machine
        for m in range(cluster.num_machines):
            cache = LRUCache(capacity, cost)
            ops_box = [0]

            def nbrs_of(u: int) -> np.ndarray:
                if owner_l[u] == m:
                    return indices[indptr_l[u]:indptr_l[u + 1]]
                if cache.contains(u):
                    cluster.metrics.record_cache(m, hits=1)
                    nbrs = cache.get(u)
                else:
                    cluster.metrics.record_cache(m, misses=1)
                    nbrs = store.get(m, u)
                    cache.insert(u, nbrs)
                ops_box[0] += cache.access_penalty(len(nbrs))
                return nbrs

            def dfs(match: list[int], depth: int) -> int:
                if depth == n:
                    ops_box[0] += emit_step
                    return 1
                spec = extends[depth - 2]
                # pull the back-neighbourhoods, smallest list first
                arrs = sorted((nbrs_of(match[b]) for b in spec.ext),
                              key=len)
                cand, rest = arrs[0], arrs[1:]
                ops_box[0] += len(cand) * (
                    iop + sum(probe_l[len(a)] for a in rest))
                # symmetry conditions select a contiguous window of the
                # sorted candidates; slice it before intersecting further
                lo, hi = 0, len(cand)
                for p in spec.candidate_gt:
                    lo = max(lo, int(cand.searchsorted(match[p], "right")))
                for p in spec.candidate_lt:
                    hi = min(hi, int(cand.searchsorted(match[p], "left")))
                if hi <= lo:
                    return 0
                cand = cand[lo:hi]
                for a in rest:
                    cand = intersect_sorted(cand, a)
                    if not len(cand):
                        return 0
                # distinctness: drop already-matched ids (binary probes —
                # a match id appears at most once in the unique cand)
                if depth == n - 1:
                    # innermost level: each valid candidate is a match,
                    # charged as one emit-op chain
                    found = len(cand)
                    for x in match:
                        j = int(cand.searchsorted(x))
                        if j < len(cand) and cand[j] == x:
                            found -= 1
                    ops_box[0] += found * emit_step
                    return found
                drop = [j for x in match
                        if (j := int(cand.searchsorted(x))) < len(cand)
                        and cand[j] == x]
                if drop:
                    cand = np.delete(cand, drop)
                found = 0
                for v in cand.tolist():
                    match.append(v)
                    found += dfs(match, depth + 1)
                    match.pop()
                return found

            # pivot tasks: local edges matching (order[0], order[1])
            task_ops: list[int] = []
            count_m = 0
            for u in cluster.local_vertices(m).tolist():
                for v in indices[indptr_l[u]:indptr_l[u + 1]].tolist():
                    ops_box[0] = task_base
                    if (scan.order is None
                            or (scan.order == "lt") == (u < v)):
                        count_m += dfs([u, v], 2)
                    task_ops.append(ops_box[0])
                cluster.metrics.check_time()
            total += count_m
            # BENU distributes load by the pivot vertex: contiguous chunks
            # per worker, no stealing (skew preserved)
            per_worker = chunked_distribution(task_ops, workers)
            cluster.metrics.charge_worker_ops(m, per_worker)
        return self._result(total)
