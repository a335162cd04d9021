"""Shortest paths on top of the HUGE runtime (paper §6).

"Shortest path can be computed by repeatedly applying PULL-EXTEND from the
source vertex until it arrives at the target."  The implementation below
does exactly that on the simulated cluster: a frontier of partial paths is
extended one hop per round; remote adjacency lists are pulled through a
per-machine LRBU cache with batch-aggregated ``GetNbrs`` RPCs, so the app
inherits HUGE's pulling communication and its cost accounting.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..core.cache import LRBUCache

__all__ = ["shortest_path", "shortest_path_lengths"]


def _pull_frontier(cluster: Cluster, machine: int, cache: LRBUCache,
                   vertices: list[int]) -> dict[int, "object"]:
    """Fetch adjacency for a frontier slice, LRBU-cached (fetch stage)."""
    missing = []
    result = {}
    for v in vertices:
        if cluster.machine_of(v) == machine:
            result[v] = cluster.pgraph.neighbours_local(v, machine)
        elif cache.contains(v):
            cache.seal(v)
            cluster.metrics.record_cache(machine, hits=1)
            result[v] = cache.get(v)
        else:
            missing.append(v)
    if missing:
        cluster.metrics.record_cache(machine, misses=len(missing))
        for v, nbrs in cluster.get_nbrs(machine, missing).items():
            cache.insert(v, nbrs)
            cache.seal(v)
            result[v] = nbrs
    return result


def shortest_path(cluster: Cluster, source: int, target: int,
                  max_hops: int | None = None) -> list[int] | None:
    """Unweighted shortest path from ``source`` to ``target``.

    Returns the vertex list (inclusive) or ``None`` if unreachable within
    ``max_hops``.  The BFS frontier is partitioned across machines by
    vertex ownership; each round is one distributed PULL-EXTEND.
    """
    n = cluster.graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source/target out of range")
    if source == target:
        return [source]
    cost = cluster.cost
    limit = max_hops if max_hops is not None else n
    k = cluster.num_machines
    caches = [LRBUCache(None, cost) for _ in range(k)]
    parent: dict[int, int] = {source: -1}
    # frontier vertices stay on the machine that discovered them (like
    # PULL-EXTEND output partitioning); the source starts at its owner
    frontier: list[list[int]] = [[] for _ in range(k)]
    frontier[cluster.machine_of(source)].append(source)
    for _ in range(limit):
        if not any(frontier):
            return None
        next_frontier: list[list[int]] = [[] for _ in range(k)]
        for m in range(k):
            verts = frontier[m]
            if not verts:
                continue
            adj = _pull_frontier(cluster, m, caches[m], verts)
            ops = 0
            for v in verts:
                nbrs = adj[v]
                ops += len(nbrs) * cost.ticks.scan
                for u in nbrs:
                    u = int(u)
                    if u not in parent:
                        parent[u] = v
                        next_frontier[m].append(u)
            cluster.metrics.charge_ops(m, ops)
            caches[m].release()
        if target in parent:
            path = [target]
            while path[-1] != source:
                path.append(parent[path[-1]])
            return path[::-1]
        frontier = next_frontier
        cluster.metrics.check_time()
    return None


def shortest_path_lengths(cluster: Cluster, source: int,
                          max_hops: int | None = None) -> dict[int, int]:
    """Hop distance from ``source`` to every reachable vertex."""
    n = cluster.graph.num_vertices
    if not 0 <= source < n:
        raise ValueError("source out of range")
    cost = cluster.cost
    limit = max_hops if max_hops is not None else n
    k = cluster.num_machines
    caches = [LRBUCache(None, cost) for _ in range(k)]
    dist = {source: 0}
    frontier: list[list[int]] = [[] for _ in range(k)]
    frontier[cluster.machine_of(source)].append(source)
    depth = 0
    while any(frontier) and depth < limit:
        depth += 1
        nxt: list[list[int]] = [[] for _ in range(k)]
        for m in range(k):
            verts = frontier[m]
            if not verts:
                continue
            adj = _pull_frontier(cluster, m, caches[m], verts)
            ops = 0
            for v in verts:
                nbrs = adj[v]
                ops += len(nbrs) * cost.ticks.scan
                for u in nbrs:
                    u = int(u)
                    if u not in dist:
                        dist[u] = depth
                        nxt[m].append(u)
            cluster.metrics.charge_ops(m, ops)
            caches[m].release()
        frontier = nxt
    return dist
