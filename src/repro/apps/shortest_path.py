"""Shortest paths on top of the HUGE runtime (paper §6).

"Shortest path can be computed by repeatedly applying PULL-EXTEND from the
source vertex until it arrives at the target."  One frontier loop does
that on the simulated cluster: each machine holds the vertices it
discovered as an id array, pulls their adjacency with one aggregated
``GetNbrs`` per owner (:meth:`Cluster.pull
<repro.cluster.cluster.Cluster.pull>`), gathers it from the CSR and keeps
the vertices not seen before.  BFS expands every vertex once, so there is
nothing for a cache to hit and none is kept.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..core.kernels import csr_gather

__all__ = ["shortest_path", "shortest_path_lengths"]


def _bfs(cluster: Cluster, source: int, max_hops: int | None,
         target: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS from ``source`` for at most ``max_hops``
    rounds, stopping after the round that reaches ``target``.

    Returns ``(depth, parent)`` over all vertices, ``-1`` where
    unreached.  Frontier vertices stay on the machine that discovered
    them (like PULL-EXTEND output partitioning; the source starts at its
    owner); machines take their turn in index order and a vertex belongs
    to its first discoverer, in adjacency order.
    """
    graph = cluster.graph
    n = graph.num_vertices
    if not (0 <= source < n and (target is None or 0 <= target < n)):
        raise ValueError("source/target out of range")
    scan = cluster.cost.ticks.scan
    depth = np.full(n, -1, dtype=np.int64)
    parent = np.full(n, -1, dtype=np.int64)
    depth[source] = 0
    frontier = [np.empty(0, dtype=np.int64)] * cluster.num_machines
    frontier[cluster.machine_of(source)] = np.array([source])
    for hop in range(1, (n if max_hops is None else max_hops) + 1):
        if not any(map(len, frontier)) or (
                target is not None and depth[target] >= 0):
            break
        for m, verts in enumerate(frontier):
            if not len(verts):
                continue
            sizes = cluster.pull(m, verts)
            cluster.metrics.charge_ops(m, int(sizes.sum() - len(verts)) * scan)
            row_ids, nbrs = csr_gather(graph.indptr, graph.indices, verts)
            fresh = np.flatnonzero(depth[nbrs] < 0)
            _, first = np.unique(nbrs[fresh], return_index=True)
            at = fresh[np.sort(first)]  # first-discovery order
            frontier[m] = found = nbrs[at]
            depth[found] = hop
            parent[found] = verts[row_ids[at]]
        cluster.metrics.check_time()
    return depth, parent


def shortest_path(cluster: Cluster, source: int, target: int,
                  max_hops: int | None = None) -> list[int] | None:
    """Unweighted shortest path from ``source`` to ``target``.

    Returns the vertex list (inclusive) or ``None`` if unreachable within
    ``max_hops``.  Each BFS round is one distributed PULL-EXTEND.
    """
    depth, parent = _bfs(cluster, source, max_hops, target)
    if depth[target] < 0:
        return None
    path = [target]
    while path[-1] != source:
        path.append(int(parent[path[-1]]))
    return path[::-1]


def shortest_path_lengths(cluster: Cluster, source: int,
                          max_hops: int | None = None) -> dict[int, int]:
    """Hop distance from ``source`` to every reachable vertex."""
    depth, _ = _bfs(cluster, source, max_hops)
    reached = np.flatnonzero(depth >= 0)
    return dict(zip(reached.tolist(), depth[reached].tolist()))
