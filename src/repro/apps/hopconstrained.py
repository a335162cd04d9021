"""Hop-constrained s–t simple path enumeration (paper §6, citing [59]).

"For hop-constrained path enumeration, HUGE can conduct a bi-directional
BFS by extending from both ends and joining in the middle."  The
implementation grows simple paths from ``source`` and from ``target`` for
half the hop budget each (distributed PULL-EXTEND rounds with cost
accounting) and hash-joins them on the middle vertex — the same
push/pull-hybrid structure HUGE uses for subgraph queries.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster

__all__ = ["enumerate_st_paths", "count_st_paths"]

Path = tuple[int, ...]


def _grow_paths(cluster: Cluster, start: int, hops: int) -> dict[int, list[Path]]:
    """All simple paths of length ≤ ``hops`` from ``start``, grouped by
    their endpoint.  Each round pulls the frontier's adjacency (one
    aggregated GetNbrs per machine pair) and extends, like PULL-EXTEND."""
    cost = cluster.cost
    by_end: dict[int, list[Path]] = {start: [(start,)]}
    frontier: list[Path] = [(start,)]
    for _ in range(hops):
        nxt: list[Path] = []
        by_machine: dict[int, list[Path]] = {}
        for p in frontier:
            by_machine.setdefault(cluster.machine_of(p[-1]), []).append(p)
        for m, paths in by_machine.items():
            remote = {p[-1] for p in paths
                      if cluster.machine_of(p[-1]) != m}
            fetched = cluster.get_nbrs(m, remote) if remote else {}
            ops = 0
            for p in paths:
                v = p[-1]
                nbrs = fetched.get(v)
                if nbrs is None:
                    nbrs = cluster.pgraph.neighbours_local(v, m)
                ops += len(nbrs) * cost.ticks.scan
                for u in nbrs:
                    u = int(u)
                    if u in p:
                        continue  # simple paths only
                    q = p + (u,)
                    nxt.append(q)
                    by_end.setdefault(u, []).append(q)
                    ops += len(q) * cost.ticks.emit
            cluster.metrics.charge_ops(m, ops)
        frontier = nxt
        cluster.metrics.check_time()
    return by_end


def enumerate_st_paths(cluster: Cluster, source: int, target: int,
                       max_hops: int) -> list[Path]:
    """Enumerate all simple paths from ``source`` to ``target`` with at
    most ``max_hops`` edges, via bi-directional growth + middle join."""
    n = cluster.graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source/target out of range")
    if max_hops < 0:
        raise ValueError("max_hops must be non-negative")
    if source == target:
        return [(source,)]
    fwd_hops = max_hops // 2
    bwd_hops = max_hops - fwd_hops
    fwd = _grow_paths(cluster, source, fwd_hops)
    bwd = _grow_paths(cluster, target, bwd_hops)

    cost = cluster.cost
    results: set[Path] = set()
    # join on the middle vertex: forward paths ending at v with backward
    # paths ending at v (a pushing-style hash join keyed by v)
    join_ops = 0
    for mid, fpaths in fwd.items():
        bpaths = bwd.get(mid)
        if not bpaths:
            continue
        owner = cluster.machine_of(mid)
        for fp in fpaths:
            join_ops += cost.ticks.hash_probe
            for bp in bpaths:
                if len(fp) + len(bp) - 1 > max_hops + 1:
                    continue
                if set(fp[:-1]) & set(bp):
                    continue  # not simple
                results.add(fp + bp[::-1][1:])
        cluster.metrics.charge_ops(owner, join_ops)
        join_ops = 0
    return sorted(results)


def count_st_paths(cluster: Cluster, source: int, target: int,
                   max_hops: int) -> int:
    """Number of simple ``source``→``target`` paths within ``max_hops``."""
    return len(enumerate_st_paths(cluster, source, target, max_hops))
