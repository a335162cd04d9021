"""Random vertex partitioning of the data graph.

Paper §2 (*Graph Storage*): "We randomly partition a data graph G in a
distributed context as most existing works.  For each vertex u ∈ V_G, we
store it with its adjacency list (u; N(u)) in one of the partitions."

A vertex whose adjacency list lives in the local partition is a *local
vertex*; all others are *remote* and must be pulled (via the ``GetNbrs``
RPC) or reached by pushing partial results to their owner.
"""

from __future__ import annotations

import numpy as np

from .graph import Graph

__all__ = ["hash_partition", "PartitionedGraph"]


def hash_partition(num_vertices: int, num_partitions: int,
                   seed: int = 0) -> np.ndarray:
    """Assign each vertex to a partition pseudo-randomly but deterministically.

    Returns an array ``owner`` with ``owner[v]`` ∈ ``[0, num_partitions)``.
    A seeded permutation-based hash is used instead of ``v % k`` so that
    partition sizes are balanced regardless of any structure in vertex IDs.
    """
    if num_partitions < 1:
        raise ValueError("need at least one partition")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_vertices) if num_vertices else np.empty(0, np.int64)
    return (perm % num_partitions).astype(np.int64)


class PartitionedGraph:
    """A data graph split across ``k`` machines by vertex ownership.

    Every machine holds the adjacency lists of the vertices it owns.  The
    full CSR stays materialised once in-process (this is a simulation of a
    shared-nothing cluster, not a multi-host deployment); a reader pays
    for the remote rows it touches through ``Cluster.pull``.
    """

    def __init__(self, graph: Graph, num_partitions: int, seed: int = 0,
                 owner: np.ndarray | None = None):
        if owner is None:
            owner = hash_partition(graph.num_vertices, num_partitions, seed)
        owner = np.asarray(owner, dtype=np.int64)
        if len(owner) != graph.num_vertices:
            raise ValueError("owner array must have one entry per vertex")
        if num_partitions < 1:
            raise ValueError("need at least one partition")
        if len(owner) and (owner.min() < 0 or owner.max() >= num_partitions):
            raise ValueError("owner ids out of range")
        self._graph = graph
        self._num_partitions = num_partitions
        self._owner = owner
        self._owner.setflags(write=False)
        self._locals: list[np.ndarray] = [
            np.flatnonzero(owner == p).astype(np.int64)
            for p in range(num_partitions)
        ]

    # -- topology-wide accessors (used by planners / estimators only) -------

    @property
    def graph(self) -> Graph:
        """The underlying global graph (planner/estimator use only)."""
        return self._graph

    @property
    def num_partitions(self) -> int:
        """Number of partitions (machines) ``k``."""
        return self._num_partitions

    @property
    def owner(self) -> np.ndarray:
        """Vertex → owning partition array (read-only)."""
        return self._owner

    # -- per-partition API ---------------------------------------------------

    def owner_of(self, v: int) -> int:
        """Partition that owns vertex ``v``."""
        return int(self._owner[v])

    def local_vertices(self, partition: int) -> np.ndarray:
        """Sorted array of vertices owned by ``partition``."""
        return self._locals[partition]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"PartitionedGraph(k={self._num_partitions}, "
                f"|V|={self._graph.num_vertices}, |E|={self._graph.num_edges})")
