"""Sub-query machinery for the optimiser.

Algorithm 1 of the paper searches over *connected subgraphs* ``q' ⊆ q`` and
all ways to split each ``q'`` into ``q'_l ∪ q'_r`` with disjoint edge sets.
A sub-query is identified here by the subset of query **edges** it uses
(its vertex set follows) — in the DP an ``int``, one bit per edge
(:class:`SubQueryMasks`); partial results of a sub-query match exactly
those edges, so two sub-queries with the same vertex set but different edge
sets are distinct DP states.

Join units are **stars** (paper §3.3: "By default, we use stars as the join
unit, as our system does not assume any index data").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .pattern import QueryGraph

__all__ = [
    "SubQuery",
    "SubQueryMasks",
    "full_subquery",
    "mask_splits",
    "complete_star_root",
]

Edge = tuple[int, int]


@dataclass(frozen=True)
class SubQuery:
    """A connected subgraph of the query, as a set of query edges.

    What Equation 3 reads is computed once per instance, as bitmasks
    (bit ``v`` for query vertex ``v``): the DP tests containment on one
    sub-query's masks thousands of times.  The masks do not depend on
    the query, so a builder's sub-query answers the same tests.
    """

    edges: frozenset[Edge]

    @cached_property
    def vertices(self) -> frozenset[int]:
        """Vertices covered by the sub-query's edges."""
        return frozenset(v for e in self.edges for v in e)

    @cached_property
    def vmask(self) -> int:
        """The vertex set as a bitmask: bit ``v`` for query vertex ``v``."""
        return sum(1 << v for v in self.vertices)

    @cached_property
    def star_mask(self) -> int:
        """The vertices every edge meets: both endpoints of a single edge,
        the centre of a larger star, ``0`` for anything else — i.e. the
        valid star roots."""
        common = -1
        for u, v in self.edges:
            common &= 1 << u | 1 << v
        return common if self.edges else 0

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Degree of ``v`` within this sub-query."""
        return len(self.neighbours(v))

    def neighbours(self, v: int) -> frozenset[int]:
        """Neighbours of ``v`` within this sub-query."""
        return frozenset(b if a == v else a for a, b in self.edges
                         if v in (a, b))

    def is_star(self) -> bool:
        """Whether this sub-query is a star (single edge counts as a 1-star)."""
        return self.star_mask != 0

    def star_root(self) -> int:
        """The root of this star; for a single edge, the smaller endpoint."""
        if not self.star_mask:
            raise ValueError(f"{self} is not a star")
        return _low_vertex(self.star_mask)

    def star_leaves(self) -> frozenset[int]:
        """Leaves of this star."""
        root = self.star_root()
        return self.vertices - {root}

    def union(self, other: "SubQuery") -> "SubQuery":
        """Edge-union of two sub-queries."""
        return SubQuery(self.edges | other.edges)

    def to_query_graph(self, name: str | None = None) -> tuple[QueryGraph, list[int]]:
        """Relabel to a dense :class:`QueryGraph`.

        Returns the pattern plus the ``schema``: original query-vertex IDs in
        the order they were assigned dense IDs (sorted ascending).
        """
        schema = sorted(self.vertices)
        pos = {v: i for i, v in enumerate(schema)}
        qg = QueryGraph(len(schema), [(pos[u], pos[v]) for u, v in self.edges],
                        name=name)
        return qg, schema

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"SubQuery({sorted(self.edges)})"


def _low_vertex(mask: int) -> int:
    """The lowest vertex (bit index) of a non-empty vertex mask."""
    return (mask & -mask).bit_length() - 1


def full_subquery(q: QueryGraph) -> SubQuery:
    """The sub-query consisting of every edge of ``q``."""
    return SubQuery(frozenset(q.edges))


class SubQueryMasks:
    """Every edge subset of ``q`` as an ``int``: bit ``i`` is the ``i``-th
    edge of ``sorted(q.edges)``.

    Three tables over all ``2^|E_q|`` masks are built in one ascending
    pass, each mask from the mask without its lowest edge: ``vmask``
    (covered vertices, bit ``v`` for vertex ``v``), ``star`` (the vertices
    every edge meets, as :attr:`SubQuery.star_mask`) and ``connected``.
    A connected set of two or more edges stays connected without one of
    them — a non-tree edge, or a leaf edge of a tree — so a mask is
    connected iff dropping some edge leaves a connected mask that the
    edge touches.  ``≤ 2^7`` masks for q1–q8, ``2^10`` for the
    five-vertex clique.
    """

    def __init__(self, q: QueryGraph):
        self.edges = sorted(q.edges)
        ebits = [1 << u | 1 << v for u, v in self.edges]
        size = 1 << len(ebits)
        vmask = [0] * size
        star = [-1] + [0] * (size - 1)  # -1: the identity of ``&``
        connected = [False] * size
        for m in range(1, size):
            low = m & -m
            vmask[m] = vmask[m ^ low] | ebits[low.bit_length() - 1]
            star[m] = star[m ^ low] & ebits[low.bit_length() - 1]
            connected[m] = bool(star[m]) or any(
                connected[m ^ 1 << i] and vmask[m ^ 1 << i] & ebits[i]
                for i in range(len(ebits)) if m >> i & 1)
        star[0] = 0
        self.vmask = vmask
        self.star = star
        self.connected = connected
        self.full = size - 1

    def subquery(self, mask: int) -> SubQuery:
        """The :class:`SubQuery` of ``mask``'s edges."""
        return SubQuery(frozenset(e for i, e in enumerate(self.edges)
                                  if mask >> i & 1))

    def by_size(self) -> list[int]:
        """The connected masks in ascending edge count — every proper
        connected sub-mask comes before its supersets."""
        return sorted((m for m in range(1, self.full + 1)
                       if self.connected[m]), key=int.bit_count)


def mask_splits(mask: int, connected: list[bool]) -> Iterator[tuple[int, int]]:
    """All ways to write ``mask = l | r`` with disjoint, non-empty,
    connected sides (paper Algorithm 1 line 5), each unordered split
    once, larger side first.

    The lowest edge stays on the left and the rest of the left side runs
    over the sub-masks of the other edges in ascending order — the order
    the DP's final tie-break (the first of equal plans) is defined by.
    """
    low = mask & -mask
    rest = mask ^ low
    sub = 0
    while True:
        left = low | sub
        right = mask ^ left
        if right and connected[left] and connected[right]:
            if left.bit_count() >= right.bit_count():
                yield left, right
            else:
                yield right, left
        if sub == rest:
            return
        sub = (sub - rest) & rest


def complete_star_root(left: SubQuery, right: SubQuery) -> int | None:
    """If ``(·, left, right)`` is a *complete star join* (Definition 3.1),
    return the star root to extend by; otherwise ``None``.

    ``right`` must be a star ``(v; L)`` with ``L ⊆ V(left)``.  For a single
    edge either endpoint may serve as the root; a root **not** already in
    ``left`` is preferred since it represents a genuinely new vertex.
    """
    roots = right.star_mask
    if not roots:
        return None
    # root r is valid iff every other vertex of ``right`` is in ``left``
    outside = right.vmask & ~left.vmask
    if not outside:
        return _low_vertex(roots)
    if outside & (outside - 1) or not outside & roots:
        return None
    return _low_vertex(outside)
