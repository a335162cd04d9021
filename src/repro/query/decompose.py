"""Sub-query machinery for the optimiser.

Algorithm 1 of the paper searches over *connected subgraphs* ``q' ⊆ q`` and
all ways to split each ``q'`` into ``q'_l ∪ q'_r`` with disjoint edge sets.
A sub-query is identified here by the subset of query **edges** it uses
(its vertex set follows); partial results of a sub-query match exactly
those edges, so two sub-queries with the same vertex set but different edge
sets are distinct DP states.

Join units are **stars** (paper §3.3: "By default, we use stars as the join
unit, as our system does not assume any index data").
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from typing import Iterator

from .pattern import QueryGraph

__all__ = [
    "SubQuery",
    "full_subquery",
    "star_subqueries",
    "connected_subqueries",
    "splits",
    "is_complete_star_join",
    "complete_star_root",
]

Edge = tuple[int, int]


def _norm(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class SubQuery:
    """A connected subgraph of the query, as a set of query edges.

    Everything derived from the (immutable) edge set is computed once per
    instance: the optimiser's DP asks each sub-query for its vertices and
    degrees thousands of times.
    """

    edges: frozenset[Edge]

    @cached_property
    def _adj(self) -> dict[int, frozenset[int]]:
        adj: dict[int, set[int]] = {}
        for u, v in self.edges:
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        return {v: frozenset(nbrs) for v, nbrs in adj.items()}

    @cached_property
    def vertices(self) -> frozenset[int]:
        """Vertices covered by the sub-query's edges."""
        return frozenset(self._adj)

    @property
    def num_vertices(self) -> int:
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        """Degree of ``v`` within this sub-query."""
        return len(self.neighbours(v))

    def neighbours(self, v: int) -> frozenset[int]:
        """Neighbours of ``v`` within this sub-query."""
        return self._adj.get(v, frozenset())

    @cached_property
    def _connected(self) -> bool:
        adj = self._adj
        if not adj:
            return True
        seen = {next(iter(adj))}
        frontier = list(seen)
        while frontier:
            for v in adj[frontier.pop()]:
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return len(seen) == len(adj)

    def is_connected(self) -> bool:
        """Whether the sub-query's edges form one connected component."""
        return self._connected

    @cached_property
    def _star(self) -> bool:
        # a tree whose edges all meet in one root; a single edge is a 1-star
        n = len(self._adj)
        return (len(self.edges) == n - 1
                and any(len(nbrs) == n - 1 for nbrs in self._adj.values()))

    def is_star(self) -> bool:
        """Whether this sub-query is a star (single edge counts as a 1-star)."""
        return self._star

    def star_root(self) -> int:
        """The root of this star; for a single edge, the smaller endpoint."""
        if not self.is_star():
            raise ValueError(f"{self} is not a star")
        return max(self.vertices, key=lambda v: (self.degree(v), -v))

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


def full_subquery(q: QueryGraph) -> SubQuery:
    """The sub-query consisting of every edge of ``q``."""
    return SubQuery(frozenset(q.edges))


def star_subqueries(q: QueryGraph) -> Iterator[SubQuery]:
    """All stars ``(v; L)`` with ``L ⊆ N_q(v)``, ``|L| ≥ 1``.

    These are the join units.  Single edges are emitted once (as the star
    rooted at the smaller endpoint).
    """
    seen: set[frozenset[Edge]] = set()
    for v in q.vertices():
        nbrs = sorted(q.neighbours(v))
        for size in range(1, len(nbrs) + 1):
            for leaves in combinations(nbrs, size):
                edges = frozenset(_norm(v, u) for u in leaves)
                if edges not in seen:
                    seen.add(edges)
                    yield SubQuery(edges)


def connected_subqueries(q: QueryGraph) -> Iterator[SubQuery]:
    """All connected edge-subsets of ``q``, in ascending edge count.

    Enumerated by growing connected sets one adjacent edge at a time, with
    canonical-parent dedup via a visited set (queries are tiny, ≤ ~10
    edges, so the 2^|E| worst case is fine).
    """
    all_edges = sorted(q.edges)
    seen: set[frozenset[Edge]] = set()
    frontier: list[frozenset[Edge]] = []
    for e in all_edges:
        s = frozenset([e])
        seen.add(s)
        frontier.append(s)
    by_size: dict[int, list[frozenset[Edge]]] = {1: list(frontier)}
    size = 1
    while by_size.get(size):
        nxt: list[frozenset[Edge]] = []
        for s in by_size[size]:
            verts = {v for e in s for v in e}
            for e in all_edges:
                if e in s:
                    continue
                if e[0] in verts or e[1] in verts:
                    s2 = s | {e}
                    if s2 not in seen:
                        seen.add(s2)
                        nxt.append(s2)
        if nxt:
            by_size[size + 1] = nxt
        size += 1
    for sz in sorted(by_size):
        for s in by_size[sz]:
            yield SubQuery(s)


def splits(sub: SubQuery) -> Iterator[tuple[SubQuery, SubQuery]]:
    """All ways to write ``sub = q'_l ∪ q'_r`` with disjoint edge sets and
    both sides connected (paper Algorithm 1 line 5).

    Each unordered split is yielded once, larger side first.
    """
    edges = sorted(sub.edges)
    m = len(edges)
    if m < 2:
        return
    # fix edges[0] on the left side to avoid yielding mirrored splits
    rest = edges[1:]
    for mask in range(1 << (m - 1)):
        left_edges = frozenset([edges[0]]) | frozenset(
            e for i, e in enumerate(rest) if mask >> i & 1)
        right_edges = sub.edges - left_edges
        if not right_edges:
            continue
        left, right = SubQuery(left_edges), SubQuery(right_edges)
        if not (left.is_connected() and right.is_connected()):
            continue
        if left.num_edges >= right.num_edges:
            yield left, right
        else:
            yield right, left


def _star_root_choices(star: SubQuery) -> list[int]:
    """Valid root choices for a star: both endpoints of a single edge,
    otherwise the unique centre."""
    verts = sorted(star.vertices)
    if len(verts) == 2:
        return verts
    return [star.star_root()]


def complete_star_root(left: SubQuery, right: SubQuery) -> int | None:
    """If ``(·, left, right)`` is a *complete star join* (Definition 3.1),
    return the star root to extend by; otherwise ``None``.

    ``right`` must be a star ``(v; L)`` with ``L ⊆ V(left)``.  For a single
    edge either endpoint may serve as the root; a root **not** already in
    ``left`` is preferred since it represents a genuinely new vertex.
    """
    if not right.is_star():
        return None
    valid = [r for r in _star_root_choices(right)
             if (right.vertices - {r}) <= left.vertices]
    if not valid:
        return None
    new_roots = [r for r in valid if r not in left.vertices]
    return (new_roots or valid)[0]


def is_complete_star_join(left: SubQuery, right: SubQuery) -> bool:
    """Definition 3.1: the join is a *complete star join* iff ``right`` is a
    star ``(v; L)`` with ``L ⊆ V(left)``."""
    return complete_star_root(left, right) is not None

