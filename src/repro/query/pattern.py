"""Query graphs (patterns) and the paper's benchmark query set.

A :class:`QueryGraph` is a small, connected, undirected, unlabelled pattern
whose vertices are dense integers ``0 .. n-1`` — the ``v_1 .. v_n`` of the
paper (0-indexed here).  It is immutable and hashable so patterns can key
optimiser DP tables.

The paper's evaluation uses queries ``q1 .. q8`` shown in its Figure 4,
which is an image and therefore not recoverable from the text.  The shapes
below are reconstructed from the textual constraints and the query sets of
the prior work the paper cites ([5, 46, 47, 63, 66, 84]):

* ``q1`` — **square** (4-cycle).  Table 1 runs "the square query" and
  Exp-1/Exp-2 use q1 as the first query.
* ``q2`` — **chordal square / diamond** (4-cycle plus one chord).  RADS
  materialises "a massive number of 3-stars" for it (Exp-1), which matches
  the diamond's degree-3 roots.
* ``q3`` — **4-clique**: "SEED can query q3 (a clique) without any join"
  (Exp-2).
* ``q4`` — **house** (5-cycle plus one chord).
* ``q5`` — **double square** (two 4-cycles sharing an edge).
* ``q6`` — **5-path** (path on five vertices): the "long-running query that
  can trigger memory crisis" of Exp-7 — path queries have the largest
  intermediate-result explosion.
* ``q7`` — **5-cycle**: Exp-9 says its best plan "joins a 3-path with a
  2-path" via PUSH-JOIN, while "the wco join plan must produce the matches
  of a 4-path" — exactly the pentagon's classic hybrid plan.
* ``q8`` — **6-cycle**: a query where HUGE / EmptyHeaded / GraphFlow "all
  generate their own hybrid plans" (Exp-9).
"""

from __future__ import annotations

from typing import Iterable, Iterator

__all__ = ["QueryGraph", "QUERIES", "get_query"]


class QueryGraph:
    """An immutable small pattern graph.

    Parameters
    ----------
    num_vertices:
        Number of pattern vertices ``|V_q|``.
    edges:
        Iterable of undirected edges between pattern vertices.
    name:
        Optional display name (not part of equality).
    labels:
        Optional per-vertex label constraints (paper §2, footnote 3:
        labelled graphs are supported seamlessly).  ``None`` entries are
        wildcards; a labelled vertex only matches data vertices carrying
        the same label.
    """

    __slots__ = ("_n", "_edges", "_adj", "_name", "_labels", "_canon")

    def __init__(self, num_vertices: int, edges: Iterable[tuple[int, int]],
                 name: str | None = None,
                 labels: "Iterable[int | None] | None" = None):
        norm = set()
        for u, v in edges:
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError(f"edge ({u}, {v}) out of range for "
                                 f"{num_vertices} vertices")
            if u == v:
                raise ValueError(f"self-loop on vertex {u}")
            norm.add((min(u, v), max(u, v)))
        self._n = num_vertices
        self._edges = frozenset(norm)
        adj: list[set[int]] = [set() for _ in range(num_vertices)]
        for u, v in self._edges:
            adj[u].add(v)
            adj[v].add(u)
        self._adj = tuple(frozenset(s) for s in adj)
        self._name = name
        self._canon: tuple[int, ...] | None = None  # lazy canonical mapping
        if labels is None:
            self._labels: tuple[int | None, ...] = (None,) * num_vertices
        else:
            self._labels = tuple(labels)
            if len(self._labels) != num_vertices:
                raise ValueError("need one label (or None) per vertex")

    # -- accessors -----------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """``|V_q|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """``|E_q|``."""
        return len(self._edges)

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Normalised edge set, each edge as ``(min, max)``."""
        return self._edges

    @property
    def name(self) -> str:
        """Display name."""
        return self._name or f"pattern<{self._n}v,{len(self._edges)}e>"

    @property
    def labels(self) -> tuple[int | None, ...]:
        """Per-vertex label constraints (``None`` = wildcard)."""
        return self._labels

    @property
    def is_labelled(self) -> bool:
        """Whether any vertex carries a label constraint."""
        return any(l is not None for l in self._labels)

    def label(self, v: int) -> int | None:
        """Label constraint of pattern vertex ``v``."""
        return self._labels[v]

    def vertices(self) -> range:
        """Pattern vertex IDs."""
        return range(self._n)

    def neighbours(self, v: int) -> frozenset[int]:
        """Pattern neighbours of ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """Pattern degree of ``v``."""
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether pattern edge ``(u, v)`` exists."""
        return (min(u, v), max(u, v)) in self._edges

    # -- structure tests -----------------------------------------------------

    def is_connected(self) -> bool:
        """Whether the pattern is connected (isolated-vertex-free)."""
        if self._n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for v in self._adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen) == self._n

    def is_star(self) -> bool:
        """Whether the pattern is a star (a tree of depth 1, incl. an edge)."""
        if self._n < 2 or len(self._edges) != self._n - 1:
            return False
        degrees = sorted(self.degree(v) for v in self.vertices())
        # star: one centre of degree n-1, all others degree 1 (an edge is a
        # 1-star with either endpoint as the root)
        return degrees[-1] == self._n - 1 and all(d == 1 for d in degrees[:-1])

    def star_root(self) -> int:
        """Root of this star (max-degree vertex).  Requires :meth:`is_star`."""
        if not self.is_star():
            raise ValueError(f"{self.name} is not a star")
        return max(self.vertices(), key=self.degree)

    def is_clique(self) -> bool:
        """Whether the pattern is a complete graph."""
        return len(self._edges) == self._n * (self._n - 1) // 2

    # -- canonicalisation ----------------------------------------------------

    def _canonical_mapping(self) -> tuple[int, ...]:
        """Permutation ``mapping[v] = canonical position of v`` giving the
        lexicographically smallest class-respecting adjacency encoding.

        Vertices are first partitioned into classes by a twice-refined
        Weisfeiler-Leman-style invariant (label, degree, sorted neighbour
        invariants) — an isomorphism invariant, so isomorphic patterns
        produce the same class structure.  A branch-and-bound search then
        assigns canonical positions class by class, pruning any prefix
        whose adjacency rows already exceed the best found; the row-prefix
        pruning keeps highly symmetric patterns (cycles, cliques) cheap.
        """
        if self._canon is not None:
            return self._canon
        n = self._n
        if n == 0:
            self._canon = ()
            return self._canon
        # iso-invariant vertex classes: (label, degree) refined twice over
        # sorted neighbour invariants
        inv: list = [((lab is not None, lab if lab is not None else 0),
                      len(self._adj[v]))
                     for v, lab in enumerate(self._labels)]
        for _ in range(2):
            inv = [(inv[v], tuple(sorted(inv[w] for w in self._adj[v])))
                   for v in range(n)]
        ranking = {value: i for i, value in enumerate(sorted(set(inv)))}
        cls = [ranking[inv[v]] for v in range(n)]
        pos_class = sorted(cls)  # class of each canonical position

        adj = self._adj
        assigned: list[int] = [-1] * n  # canonical position -> vertex
        used = [False] * n
        rows: list[tuple[int, ...]] = []
        best_rows: list[tuple[int, ...]] | None = None
        best_perm: list[int] | None = None

        def dfs(p: int, tight: bool) -> None:
            # ``tight``: the current row prefix equals the best's prefix,
            # so per-position pruning against ``best_rows`` is sound
            nonlocal best_rows, best_perm
            if p == n:
                if best_rows is None or rows < best_rows:
                    best_rows = rows.copy()
                    best_perm = assigned.copy()
                return
            want = pos_class[p]
            for v in range(n):
                if used[v] or cls[v] != want:
                    continue
                row = tuple(1 if assigned[j] in adj[v] else 0
                            for j in range(p))
                still_tight = tight
                if best_rows is not None and tight:
                    if row < best_rows[p]:
                        still_tight = False
                    elif row > best_rows[p]:
                        continue  # prefix already worse than best: prune
                assigned[p] = v
                used[v] = True
                rows.append(row)
                dfs(p + 1, still_tight)
                rows.pop()
                used[v] = False
                assigned[p] = -1

        dfs(0, True)
        assert best_perm is not None
        mapping = [0] * n
        for position, v in enumerate(best_perm):
            mapping[v] = position
        self._canon = tuple(mapping)
        return self._canon

    def canonical_form(self) -> "tuple[QueryGraph, tuple[int, ...]]":
        """The canonical relabelling of this pattern.

        Returns ``(canon, mapping)`` where ``canon`` is an isomorphic
        :class:`QueryGraph` in canonical vertex order and
        ``mapping[v]`` is the canonical position of this pattern's vertex
        ``v``.  Two patterns are isomorphic **iff** their canonical forms
        are equal, which is what lets the serving layer's plan cache key
        physical plans by pattern *shape* rather than vertex numbering.
        """
        mapping = self._canonical_mapping()
        canon = self.relabel(dict(enumerate(mapping)),
                             name=f"{self.name}#canon")
        return canon, mapping

    def canonical_key(self) -> str:
        """Order-independent canonical cache key for this pattern.

        Isomorphic patterns (same shape and labels, any vertex numbering)
        share a key; non-isomorphic patterns do not.  The key is a compact
        string so it can appear verbatim in JSON artifacts and metrics.
        """
        canon, _ = self.canonical_form()
        labels = ",".join("*" if lab is None else str(lab)
                          for lab in canon.labels)
        edges = ";".join(f"{u}-{v}" for u, v in sorted(canon.edges))
        return f"{canon.num_vertices}v[{labels}]{edges}"

    # -- transformation ------------------------------------------------------

    def relabel(self, mapping: dict[int, int],
                name: str | None = None) -> "QueryGraph":
        """Return a copy with vertices renamed through ``mapping``."""
        n = max(mapping.values()) + 1 if mapping else 0
        labels: list[int | None] = [None] * n
        for v, target in mapping.items():
            labels[target] = self._labels[v]
        return QueryGraph(
            n, [(mapping[u], mapping[v]) for u, v in self._edges],
            name=name, labels=labels)

    # -- dunder ---------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryGraph):
            return NotImplemented
        return (self._n == other._n and self._edges == other._edges
                and self._labels == other._labels)

    def __hash__(self) -> int:
        return hash((self._n, self._edges, self._labels))

    def __len__(self) -> int:
        return self._n

    def __iter__(self) -> Iterator[int]:
        return iter(range(self._n))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"QueryGraph({self.name}: |V|={self._n}, E={sorted(self._edges)})"


def _q(name: str, n: int, edges: list[tuple[int, int]]) -> QueryGraph:
    return QueryGraph(n, edges, name=name)


#: The benchmark query set (paper Figure 4, reconstructed — see module doc).
QUERIES: dict[str, QueryGraph] = {
    "triangle": _q("triangle", 3, [(0, 1), (1, 2), (0, 2)]),
    "q1": _q("q1-square", 4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
    "q2": _q("q2-diamond", 4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
    "q3": _q("q3-4clique", 4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "q4": _q("q4-house", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]),
    "q5": _q("q5-double-square", 6,
             [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4), (4, 5), (5, 3)]),
    "q6": _q("q6-5path", 5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
    "q7": _q("q7-5cycle", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)]),
    "q8": _q("q8-6cycle", 6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)]),
}


def get_query(name: "str | QueryGraph") -> QueryGraph:
    """Look up a benchmark query by name (``q1`` .. ``q8``, ``triangle``);
    a :class:`QueryGraph` is returned unchanged."""
    if isinstance(name, QueryGraph):
        return name
    try:
        return QUERIES[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown query {name!r}; choose from {sorted(QUERIES)}") from None
