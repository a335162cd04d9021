"""Compressed-sparse-row (CSR) graph storage.

The data graph in HUGE is an unlabelled, undirected, simple graph stored in
CSR format (paper §7.1: "we partition and store the data graph in the
compressed sparse row (CSR) format and keep them in-memory").  Vertices are
dense integer IDs ``0 .. n-1``; each adjacency list is sorted ascending so
that set intersections (the inner loop of worst-case-optimal joins) can be
computed by linear merges, and membership tests by binary search.

``Graph`` is immutable after construction.  Neighbour access returns a
read-only numpy *view* into the CSR ``indices`` array — no copy is made,
mirroring the zero-copy design goal of the paper's cache layer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["Graph", "edge_rows"]


def edge_rows(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """Normalise an edge iterable to an ``(m, 2)`` array of ``(u, v)``
    rows with ``u < v``, ascending and unique.

    Self-loops are dropped and duplicates collapse through a 1-D
    ``u * w + v`` key; negative vertex IDs are rejected.
    """
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    rows = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    width = int(rows.max(initial=0)) + 1
    if rows.min(initial=0) < 0 or width > 2**31:    # keys must fit int64
        raise ValueError("vertex id in edge list negative or beyond 2**31")
    u, v = rows[:, 0], rows[:, 1]
    # a sort and a mask: ten times under np.unique's hash pass on int64
    keys = np.sort((np.minimum(u, v) * width + np.maximum(u, v))[u != v])
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    return np.stack([keys // width, keys % width], axis=1)


class Graph:
    """An immutable undirected graph in CSR form.

    Parameters
    ----------
    indptr:
        CSR row-pointer array of length ``n + 1``.
    indices:
        CSR column-index array; ``indices[indptr[u]:indptr[u+1]]`` are the
        neighbours of ``u``, sorted ascending.

    Use :func:`Graph.from_edges` (or :mod:`repro.graph.builder`) to build a
    graph from an edge list rather than calling the constructor directly.
    """

    __slots__ = ("_indptr", "_indices", "_composite")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        indptr = np.asarray(indptr, dtype=np.int64)
        indices = np.asarray(indices, dtype=np.int64)
        if indptr.ndim != 1 or indices.ndim != 1:
            raise ValueError("indptr and indices must be one-dimensional")
        if len(indptr) == 0 or indptr[0] != 0 or indptr[-1] != len(indices):
            raise ValueError("malformed CSR: bad indptr bounds")
        if np.any(np.diff(indptr) < 0):
            raise ValueError("malformed CSR: indptr must be non-decreasing")
        indptr.setflags(write=False)
        indices.setflags(write=False)
        self._indptr = indptr
        self._indices = indices
        #: lazily built sorted ``u * n + v`` edge-composite index, cached
        #: here (and shm-preloaded in process workers) because it derives
        #: purely from the immutable CSR arrays
        self._composite: np.ndarray | None = None

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(
        cls, edges: Iterable[tuple[int, int]], num_vertices: int | None = None
    ) -> "Graph":
        """Build a graph from an iterable of undirected edges.

        Self-loops are dropped and duplicate edges collapsed.  If
        ``num_vertices`` is not given it is inferred as ``max id + 1``.
        """
        rows = edge_rows(edges)
        n = int(rows.max()) + 1 if rows.size else 0
        if num_vertices is not None:
            if num_vertices < n:
                raise ValueError(
                    f"num_vertices={num_vertices} smaller than max id + 1 = {n}"
                )
            n = num_vertices
        # both directions as 1-D ``u * n + v`` keys: sorted, they are the
        # arcs in (src, dst) order — exactly CSR order
        keys = np.sort(np.concatenate(
            [rows[:, 0] * n + rows[:, 1], rows[:, 1] * n + rows[:, 0]]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        if n:
            np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
            keys %= n
        return cls(indptr, keys)

    @classmethod
    def empty(cls, num_vertices: int = 0) -> "Graph":
        """A graph with ``num_vertices`` vertices and no edges."""
        return cls(np.zeros(num_vertices + 1, dtype=np.int64),
                   np.empty(0, dtype=np.int64))

    # -- basic accessors ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return len(self._indices) // 2

    @property
    def indptr(self) -> np.ndarray:
        """The CSR row-pointer array (read-only)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """The CSR column-index array (read-only)."""
        return self._indices

    def degree(self, u: int) -> int:
        """Degree of vertex ``u``."""
        return int(self._indptr[u + 1] - self._indptr[u])

    def neighbours(self, u: int) -> np.ndarray:
        """Sorted neighbours of ``u`` as a read-only view (zero-copy)."""
        return self._indices[self._indptr[u]:self._indptr[u + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists (binary search)."""
        if not (0 <= u < self.num_vertices and 0 <= v < self.num_vertices):
            return False
        nbrs = self.neighbours(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and nbrs[i] == v

    def composite_index(self) -> np.ndarray:
        """Sorted composite arc keys ``u * n + v`` (read-only, cached).

        CSR stores arcs grouped by ascending ``u`` with each adjacency
        sorted, so the array is globally sorted as built and a key's
        position in it *is* the arc's position in :attr:`indices`.
        """
        if self._composite is None:
            n = self.num_vertices
            comp = np.repeat(np.arange(n, dtype=np.int64),
                             np.diff(self._indptr)) * n + self._indices
            comp.setflags(write=False)
            self._composite = comp
        return self._composite

    def has_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge`: one ``searchsorted`` on the
        composite index; ids outside ``0 .. n-1`` are in no edge."""
        n, comp = self.num_vertices, self.composite_index()
        keys = src * n + dst
        at = np.searchsorted(comp, keys)
        found = ((src >= 0) & (src < n) & (dst >= 0) & (dst < n)
                 & (at < len(comp)))
        found[found] = comp[at[found]] == keys[found]
        return found

    # -- statistics ---------------------------------------------------------

    @property
    def max_degree(self) -> int:
        """Maximum degree ``D_G``."""
        if self.num_vertices == 0:
            return 0
        return int(np.max(np.diff(self._indptr)))

    @property
    def avg_degree(self) -> float:
        """Average degree ``d̄_G``."""
        if self.num_vertices == 0:
            return 0.0
        return len(self._indices) / self.num_vertices

    def degrees(self) -> np.ndarray:
        """Array of all vertex degrees."""
        return np.diff(self._indptr)

    # -- iteration ----------------------------------------------------------

    def vertices(self) -> range:
        """Iterate vertex IDs ``0 .. n-1``."""
        return range(self.num_vertices)

    def edge_array(self) -> np.ndarray:
        """Each undirected edge once as a row ``(u, v)`` with ``u < v``,
        rows in ascending order."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64),
                        np.diff(self._indptr))
        upper = src < self._indices
        return np.stack([src[upper], self._indices[upper]], axis=1)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        return map(tuple, self.edge_array().tolist())

    # -- dunder -------------------------------------------------------------

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Graph(|V|={self.num_vertices}, |E|={self.num_edges}, "
                f"D={self.max_degree})")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (np.array_equal(self._indptr, other._indptr)
                and np.array_equal(self._indices, other._indices))

    def __hash__(self) -> int:
        return hash((self._indptr.tobytes(), self._indices.tobytes()))
