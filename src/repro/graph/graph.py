"""Compressed-sparse-row (CSR) graph storage.

The data graph in HUGE is an unlabelled, undirected, simple graph stored in
CSR format (paper §7.1: "we partition and store the data graph in the
compressed sparse row (CSR) format and keep them in-memory").  Vertices are
dense integer IDs ``0 .. n-1``; each adjacency list is sorted ascending so
that set intersections (the inner loop of worst-case-optimal joins) can be
computed by linear merges, and membership tests by binary search.

``Graph`` is also the one place that decides whether an arc exists
(:meth:`Graph.has_arc_keys`): a batch of composite keys ``u * n + v``
is answered by binary search over the sorted composite index until the
snapshot has answered :data:`ARC_TABLE_AFTER` probes per arc that way,
and from then on by one gather from a hashed slot table
(:meth:`Graph.arc_table`).  A snapshot that lives for one small update
batch never pays the table's O(E) build; one that serves an
enumeration pays it once.

``Graph`` is immutable after construction.  Neighbour access returns a
read-only numpy *view* into the CSR ``indices`` array — no copy is made,
mirroring the zero-copy design goal of the paper's cache layer.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

__all__ = ["ARC_BLOCK_KEYS", "ARC_TABLE_AFTER", "Graph", "edge_rows"]

#: membership probes per arc a snapshot answers by binary search before
#: it builds its slot table.  A snapshot behind one 8-edge update batch
#: reads about 2 per arc at most, a triangle count read off it included;
#: an enumeration reads tens.
ARC_TABLE_AFTER = 4

#: the most keys :meth:`Graph.has_arc_keys` answers at once, which bounds
#: its temporaries (a module constant, so a test can shrink it)
ARC_BLOCK_KEYS = 1 << 14

#: slot-table markers; an arc key ``u * n + v`` is never negative
_EMPTY, _SHARED = -1, -2
#: Fibonacci hashing: the key times 2**64 / golden ratio, top bits kept
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)


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

    __slots__ = ("_indptr", "_indices", "_composite", "_arcs", "_probes")

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
        #: lazily built hashed slot table over the composite keys, and the
        #: membership probes answered before it existed (see
        #: :meth:`has_arc_keys`); never shared between processes
        self._arcs: np.ndarray | None = None
        self._probes = 0

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

    def arc_table(self) -> np.ndarray:
        """The hashed slot table of the composite keys (read-only, cached).

        ``int64`` slots, at least four per arc and a power of two in
        number; key ``k`` lives in slot ``(k * _GOLDEN mod 2**64) >>
        (64 - bits)``.  A slot holds the one arc key that hashes there,
        ``_EMPTY`` if none does, or ``_SHARED`` if two or more do — so a
        probe is answered exactly by its slot unless the slot is shared,
        and only those probes fall back to the composite index.  Built
        whole, then published with one assignment: two threads probing a
        fresh snapshot can at worst both build it.
        """
        if self._arcs is None:
            comp = self.composite_index()
            bits = max(3, (4 * len(comp) - 1).bit_length())
            slot = _slots(comp, bits)
            table = np.full(1 << bits, _EMPTY, dtype=np.int64)
            table[slot] = comp
            table[np.bincount(slot, minlength=1 << bits) > 1] = _SHARED
            table.setflags(write=False)
            self._arcs = table
        return self._arcs

    def arc_table_due(self, probes: int) -> np.ndarray | None:
        """Count ``probes`` more membership probes answered without the
        slot table; then :meth:`arc_table` if this snapshot has answered
        :data:`ARC_TABLE_AFTER` per arc that way, else ``None``.
        :meth:`has_arc_keys` asks before it answers; the compiled extend
        pass asks with ``0`` before its pass and reports the probes it
        searched after it, so the table is due after the same number of
        searched probes on either path."""
        if self._arcs is None:
            self._probes += probes
            if self._probes < ARC_TABLE_AFTER * len(self._indices):
                return None
        return self.arc_table()

    def has_arc_keys(self, keys: np.ndarray) -> np.ndarray:
        """Whether each composite key ``u * n + v`` is an arc — the
        membership test every extend, verify and baseline probe ends in.
        Exact for every non-negative key; a negative key may read a slot
        marker, so callers with ids from outside mask by range
        (:meth:`has_edges`).

        Through the composite index (one ``searchsorted``) until this
        snapshot has answered :data:`ARC_TABLE_AFTER` probes per arc,
        then through :meth:`arc_table` (one gather; only keys landing on
        a shared slot take the ``searchsorted``).  Both answers are exact,
        given :data:`ARC_BLOCK_KEYS` keys at a time.
        """
        table = self.arc_table_due(len(keys))
        comp = self.composite_index()
        found = np.empty(len(keys), dtype=bool)
        for a in range(0, len(keys), ARC_BLOCK_KEYS):
            block = keys[a:a + ARC_BLOCK_KEYS]
            into = found[a:a + ARC_BLOCK_KEYS]
            if table is None:
                into[:] = _search(comp, block)
                continue
            held = table[_slots(block, len(table).bit_length() - 1)]
            np.equal(held, block, out=into)
            shared = np.flatnonzero(held == _SHARED)
            if len(shared):
                into[shared] = _search(comp, block[shared])
        return found

    def has_edges(self, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge` through :meth:`has_arc_keys`; ids
        outside ``0 .. n-1`` are in no edge (their keys may alias an arc
        or a slot marker, so the range mask decides them)."""
        n = self.num_vertices
        inside = (src >= 0) & (src < n) & (dst >= 0) & (dst < n)
        return inside & self.has_arc_keys(src * n + dst)

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


def _slots(keys: np.ndarray, bits: int) -> np.ndarray:
    """Slot of each non-negative ``int64`` key in a ``2**bits`` table."""
    h = keys.astype(np.uint64)
    h *= _GOLDEN
    h >>= np.uint64(64 - bits)
    return h.view(np.int64)


def _search(comp: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each key is in the sorted array ``comp``."""
    if not len(comp):
        return np.zeros(len(keys), dtype=bool)
    at = comp.searchsorted(keys)
    at[at == len(comp)] = 0
    return comp[at] == keys
