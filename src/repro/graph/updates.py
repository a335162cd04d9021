"""Versioned update path for the immutable CSR graph.

:class:`~repro.graph.graph.Graph` snapshots never mutate; a streaming
update batch instead produces a *new* snapshot plus a compact
:class:`GraphDelta` describing exactly which undirected edges changed.
Batch semantics are set-based with deletes winning inside a batch:

    ``E' = (E ∪ I) \\ D``

so inserting an edge that is then deleted in the same batch is a net
no-op, inserting an already-present edge contributes nothing, and
deleting an absent edge contributes nothing.  The delta records only the
*effective* changes — ``inserted = E' \\ E`` and ``deleted = E \\ E'`` —
which is what the incremental enumeration core in
:mod:`repro.stream.delta` consumes (per-batch work proportional to
``|Δ|``, not ``|E|``).

Edges are normalised to ``(u, v)`` with ``u < v``; self-loops are
dropped, duplicates collapse.  Inserts may reference vertex IDs beyond
the current snapshot — the new snapshot grows to fit.

The new snapshot is *spliced*, not rebuilt: the effective Δ's arcs are
located in the old snapshot's composite index, ``indices`` gets one
``np.insert`` and one ``np.delete`` and ``indptr`` the running sum of the
per-vertex degree changes, so an update costs two array copies plus
O(|Δ| log |E|) — nothing re-derives the unchanged edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graph import Graph, edge_rows

__all__ = ["GraphDelta", "apply_updates", "normalise_edges"]

Edge = tuple[int, int]


def _as_tuples(rows: np.ndarray) -> tuple[Edge, ...]:
    return tuple(map(tuple, rows.tolist()))


def normalise_edges(edges: Iterable[Edge]) -> set[Edge]:
    """Normalise an edge iterable to a set of ``(u, v)`` with ``u < v``
    (:func:`~repro.graph.graph.edge_rows` as tuples)."""
    return set(_as_tuples(edge_rows(edges)))


@dataclass(frozen=True)
class GraphDelta:
    """The effective change set of one update batch.

    ``inserted`` holds edges present after but not before the batch;
    ``deleted`` holds edges present before but not after.  Both are
    normalised ``u < v`` tuples in sorted order, and the two sets are
    disjoint by construction.
    """

    inserted: tuple[Edge, ...]
    deleted: tuple[Edge, ...]

    @property
    def size(self) -> int:
        """``|Δ|`` — total number of changed edges."""
        return len(self.inserted) + len(self.deleted)

    @property
    def is_empty(self) -> bool:
        return not self.inserted and not self.deleted

    def as_dict(self) -> dict:
        return {
            "inserted": [list(e) for e in self.inserted],
            "deleted": [list(e) for e in self.deleted],
        }


def apply_updates(
    graph: Graph,
    inserts: Iterable[Edge] = (),
    deletes: Iterable[Edge] = (),
) -> tuple[Graph, GraphDelta]:
    """Apply one update batch, returning ``(new_snapshot, delta)``.

    The input snapshot is untouched.  ``E' = (E ∪ I) \\ D`` — deletes
    win within the batch; the returned delta contains only effective
    changes (see module docstring).
    """
    ins, dels = edge_rows(inserts), edge_rows(deletes)
    cut = dels[graph.has_edges(dels[:, 0], dels[:, 1])]
    width = int(max(ins.max(initial=0), dels.max(initial=0))) + 1
    add = ins[~(graph.has_edges(ins[:, 0], ins[:, 1])
                | np.isin(ins @ (width, 1), dels @ (width, 1)))]
    delta = GraphDelta(_as_tuples(add), _as_tuples(cut))
    if delta.is_empty:
        # nothing changed: reuse the snapshot (callers still get a fresh
        # version number from the serving tier if they registered it)
        return graph, delta

    n = graph.num_vertices
    grown = max(n, int(add.max(initial=-1)) + 1)
    # both directions of the effective Δ; inserted arcs in (src, dst)
    # order, so arcs landing on one position stay sorted
    add = np.concatenate([add, add[:, ::-1]])
    add = add[np.lexsort((add[:, 1], add[:, 0]))]
    cut = np.concatenate([cut, cut[:, ::-1]])
    # a key's position in the composite index is its arc's position in
    # ``indices``; clamping ids to n sends an arc to a new vertex to the
    # end of its row and the arcs *of* new vertices to the end of the array
    arcs = np.minimum(np.concatenate([add, cut]), n)
    at = np.searchsorted(graph.composite_index(), arcs @ (n, 1))
    add_at, cut_at = at[:len(add)], at[len(add):]
    indices = np.delete(
        np.insert(graph.indices, add_at, add[:, 1]),
        cut_at + np.searchsorted(add_at, cut_at, side="right"))
    indptr = np.concatenate(
        [graph.indptr, np.full(grown - n, graph.indptr[-1])])
    indptr[1:] += np.cumsum(np.bincount(add[:, 0], minlength=grown)
                            - np.bincount(cut[:, 0], minlength=grown))
    return Graph(indptr, indices), delta
