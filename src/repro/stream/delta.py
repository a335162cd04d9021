"""Delta decomposition: enumerate only the embeddings that touch Δ.

Given a standing pattern and an update batch Δ (a set of undirected data
edges), every *new* symmetry-broken match must use at least one Δ-edge.
:class:`DeltaEnumerator` enumerates those matches **exactly once** with
a rank-pinning scheme adapted from the delta decomposition of Lai et
al. (arXiv:2006.12819):

1.  Order the delta edges ``δ_0 < δ_1 < … < δ_{m-1}`` (lexicographic).
    Base edges (present but not in Δ) get rank ``-1``; delta edge
    ``δ_i`` gets rank ``i``.
2.  A match ``f`` is *assigned* to step ``i`` where ``i`` is the
    maximum rank over the data edges ``f`` uses.  Since every new match
    uses ≥ 1 Δ-edge, each match is assigned to exactly one step.
3.  At step ``i``, for every query edge ``(a, b)`` and both
    orientations, pin ``f(a), f(b)`` onto ``δ_i`` and extend the rest
    of the pattern along a connected matching order, **admitting only
    data edges of rank ≤ i**.  By injectivity exactly one query edge of
    ``f`` maps onto ``δ_i`` (in one orientation), so step ``i`` emits
    ``f`` exactly once; the rank filter stops any step ``j > i`` from
    re-emitting it (``f`` uses no edge of rank ``> i``), and step
    ``j < i`` cannot produce it (``δ_i`` would be filtered out).

The pass is columnar: Δ is a SCAN source, consumed in blocks of
:data:`DELTA_BLOCK` edges.  All Δ-edges of a block, in both
orientations, form one ``(rows, step)`` block per pinned plan; each
pattern position is one call of the engine's PULL-EXTEND kernel
(:func:`~repro.core.kernels.fused_extend_candidates`: smallest backward
list gathered, the rest one stacked ``searchsorted``, distinctness, the
Grochow–Kellis ``lt``/``gt`` conditions, label) followed by the rank rule
``rank(src, cand) ≤ step[row]`` as one more mask — so delta matches land
in the same canonical form as the batch engine's output and the
frontier is bounded by the block, the way an engine batch bounds an
operator.  Ranks are global, so blocking changes no result.  Matches
come out step-major, pinned plans in query-edge order within a step,
and inside one (step, plan) group in the order of the smallest-list
gather: ``x→y`` before ``y→x``, then ascending candidate id.

Deletions run the same enumeration against the *pre-update* snapshot
with Δ = the deleted edges: the result is precisely the set of
previously valid matches that die with the batch — the retractions.
:class:`IncrementalMatcher` packages the insert/delete passes into a
per-batch ``(+additions, -retractions)`` result and maintains the
accumulated standing match set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..core.kernels import fused_extend_candidates
from ..graph.graph import Graph, edge_rows
from ..graph.updates import GraphDelta, apply_updates
from ..query.pattern import QueryGraph
from ..query.symmetry import PartialOrder, symmetry_break

__all__ = ["DeltaEnumerator", "IncrementalMatcher", "BatchResult"]

#: Δ-edges per columnar pass.  A constant, not a knob: a Δ = E bootstrap
#: of q1 on LJ peaks at 202 MB unblocked and 59 MB here, 128 to 512 run
#: equally fast, and an 8-edge update never fills one block.
DELTA_BLOCK = 256

Edge = tuple[int, int]
Match = tuple[int, ...]


@dataclass(frozen=True)
class _PinnedPlan:
    """Matching order for one pinned query edge ``(a, b)``.

    ``order[0] = a`` and ``order[1] = b`` are bound by the pinned data
    edge; the remaining vertices follow a greedy connected order.  For
    each position ``i``, ``back[i]`` lists the *column positions* of the
    already-placed pattern neighbours of ``order[i]``, and ``lt[i]`` /
    ``gt[i]`` the positions the vertex placed there must be less/greater
    than under the symmetry-breaking partial order.
    """

    order: tuple[int, ...]
    back: tuple[tuple[int, ...], ...]
    lt: tuple[tuple[int, ...], ...]
    gt: tuple[tuple[int, ...], ...]
    labels: tuple[int | None, ...]        # label constraint per position


def _pinned_plan(pattern: QueryGraph, conditions: PartialOrder,
                 a: int, b: int) -> _PinnedPlan:
    order = [a, b]
    placed = {a, b}
    while len(order) < pattern.num_vertices:
        cands = [v for v in pattern.vertices() if v not in placed
                 and pattern.neighbours(v) & placed]
        # greedy: most placed neighbours, then highest degree, then id
        nxt = max(cands, key=lambda v: (len(pattern.neighbours(v) & placed),
                                        pattern.degree(v), -v))
        order.append(nxt)
        placed.add(nxt)
    pos = {v: i for i, v in enumerate(order)}
    back: list[tuple[int, ...]] = []
    lt: list[tuple[int, ...]] = []
    gt: list[tuple[int, ...]] = []
    for i, v in enumerate(order):
        back.append(tuple(sorted(pos[u] for u in pattern.neighbours(v)
                                 if pos[u] < i)))
        lt.append(tuple(sorted(pos[u] for (w, u) in conditions
                               if w == v and pos[u] < i)))
        gt.append(tuple(sorted(pos[u] for (u, w) in conditions
                               if w == v and pos[u] < i)))
    return _PinnedPlan(
        order=tuple(order), back=tuple(back), lt=tuple(lt), gt=tuple(gt),
        labels=tuple(pattern.label(v) for v in order))


class DeltaEnumerator:
    """Per-query-edge delta plans for one standing pattern.

    Plans are built once at subscription time; :meth:`delta_matches`
    then answers "which symmetry-broken matches use ≥ 1 edge of Δ"
    for any snapshot/Δ pair.
    """

    def __init__(self, pattern: QueryGraph,
                 conditions: PartialOrder | None = None):
        if not pattern.is_connected() or pattern.num_vertices < 2:
            raise ValueError(
                "delta enumeration needs a connected pattern with >= 2 "
                f"vertices, got {pattern!r}")
        self.pattern = pattern
        self.conditions: PartialOrder = (
            symmetry_break(pattern) if conditions is None else conditions)
        self.plans: tuple[_PinnedPlan, ...] = tuple(
            _pinned_plan(pattern, self.conditions, a, b)
            for (a, b) in sorted(pattern.edges))

    # -- rank machinery ----------------------------------------------------

    @staticmethod
    def _rank_index(delta: np.ndarray, n: int
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Sorted composite keys (both directions) → delta rank."""
        ranks = np.arange(len(delta), dtype=np.int64)
        keys = np.concatenate([delta[:, 0] * n + delta[:, 1],
                               delta[:, 1] * n + delta[:, 0]])
        order = np.argsort(keys)
        return keys[order], np.concatenate([ranks, ranks])[order]

    @staticmethod
    def _rank_mask(keys: np.ndarray, vals: np.ndarray, n: int,
                   srcs: np.ndarray, cand: np.ndarray,
                   step: np.ndarray) -> np.ndarray:
        """Row ``i`` passes iff every data edge ``(srcs[i, w], cand[i])``
        has rank ≤ ``step[i]``; base edges rank -1."""
        q = srcs * n + cand[:, None]
        idx = np.searchsorted(keys, q)
        idx[idx == len(keys)] = 0
        ranks = np.where(keys[idx] == q, vals[idx], -1)
        return (ranks <= step[:, None]).all(axis=1)

    # -- enumeration -------------------------------------------------------

    def delta_matches(self, graph: Graph, delta_edges: Iterable[Edge],
                      labels: np.ndarray | None = None) -> list[Match]:
        """All symmetry-broken matches in ``graph`` using ≥ 1 Δ-edge.

        Each match is returned exactly once, as a tuple indexed by
        pattern vertex — the same canonical form the reference and the
        batch engine emit.  Δ-edges absent from ``graph`` are ignored
        (they cannot carry a match in this snapshot).
        """
        delta = edge_rows(delta_edges)
        delta = delta[graph.has_edges(delta[:, 0], delta[:, 1])]
        if not len(delta) or (labels is None and any(
                want is not None for want in self.plans[0].labels)):
            return []
        keys, vals = self._rank_index(delta, graph.num_vertices)
        out: list[Match] = []
        for lo in range(0, len(delta), DELTA_BLOCK):
            block = delta[lo:lo + DELTA_BLOCK]
            steps = np.arange(lo, lo + len(block), dtype=np.int64)
            seeds = np.concatenate([block, block[:, ::-1]])
            seed_step = np.concatenate([steps, steps])
            found, found_step = [], []
            for plan in self.plans:
                rows, step = self._extend(plan, seeds, seed_step, graph,
                                          keys, vals, labels)
                emitted = np.empty_like(rows)
                emitted[:, plan.order] = rows
                found.append(emitted)
                found_step.append(step)
            # step-major, plans in order within a step (stable sort)
            by_step = np.argsort(np.concatenate(found_step), kind="stable")
            out.extend(map(tuple, np.concatenate(found)[by_step].tolist()))
        return out

    def _extend(self, plan: _PinnedPlan, rows: np.ndarray, step: np.ndarray,
                graph: Graph, keys: np.ndarray, vals: np.ndarray,
                labels: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Extend every seed row (a Δ-edge pinned in one orientation, with
        its rank in ``step``) through ``plan``, one pattern position per
        kernel call."""
        n, indptr = graph.num_vertices, graph.indptr
        keep = np.ones(len(rows), dtype=bool)
        for p in (0, 1):
            if plan.labels[p] is not None:
                keep &= labels[rows[:, p]] == plan.labels[p]
        if plan.lt[1]:
            keep &= rows[:, 1] < rows[:, 0]
        if plan.gt[1]:
            keep &= rows[:, 1] > rows[:, 0]
        rows, step = rows[keep], step[keep]
        for i in range(2, len(plan.order)):
            backs = plan.back[i]
            verts = rows[:, backs]
            if len(backs) > 1:      # smallest adjacency list first
                by_len = np.argsort(indptr[verts + 1] - indptr[verts],
                                    axis=1, kind="stable")
                verts = np.take_along_axis(verts, by_len, axis=1)
            cand, row_ids, _ = fused_extend_candidates(
                indptr, graph.indices, graph.composite_index(), n, rows,
                verts, plan.lt[i], plan.gt[i], labels, plan.labels[i])
            src_rows, step = rows[row_ids], step[row_ids]
            keep = self._rank_mask(keys, vals, n, src_rows[:, backs], cand,
                                   step)
            rows = np.column_stack((src_rows[keep], cand[keep]))
            step = step[keep]
        return rows, step


@dataclass
class BatchResult:
    """Signed match deltas of one update batch for one pattern."""

    seq: int
    delta: GraphDelta
    additions: list[Match] = field(default_factory=list)
    retractions: list[Match] = field(default_factory=list)
    count_after: int = 0

    @property
    def net(self) -> int:
        return len(self.additions) - len(self.retractions)


class IncrementalMatcher:
    """Maintains one pattern's standing match set across graph updates.

    ``apply(inserts, deletes)`` runs the two delta passes (retractions
    on the pre-update snapshot, additions on the post-update snapshot)
    and folds the signed deltas into the accumulated set.  Exactly-once
    bookkeeping violations (an addition already present, a retraction
    never delivered) are counted rather than raised — the conformance
    oracle asserts they stay zero.
    """

    def __init__(self, pattern: QueryGraph, graph: Graph,
                 conditions: PartialOrder | None = None,
                 labels: np.ndarray | None = None,
                 keep_matches: bool = True, bootstrap: bool = True):
        self.enumerator = DeltaEnumerator(pattern, conditions)
        self.graph = graph
        self.labels = labels
        self.count = 0
        self.matches: set[Match] | None = set() if keep_matches else None
        self.violations = 0
        self.batches_applied = 0
        if bootstrap and graph.num_edges:
            # the whole edge set as one Δ: every match uses >= 1 edge, so
            # this is a from-scratch enumeration through the delta path
            initial = self.enumerator.delta_matches(
                graph, graph.edge_array(), labels=labels)
            self._fold(initial, [])

    def _fold(self, additions: list[Match],
              retractions: list[Match]) -> None:
        if self.matches is not None:
            for m in additions:
                if m in self.matches:
                    self.violations += 1
                else:
                    self.matches.add(m)
            for m in retractions:
                if m in self.matches:
                    self.matches.remove(m)
                else:
                    self.violations += 1
            self.count = len(self.matches)
        else:
            self.count += len(additions) - len(retractions)

    def apply(self, inserts: Iterable[Edge] = (),
              deletes: Iterable[Edge] = ()) -> BatchResult:
        """Apply one update batch; returns the signed match deltas."""
        new_graph, delta = apply_updates(self.graph, inserts, deletes)
        retractions = self.enumerator.delta_matches(
            self.graph, delta.deleted, labels=self.labels)
        additions = self.enumerator.delta_matches(
            new_graph, delta.inserted, labels=self.labels)
        self._fold(additions, retractions)
        self.graph = new_graph
        self.batches_applied += 1
        return BatchResult(seq=self.batches_applied, delta=delta,
                           additions=additions, retractions=retractions,
                           count_after=self.count)
