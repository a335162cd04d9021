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

The pass is columnar and runs the engine's own plan and step.  A
pinned plan *is* the engine's ``SCAN`` + ``PULL-EXTEND`` chain
(:func:`~repro.core.plan.translate.order_chain`) along the greedy
matching order that starts at the pinned query edge; Δ stands in for
the SCAN, consumed in blocks of :data:`DELTA_BLOCK` edges.  All Δ-edges
of a block, in both orientations, form one ``(rows, step)`` block per
pinned plan; each ``ExtendSpec`` is one
:func:`~repro.core.kernels.extend_step` (smallest backward list
gathered, the rest one stacked ``searchsorted``, distinctness, the
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

from ..core.dataflow import ExtendSpec, ScanSpec
from ..core.kernels import extend_step
from ..core.plan.plans import greedy_order
from ..core.plan.translate import order_chain
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


#: one pinned plan: the edge scan Δ stands in for, then the extends
Chain = tuple[ScanSpec, tuple[ExtendSpec, ...]]


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
        self.plans: tuple[Chain, ...] = tuple(
            order_chain(pattern, greedy_order(pattern, start=edge),
                        self.conditions)
            for edge in sorted(pattern.edges))

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
        if not len(delta) or (labels is None and self.pattern.is_labelled):
            return []
        keys, vals = self._rank_index(delta, graph.num_vertices)
        out: list[Match] = []
        for lo in range(0, len(delta), DELTA_BLOCK):
            block = delta[lo:lo + DELTA_BLOCK]
            steps = np.arange(lo, lo + len(block), dtype=np.int64)
            seeds = np.concatenate([block, block[:, ::-1]])
            seed_step = np.concatenate([steps, steps])
            found, found_step = [], []
            for scan, extends in self.plans:
                rows, step = self._extend(scan, extends, seeds, seed_step,
                                          graph, keys, vals, labels)
                # column i holds the pattern vertex the chain placed i-th
                placed = extends[-1].out_schema if extends else scan.schema
                emitted = np.empty_like(rows)
                emitted[:, placed] = rows
                found.append(emitted)
                found_step.append(step)
            # step-major, plans in order within a step (stable sort)
            by_step = np.argsort(np.concatenate(found_step), kind="stable")
            out.extend(map(tuple, np.concatenate(found)[by_step].tolist()))
        return out

    def _extend(self, scan: ScanSpec, extends: tuple[ExtendSpec, ...],
                rows: np.ndarray, step: np.ndarray, graph: Graph,
                keys: np.ndarray, vals: np.ndarray,
                labels: np.ndarray | None
                ) -> tuple[np.ndarray, np.ndarray]:
        """Extend every seed row (a Δ-edge pinned in one orientation, with
        its rank in ``step``) through one pinned plan: the scan's filters
        on the seeds, then one kernel step per ``ExtendSpec``."""
        keep = np.ones(len(rows), dtype=bool)
        for p, want in enumerate(scan.labels):
            if want is not None:
                keep &= labels[rows[:, p]] == want
        if scan.order == "lt":
            keep &= rows[:, 0] < rows[:, 1]
        elif scan.order == "gt":
            keep &= rows[:, 0] > rows[:, 1]
        rows, step = rows[keep], step[keep]
        n = graph.num_vertices
        for spec in extends:
            cand, row_ids, _, _ = extend_step(
                graph, rows, spec.ext, spec.candidate_lt, spec.candidate_gt,
                labels, spec.new_label)
            src_rows, step = rows[row_ids], step[row_ids]
            keep = self._rank_mask(keys, vals, n,
                                   src_rows[:, list(spec.ext)], cand, step)
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
