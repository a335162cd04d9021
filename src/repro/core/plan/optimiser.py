"""The dynamic-programming plan optimiser (paper Algorithm 1).

Searches bushy join trees over star join units for the plan minimising
*computation + communication* cost:

* a join unit ``q'`` costs its cardinality ``|R(q')|``;
* a join ``(q', q'_l, q'_r)`` costs ``cost(q'_l) + cost(q'_r) + |R(q')|``
  plus a strategy-dependent extra term (for HUGE: the communication cost
  of Algorithm 1 lines 7-9 — ``k·|E_G|`` when Equation 3 configures
  pulling, else the shuffle volume ``|R(q'_l)| + |R(q'_r)|``).

Cardinalities come from a pluggable estimator (§3.3 cites [46, 51, 58]);
see :mod:`repro.query.estimate`.  They are per isomorphism class, so plans
that differ by an automorphism of the query cost exactly the same; the DP
separates those by what the plan itself shows of the run time — earlier
symmetry-breaking filters, then fewer remote adjacency sources
(:class:`_Tiebreak`).

Cost strategies
---------------
``hybrid``
    HUGE's own objective (communication-aware, Equation 3).
``push-only``
    Every join pays shuffle cost — the hash-join/pushing world SEED
    optimises in.
``compute-mat``
    No communication terms: pure materialisation cost.  Approximates
    EmptyHeaded's GHD-style sequential planning (Example 3.2).
``compute-icost``
    No communication, but joins pay CPU cost: a worst-case-optimal
    extension pays the intersection cost ``d̄·|R(q'_l)|``, a binary join
    pays build+probe ``|R(q'_l)| + |R(q'_r)|`` — approximating GraphFlow's
    i-cost model [51].
"""

from __future__ import annotations

from typing import NamedTuple

from ...cluster.errors import PlanError
from ...query.automorphism import automorphisms
from ...query.decompose import SubQuery, SubQueryMasks, mask_splits
from ...query.estimate import CardinalityEstimator
from ...query.pattern import QueryGraph
from ...query.symmetry import symmetry_break
from .tree import (CommMode, ExecutionPlan, JoinAlgorithm, PhysicalSetting,
                   PlanNode, configure_join)

__all__ = ["Optimiser", "COST_STRATEGIES"]

#: Accepted cost strategies (see module docstring).
COST_STRATEGIES = ("hybrid", "push-only", "compute-mat", "compute-icost")


class _Tiebreak(NamedTuple):
    """What the DP keeps per solved sub-query to choose between plans whose
    estimated costs are *equal*.  Estimates are per isomorphism class, so
    automorphic alternatives tie exactly — on paper; at run time they
    differ, in two ways the plan itself shows:

    * ``pruned`` — symmetry-breaking conditions ``u < v`` covered by the
      plan's nodes, summed over the tree.  The runtime filters on a
      condition as soon as both vertices are bound, so the earlier a
      plan's sub-queries contain both, the fewer rows it carries.
    * ``pulled`` — query vertices (a vertex mask) whose adjacency lists
      the plan's pulling joins fetch from other machines.  Rows stay on
      the machine that scanned their ``pivot`` (the root of the first
      star), so extending from the pivot's own adjacency is local; every
      other source is a ``GetNbrs`` pull (``pivot`` is ``None`` once a
      PUSH-JOIN has re-partitioned the rows).

    More pruning wins, then fewer pulled sources, then
    :func:`~repro.query.decompose.mask_splits` order.
    """

    pruned: int
    pulled: int
    pivot: int | None


class Optimiser:
    """Algorithm 1: ``OptimalExecutionPlan(q)``.

    The DP runs over edge-set bitmasks (:class:`SubQueryMasks`); a
    :class:`SubQuery` is built once per connected mask, for Equation 3
    and the plan's nodes.

    Parameters
    ----------
    estimator:
        Cardinality estimator bound to the data graph.
    num_machines:
        Cluster size ``k`` (scales the pulling cost ``k·|E_G|``).
    num_graph_edges:
        ``|E_G|`` of the data graph.
    cost_strategy:
        One of :data:`COST_STRATEGIES`; ``hybrid`` is HUGE's own objective.
    avg_degree:
        ``d̄_G``, used by the ``compute-icost`` strategy.
    """

    def __init__(self, estimator: CardinalityEstimator, num_machines: int,
                 num_graph_edges: int, cost_strategy: str = "hybrid",
                 avg_degree: float = 0.0):
        if cost_strategy not in COST_STRATEGIES:
            raise ValueError(f"unknown cost strategy {cost_strategy!r}; "
                             f"choose from {COST_STRATEGIES}")
        self._estimator = estimator
        self._k = num_machines
        self._edges = num_graph_edges
        self._strategy = cost_strategy
        self._avg_degree = avg_degree

    # -- cost pieces -------------------------------------------------------------

    def _cardinalities(self, group: list[tuple[int, ...]],
                       masks: SubQueryMasks,
                       subs: dict[int, SubQuery]) -> dict[int, float]:
        """Estimated ``|R(q')|`` of every connected mask, one estimate per
        orbit under the query's automorphism ``group``: an automorphic
        image of a sub-query is isomorphic to it, and estimates are per
        isomorphism class."""
        index = {e: i for i, e in enumerate(masks.edges)}
        images = [[1 << index[(min(p[u], p[v]), max(p[u], p[v]))]
                   for u, v in masks.edges] for p in group]
        card: dict[int, float] = {}
        for m, sub in subs.items():
            if m in card:
                continue
            estimate = self._estimator.estimate(sub.to_query_graph()[0])
            for image in images:
                img, bits = 0, m
                while bits:
                    low = bits & -bits
                    img |= image[low.bit_length() - 1]
                    bits ^= low
                card[img] = estimate
        return card

    def _join_extra_cost(self, left: float, right: float,
                         setting: PhysicalSetting) -> float:
        """The join's extra term, from its operands' cardinalities."""
        shuffle = left + right
        if self._strategy == "push-only":
            return shuffle
        if self._strategy == "compute-mat":
            return 0.0
        if self._strategy == "compute-icost":
            if setting.algorithm is JoinAlgorithm.WCO:
                return self._avg_degree * min(left, right)
            return shuffle
        # hybrid (Algorithm 1 lines 7-9)
        if setting.comm is CommMode.PULLING:
            # Remark 3.1 bounds pulling by the whole graph per machine
            # (k·|E_G|); the data actually pulled is at most one adjacency
            # list per partial result (d̄·|R(q'_l)|), so the tighter of the
            # two is charged
            touched = self._avg_degree * min(left, right)
            bound = float(self._k * self._edges)
            return min(bound, touched) if self._avg_degree > 0 else bound
        return shuffle

    # -- the DP -------------------------------------------------------------------

    def run(self, query: QueryGraph,
            name: str = "huge-optimal") -> ExecutionPlan:
        """Run the DP; return the cheapest plan under the cost strategy."""
        if not query.is_connected() or query.num_vertices < 2:
            raise PlanError(f"query {query.name} must be connected, |V| >= 2")
        group = automorphisms(query)
        order = symmetry_break(query, group)
        conditions = [1 << u | 1 << v for u, v in order]
        masks = SubQueryMasks(query)
        vmask, star, connected = masks.vmask, masks.star, masks.connected
        # ascending edge count guarantees children are solved first
        subs = {m: masks.subquery(m) for m in masks.by_size()}
        card = self._cardinalities(group, masks, subs)
        cost: dict[int, float] = {}
        plan: dict[int, tuple[int, int] | None] = {}
        tie: dict[int, _Tiebreak] = {}
        for sub in subs:
            own = sum(1 for c in conditions if vmask[sub] & c == c)
            if star[sub]:
                cost[sub] = card[sub]
                plan[sub] = None
                tie[sub] = _Tiebreak(own, 0, subs[sub].star_root())
                continue
            best: tuple[float, int, int] | None = None
            for left, right in mask_splits(sub, connected):
                # Equation 3, once per candidate: the cost term and the
                # tie-break read the same evaluation
                setting, swapped = configure_join(subs[left], subs[right])
                total = (cost[left] + cost[right] + card[sub]
                         + self._join_extra_cost(card[left], card[right],
                                                 setting))
                pruned = own + tie[left].pruned + tie[right].pruned
                if best is not None and (total, -pruned) > best[:2]:
                    continue
                rows, unit = (right, left) if swapped else (left, right)
                pulled, pivot = _pulled_sources(
                    vmask[rows], vmask[unit], tie[rows], tie[unit], setting)
                rank = (total, -pruned, pulled.bit_count())
                if best is None or rank < best:
                    best = rank
                    plan[sub] = (left, right)
                    tie[sub] = _Tiebreak(pruned, pulled, pivot)
            if best is None:
                raise PlanError(f"no decomposition found for {subs[sub]}")
            cost[sub] = best[0]

        def recover(sub: int) -> PlanNode:
            split = plan[sub]
            if split is None:
                return PlanNode(subs[sub])
            return PlanNode(subs[sub], recover(split[0]), recover(split[1]))

        return ExecutionPlan(query, recover(masks.full), order, name,
                             cost[masks.full])


def _pulled_sources(rows: int, unit: int, rows_tie: _Tiebreak,
                    unit_tie: _Tiebreak, setting: PhysicalSetting,
                    ) -> tuple[int, int | None]:
    """``(pulled, pivot)`` of the plan joining the row side (vertex mask
    ``rows``) with the star side (``unit``) under ``setting``."""
    pulled = rows_tie.pulled | unit_tie.pulled
    if setting.comm is not CommMode.PULLING:
        return pulled, None
    root = 1 << setting.star_root
    leaves = unit & ~root
    # leaves already bound are intersected / verified against their own
    # lists; new leaves are extended from the (bound) root's list
    sources = leaves & rows
    if rows & root and leaves & ~rows:
        sources |= root
    pivot = rows_tie.pivot
    if pivot is not None:
        sources &= ~(1 << pivot)
    return pulled | sources, pivot
