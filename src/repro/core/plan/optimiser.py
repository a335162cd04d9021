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
from ...query.decompose import (SubQuery, connected_subqueries, full_subquery,
                                splits)
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
    * ``pulled`` — query vertices whose adjacency lists the plan's pulling
      joins fetch from other machines.  Rows stay on the machine that
      scanned their ``pivot`` (the root of the first star), so extending
      from the pivot's own adjacency is local; every other source is a
      ``GetNbrs`` pull (``pivot`` is ``None`` once a PUSH-JOIN has
      re-partitioned the rows).

    More pruning wins, then fewer pulled sources, then ``splits()`` order.
    """

    pruned: int
    pulled: frozenset[int]
    pivot: int | None


class Optimiser:
    """Algorithm 1: ``OptimalExecutionPlan(q)``.

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
        self._cost: dict[SubQuery, float] = {}
        self._plan: dict[SubQuery, tuple[SubQuery, SubQuery] | None] = {}
        self._card: dict[SubQuery, float] = {}

    # -- cost pieces -------------------------------------------------------------

    def cardinality(self, sub: SubQuery) -> float:
        """Estimated ``|R(q')|`` (memoised)."""
        cached = self._card.get(sub)
        if cached is None:
            pattern, _ = sub.to_query_graph()
            cached = self._estimator.estimate(pattern)
            self._card[sub] = cached
        return cached

    def _join_extra_cost(self, left: SubQuery, right: SubQuery,
                         setting: PhysicalSetting) -> float:
        shuffle = self.cardinality(left) + self.cardinality(right)
        if self._strategy == "push-only":
            return shuffle
        if self._strategy == "compute-mat":
            return 0.0
        if self._strategy == "compute-icost":
            if setting.algorithm is JoinAlgorithm.WCO:
                small = min(self.cardinality(left), self.cardinality(right))
                return self._avg_degree * small
            return shuffle
        # hybrid (Algorithm 1 lines 7-9)
        if setting.comm is CommMode.PULLING:
            # Remark 3.1 bounds pulling by the whole graph per machine
            # (k·|E_G|); the data actually pulled is at most one adjacency
            # list per partial result (d̄·|R(q'_l)|), so the tighter of the
            # two is charged
            touched = self._avg_degree * min(self.cardinality(left),
                                             self.cardinality(right))
            bound = float(self._k * self._edges)
            return min(bound, touched) if self._avg_degree > 0 else bound
        return shuffle

    # -- the DP -------------------------------------------------------------------

    def run(self, query: QueryGraph,
            name: str = "huge-optimal") -> ExecutionPlan:
        """Run the DP; return the cheapest plan under the cost strategy."""
        if not query.is_connected() or query.num_vertices < 2:
            raise PlanError(f"query {query.name} must be connected, |V| >= 2")
        order = symmetry_break(query)
        tie: dict[SubQuery, _Tiebreak] = {}
        for sub in connected_subqueries(query):
            # ascending edge count guarantees children are solved first
            own = sum(1 for u, v in order
                      if u in sub.vertices and v in sub.vertices)
            if sub.is_star():
                self._cost[sub] = self.cardinality(sub)
                self._plan[sub] = None
                tie[sub] = _Tiebreak(own, frozenset(), sub.star_root())
                continue
            best: tuple[float, int, int] | None = None
            for left, right in splits(sub):
                if left not in self._cost or right not in self._cost:
                    continue
                # Equation 3, once per candidate: the cost term and the
                # tie-break read the same evaluation
                setting, swapped = configure_join(left, right)
                cost = (self._cost[left] + self._cost[right]
                        + self.cardinality(sub)
                        + self._join_extra_cost(left, right, setting))
                pruned = own + tie[left].pruned + tie[right].pruned
                if best is not None and (cost, -pruned) > best[:2]:
                    continue
                rows, star = (right, left) if swapped else (left, right)
                pulled, pivot = _pulled_sources(rows, star, setting, tie)
                rank = (cost, -pruned, len(pulled))
                if best is None or rank < best:
                    best = rank
                    self._plan[sub] = (left, right)
                    tie[sub] = _Tiebreak(pruned, pulled, pivot)
            if best is None:
                raise PlanError(f"no decomposition found for {sub}")
            self._cost[sub] = best[0]

        full = full_subquery(query)
        return ExecutionPlan(query, self._recover(full), order, name,
                             self._cost[full])

    def _recover(self, sub: SubQuery) -> PlanNode:
        split = self._plan[sub]
        if split is None:
            return PlanNode(sub)
        left, right = split
        return PlanNode(sub, self._recover(left), self._recover(right))


def _pulled_sources(rows: SubQuery, star: SubQuery, setting: PhysicalSetting,
                    tie: dict[SubQuery, _Tiebreak],
                    ) -> tuple[frozenset[int], int | None]:
    """``(pulled, pivot)`` of the plan joining ``rows`` with the star side
    ``star`` under ``setting``."""
    pulled = tie[rows].pulled | tie[star].pulled
    if setting.comm is not CommMode.PULLING:
        return pulled, None
    root = setting.star_root
    leaves = star.vertices - {root}
    # leaves already bound are intersected / verified against their own
    # lists; new leaves are extended from the (bound) root's list
    sources = leaves & rows.vertices
    if root in rows.vertices and not leaves <= rows.vertices:
        sources |= {root}
    pivot = tie[rows].pivot
    return pulled | (sources - {pivot}), pivot
