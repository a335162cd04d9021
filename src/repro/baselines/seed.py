"""SEED [46]: scalable distributed subgraph enumeration via hash joins.

SEED decomposes the query into star join units (clique units require a
triangle index this reproduction, like index-free HUGE, does not build),
picks a *bushy* join tree by dynamic programming, and evaluates it with
pushing-based distributed hash joins, fully materialising every
intermediate relation.

Characteristics reproduced here (Table 1 row SEED):

* huge communication — every intermediate is shuffled in full;
* huge memory — intermediates (and the star explosion on hub vertices)
  are materialised; the memory budget turns this into the paper's ``00M``;
* BFS-style scheduling with good CPU utilisation when it fits.
"""

from __future__ import annotations

from ..cluster.cluster import Cluster
from ..core.plan.plans import seed_plan
from ..core.plan.tree import ExecutionPlan, PlanNode
from ..query.estimate import CardinalityEstimator, SamplingEstimator
from ..query.pattern import QueryGraph
from ..query.symmetry import symmetry_break
from .base import BaselineEngine, BaselineResult, DistributedRelation, \
    materialize_star

__all__ = ["SeedEngine"]


class SeedEngine(BaselineEngine):
    """SEED: bushy pushing-based hash joins over star units."""

    name = "SEED"

    def __init__(self, cluster: Cluster,
                 estimator: CardinalityEstimator | None = None):
        super().__init__(cluster)
        self.estimator = estimator or SamplingEstimator(cluster.graph)

    def run(self, query: QueryGraph,
            plan: ExecutionPlan | None = None) -> BaselineResult:
        """Enumerate ``query`` with SEED's bushy hash-join plan."""
        self._check_query(query)
        self.cluster.reset_metrics()
        if plan is None:
            plan = seed_plan(query, self.estimator)
        conditions = symmetry_break(query)
        if plan.root.is_leaf:
            applied: set[tuple[int, int]] = set()
            root = plan.root.sub.star_root()
            leaves = sorted(plan.root.sub.vertices - {root})
            rel = materialize_star(self.cluster, root, leaves, conditions,
                                   applied)
            count = rel.total
            rel.drop()
            return self._result(count)
        assert plan.root.left is not None and plan.root.right is not None
        lrel, lapplied = self._evaluate(plan.root.left, conditions)
        rrel, rapplied = self._evaluate(plan.root.right, conditions)
        # the final join counts its output (decompress-by-counting, §7.1)
        count = lrel.hash_join(rrel, conditions, lapplied | rapplied,
                               count_only=True)
        return self._result(count)

    def _evaluate(self, node: PlanNode, conditions
                  ) -> tuple[DistributedRelation, set[tuple[int, int]]]:
        if node.is_leaf:
            applied: set[tuple[int, int]] = set()
            root = node.sub.star_root()
            leaves = sorted(node.sub.vertices - {root})
            rel = materialize_star(self.cluster, root, leaves, conditions,
                                   applied)
            return rel, applied
        assert node.left is not None and node.right is not None
        lrel, lapplied = self._evaluate(node.left, conditions)
        rrel, rapplied = self._evaluate(node.right, conditions)
        applied = lapplied | rapplied
        joined = lrel.hash_join(rrel, conditions, applied)
        return joined, applied
