"""Plans of existing systems, for HUGE's plug-in mode (Remark 3.2).

"Existing works can be plugged into HUGE via their logical plans to enjoy
immediate speedup and bounded memory consumption."  Each builder below
reproduces the *logical* plan shape of one system (Table 2) and returns a
plan that runs as built: Equation 3's physical settings are a derived view
of its joins (:mod:`~repro.core.plan.tree`), so ``HugeEngine.run(plan=p)``
is the HUGE-BENU / HUGE-RADS / HUGE-SEED / HUGE-WCO variant of Exp-1 and
``SeedEngine.run(q, plan=p)`` / ``RadsEngine.run(q, plan=p)`` the original
system on the same object.

=============  =========================  ==========
System         join unit ``U``            order ``O``
=============  =========================  ==========
StarJoin [80]  star                       left-deep
SEED [46]      star (& clique w/ index)   bushy
BiGJoin [5]    star (vertex extensions)   left-deep
BENU [84]      star (vertex extensions)   left-deep (DFS order)
RADS [66]      star (matched roots)       left-deep
EmptyHeaded    hybrid (sequential)        bushy
GraphFlow      hybrid (sequential)        bushy
=============  =========================  ==========
"""

from __future__ import annotations

from typing import Sequence

from ...cluster.errors import PlanError
from ...query.decompose import SubQuery
from ...query.estimate import CardinalityEstimator
from ...query.pattern import QueryGraph
from .optimiser import Optimiser
from .tree import ExecutionPlan, PlanNode

__all__ = [
    "wco_plan",
    "greedy_order",
    "dfs_order",
    "benu_plan",
    "starjoin_plan",
    "rads_plan",
    "bidirectional_path_plan",
    "seed_plan",
    "emptyheaded_plan",
    "graphflow_plan",
    "vertex_order_plan",
]


def _norm(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


# -- vertex-at-a-time (wco) plans ------------------------------------------------


def vertex_order_plan(query: QueryGraph, order: list[int],
                      name: str = "wco") -> ExecutionPlan:
    """Left-deep plan matching one vertex at a time along ``order``.

    Step ``i`` joins the prefix pattern with the star rooted at
    ``order[i]`` whose leaves are all earlier neighbours — BiGJoin's
    complete star joins (§3.1, Example 3.1).  Every prefix is an induced
    subgraph of the query because all back edges are taken at each step.
    """
    n = query.num_vertices
    if sorted(order) != list(range(n)):
        raise PlanError(f"order {order} is not a permutation of 0..{n - 1}")
    if n < 2:
        raise PlanError("query must have at least two vertices")
    first_back = query.neighbours(order[1]) & {order[0]}
    if not first_back:
        raise PlanError(f"order {order} does not start with an edge")
    node = PlanNode(SubQuery(frozenset([_norm(order[0], order[1])])))
    for i in range(2, n):
        v = order[i]
        back = query.neighbours(v) & set(order[:i])
        if not back:
            raise PlanError(f"order {order} is not connected at {v}")
        star = SubQuery(frozenset(_norm(v, u) for u in back))
        node = PlanNode(node.sub.union(star), node, PlanNode(star))
    return ExecutionPlan(query, node, name=name)


def greedy_order(query: QueryGraph, start: Sequence[int] = ()) -> list[int]:
    """Max-back-degree connected order: each next vertex has the most
    already-placed neighbours, then the highest degree, then the lowest
    id.  Begins with ``start`` (a connected prefix, e.g. the query edge a
    delta plan pins) or, by default, at a max-degree vertex."""
    order = list(start) or [max(query.vertices(), key=query.degree)]
    seen = set(order)
    while len(order) < query.num_vertices:
        nxt = max(
            (v for v in query.vertices() if v not in seen
             and query.neighbours(v) & seen),
            key=lambda v: (len(query.neighbours(v) & seen), query.degree(v)),
        )
        order.append(nxt)
        seen.add(nxt)
    return order


def dfs_order(query: QueryGraph) -> list[int]:
    """DFS preorder from vertex 0 — BENU's backtracking matching order."""
    order: list[int] = []
    seen: set[int] = set()
    stack = [0]
    while stack:
        v = stack.pop()
        if v in seen:
            continue
        seen.add(v)
        order.append(v)
        for u in sorted(query.neighbours(v), reverse=True):
            if u not in seen:
                stack.append(u)
    return order


def wco_plan(query: QueryGraph) -> ExecutionPlan:
    """BiGJoin's logical plan: left-deep vertex extensions, greedy
    max-back-degree matching order."""
    return vertex_order_plan(query, greedy_order(query), name="bigjoin-wco")


def benu_plan(query: QueryGraph) -> ExecutionPlan:
    """BENU's logical plan: the same vertex-extension shape with a DFS
    matching order (paper §3.1: "equivalent to BiGJoin's wco-join procedure
    with the DFS order as matching order")."""
    return vertex_order_plan(query, dfs_order(query), name="benu-dfs")


# -- star-decomposition plans ------------------------------------------------------


def _greedy_star_decomposition(query: QueryGraph,
                               matched_roots: bool) -> list[SubQuery]:
    """Cover the query's edges with stars, greedily by uncovered degree.

    With ``matched_roots`` (RADS), every star after the first must be
    rooted at a vertex already covered, so its neighbours can be pulled to
    the host machine.  Without it (StarJoin), any root connected to the
    covered part is allowed.
    """
    uncovered = set(query.edges)
    stars: list[SubQuery] = []
    covered_vertices: set[int] = set()

    def uncovered_degree(v: int) -> int:
        return sum(1 for e in uncovered if v in e)

    while uncovered:
        if not stars:
            candidates = list(query.vertices())
        elif matched_roots:
            candidates = [v for v in covered_vertices if uncovered_degree(v)]
        else:
            candidates = [v for v in query.vertices() if uncovered_degree(v)
                          and (v in covered_vertices
                               or query.neighbours(v) & covered_vertices)]
        if not candidates:  # pragma: no cover - connected queries always have one
            raise PlanError(f"cannot cover {query.name} with stars")
        root = max(candidates, key=lambda v: (uncovered_degree(v), -v))
        edges = frozenset(e for e in uncovered if root in e)
        stars.append(SubQuery(edges))
        uncovered -= edges
        covered_vertices.update(v for e in edges for v in e)
    return stars


def _left_deep(units: list[SubQuery]) -> PlanNode:
    node = PlanNode(units[0])
    for unit in units[1:]:
        node = PlanNode(node.sub.union(unit), node, PlanNode(unit))
    return node


def starjoin_plan(query: QueryGraph) -> ExecutionPlan:
    """StarJoin's logical plan: left-deep join of a greedy star cover."""
    stars = _greedy_star_decomposition(query, matched_roots=False)
    return ExecutionPlan(query, _left_deep(stars), name="starjoin")


def rads_plan(query: QueryGraph) -> ExecutionPlan:
    """RADS' logical plan: left-deep star-expand-and-verify — each star
    after the first is rooted at an already-matched vertex (§3.1)."""
    stars = _greedy_star_decomposition(query, matched_roots=True)
    return ExecutionPlan(query, _left_deep(stars), name="rads")


def bidirectional_path_plan(query: QueryGraph) -> ExecutionPlan:
    """The path pattern ``0 - 1 - … - L`` grown from both ends (§6:
    "extending from both ends and joining in the middle"): a left-deep
    chain of its edges from vertex 0, another from vertex ``L``, joined
    on vertex ``⌊L/2⌋``.  Equation 3 makes every step of an arm a
    ``PULL-EXTEND`` and the middle join a ``PUSH-JOIN`` once both arms
    have two edges (``L ≥ 4``; a shorter path is one pulling chain), so
    neither arm grows past half the hop budget — the bi-directional-BFS
    bound of ``O(d^⌈L/2⌉)`` partial paths instead of ``O(d^L)``.
    """
    hops = query.num_vertices - 1
    if hops < 1 or query.edges != {(i, i + 1) for i in range(hops)}:
        raise PlanError(f"{query.name} is not the path 0-1-...-L")
    mid = hops // 2

    def arm(first_vertices: range) -> PlanNode:
        return _left_deep([SubQuery(frozenset([(i, i + 1)]))
                           for i in first_vertices])

    root = arm(range(hops - 1, mid - 1, -1))
    if mid:
        fwd = arm(range(mid))
        root = PlanNode(fwd.sub.union(root.sub), fwd, root)
    return ExecutionPlan(query, root, name="path-bidirectional")


# -- cost-based bushy plans -----------------------------------------------------------


def seed_plan(query: QueryGraph, estimator: CardinalityEstimator) -> ExecutionPlan:
    """SEED's logical plan: bushy hash-join tree over star units,
    minimising materialisation + shuffle cost (the pushing-only world)."""
    return Optimiser(estimator, num_machines=1, num_graph_edges=0,
                     cost_strategy="push-only").run(query, name="seed-bushy")


def emptyheaded_plan(query: QueryGraph,
                     estimator: CardinalityEstimator) -> ExecutionPlan:
    """EmptyHeaded's sequential hybrid plan (approximation): bushy tree
    minimising pure materialisation cost, computation being the only
    concern (Example 3.2)."""
    return Optimiser(estimator, num_machines=1, num_graph_edges=0,
                     cost_strategy="compute-mat").run(query,
                                                      name="emptyheaded")


def graphflow_plan(query: QueryGraph, estimator: CardinalityEstimator,
                   avg_degree: float) -> ExecutionPlan:
    """GraphFlow's sequential hybrid plan (approximation): bushy tree under
    the i-cost model of [51] — intersections and binary joins priced by
    CPU work only."""
    return Optimiser(estimator, num_machines=1, num_graph_edges=0,
                     cost_strategy="compute-icost",
                     avg_degree=avg_degree).run(query, name="graphflow")
