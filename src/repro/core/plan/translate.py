"""Execution-plan → dataflow translation (paper Algorithm 2 + §5.2 rewrites).

Pulling-based wco joins become ``PULL-EXTEND`` operators directly
(Algorithm 2 lines 12-18).  The two memory-hazardous constructs are
rewritten into ``PULL-EXTEND`` chains exactly as §5.2 prescribes:

* ``SCAN`` of a star ``(v; L)`` → an initial edge scan plus ``|L| − 1``
  extends rooted at ``v``;
* a pulling-based hash join with star ``(v'_r; L)`` → one *verification*
  extend over ``V1 = L ∩ V(q'_l)`` (with the "preserve only f where
  f(v'_r) = u_{i+1}" hint) followed by one extend per new leaf in
  ``V2 = L \\ V1``.

Symmetry-breaking conditions are attached to the earliest operator whose
output schema contains both endpoints, and injectivity checks to joins
(extends check candidates against the whole tuple natively).

:func:`order_chain` compiles the simplest plan shape — one vertex at a
time along a matching order — straight to its ``SCAN`` + ``PULL-EXTEND``
chain.  It is what BiGJoin, BENU and the streaming delta pass execute
(Remark 3.2: they differ in the order, not in the chain).
"""

from __future__ import annotations

from typing import Sequence

from ...cluster.errors import PlanError
from ...query.pattern import QueryGraph
from ...query.symmetry import PartialOrder
from ..dataflow import ExtendSpec, JoinSpec, ScanSpec, Segment
from .tree import CommMode, ExecutionPlan, JoinAlgorithm, PlanNode

__all__ = ["translate", "order_chain"]

Applied = frozenset[tuple[int, int]]


def _scan(a: int, b: int, conditions: PartialOrder,
          applied: set[tuple[int, int]], query: QueryGraph) -> ScanSpec:
    """Build the edge scan of query edge ``(a, b)``, attaching the
    condition between its endpoints (if any) and their labels."""
    order = None
    if (a, b) in conditions:
        order = "lt"
        applied.add((a, b))
    elif (b, a) in conditions:
        order = "gt"
        applied.add((b, a))
    return ScanSpec(schema=(a, b), order=order,
                    labels=(query.label(a), query.label(b)))


def _extend(schema: tuple[int, ...], ext: tuple[int, ...], new_vertex: int,
            conditions: PartialOrder, applied: set[tuple[int, int]],
            query: QueryGraph) -> ExtendSpec:
    """Build an extension operator, attaching newly checkable conditions
    and the new vertex's label constraint.  Conditions are visited in
    sorted order: a frozenset's iteration order is not preserved by a
    pickle round trip, and the spec (hence the plan signature) must be."""
    lt: list[int] = []
    gt: list[int] = []
    for (u, v) in sorted(conditions):
        if (u, v) in applied:
            continue
        if u == new_vertex and v in schema:
            lt.append(schema.index(v))
            applied.add((u, v))
        elif v == new_vertex and u in schema:
            gt.append(schema.index(u))
            applied.add((u, v))
    return ExtendSpec(ext=ext, out_schema=schema + (new_vertex,),
                      new_vertex=new_vertex,
                      candidate_lt=tuple(lt), candidate_gt=tuple(gt),
                      new_label=query.label(new_vertex))


def order_chain(query: QueryGraph, order: Sequence[int],
                conditions: PartialOrder
                ) -> tuple[ScanSpec, tuple[ExtendSpec, ...]]:
    """The ``SCAN`` + ``PULL-EXTEND`` chain matching ``query`` one vertex
    at a time along ``order``.

    Column ``i`` of every row holds the match of ``order[i]``: the scan
    emits the query edge ``(order[0], order[1])`` and extend ``i - 2``
    appends ``order[i]``, intersecting the adjacency of all its earlier
    pattern neighbours (``ext``, in ascending column position).  Each
    condition of ``conditions`` is applied exactly once, where its later
    endpoint is placed — on the scan (``order``) or as a
    ``candidate_lt`` / ``candidate_gt`` position — and labels ride on the
    operator that places their vertex.
    """
    order = tuple(order)
    if sorted(order) != list(query.vertices()) or len(order) < 2:
        raise PlanError(f"{order} is not a matching order of "
                        f"{query.num_vertices} >= 2 query vertices")
    if order[1] not in query.neighbours(order[0]):
        raise PlanError(f"order {order} does not start with a query edge")
    applied: set[tuple[int, int]] = set()
    scan = _scan(order[0], order[1], conditions, applied, query)
    schema = scan.schema
    extends: list[ExtendSpec] = []
    for v in order[2:]:
        ext = tuple(i for i, u in enumerate(schema)
                    if u in query.neighbours(v))
        if not ext:
            raise PlanError(f"order {order} is not connected at {v}")
        extends.append(_extend(schema, ext, v, conditions, applied, query))
        schema = extends[-1].out_schema
    return scan, tuple(extends)


def _verify(schema: tuple[int, ...], leaves: list[int],
            root: int) -> ExtendSpec:
    """Build a §5.2 verification extend for star edges root—leaves."""
    return ExtendSpec(
        ext=tuple(schema.index(v) for v in leaves),
        out_schema=schema,
        verify_pos=schema.index(root))


def _leaf_segment(node: PlanNode, conditions: PartialOrder,
                  applied: set[tuple[int, int]],
                  query: QueryGraph) -> Segment:
    """SCAN of a star join unit, rewritten per §5.2."""
    sub = node.sub
    root = sub.star_root()
    leaves = sorted(sub.vertices - {root})
    seg = Segment(source=_scan(root, leaves[0], conditions, applied, query))
    schema = seg.out_schema
    for leaf in leaves[1:]:
        spec = _extend(schema, (schema.index(root),), leaf, conditions,
                       applied, query)
        seg.extends.append(spec)
        schema = spec.out_schema
    seg.out_schema = schema
    return seg


def _node_segment(node: PlanNode, conditions: PartialOrder,
                  applied: set[tuple[int, int]],
                  query: QueryGraph) -> Segment:
    if node.is_leaf:
        return _leaf_segment(node, conditions, applied, query)
    setting = node.setting
    left, right = node.operands  # (q'_l, q'_r): the star side is q'_r

    if setting.comm is CommMode.PULLING:
        # the star side is never materialised — it is grown by extends
        seg = _node_segment(left, conditions, applied, query)
        schema = seg.out_schema
        star = right.sub
        root = setting.star_root
        if root is None:
            raise PlanError(f"pulling join without star root: {node.sub}")
        leaves = sorted(star.vertices - {root})

        if setting.algorithm is JoinAlgorithm.WCO and root not in schema:
            # complete star join: one extension intersecting all leaves
            spec = _extend(schema, tuple(schema.index(v) for v in leaves),
                           root, conditions, applied, query)
            seg.extends.append(spec)
            seg.out_schema = spec.out_schema
            return seg

        # pulling-based hash join (or fully covered star): §5.2 rewrite
        v1 = [v for v in leaves if v in schema]
        v2 = [v for v in leaves if v not in schema]
        if v1:
            seg.extends.append(_verify(schema, v1, root))
        for v in v2:
            spec = _extend(schema, (schema.index(root),), v, conditions,
                           applied, query)
            seg.extends.append(spec)
            schema = spec.out_schema
        seg.out_schema = schema
        return seg

    # pushing-based hash join: both children materialise
    left_applied = set(applied)
    right_applied = set(applied)
    lseg = _node_segment(left, conditions, left_applied, query)
    rseg = _node_segment(right, conditions, right_applied, query)
    lsch, rsch = lseg.out_schema, rseg.out_schema
    shared = sorted(set(lsch) & set(rsch))
    if not shared:
        raise PlanError(f"push join with empty key: {node.sub}")
    out_schema = lsch + tuple(v for v in rsch if v not in lsch)
    applied.clear()
    applied.update(left_applied | right_applied)

    cross_conditions: list[tuple[int, int]] = []
    for (u, v) in sorted(conditions):
        if (u, v) in applied:
            continue
        if u in out_schema and v in out_schema:
            cross_conditions.append((out_schema.index(u), out_schema.index(v)))
            applied.add((u, v))
    left_only = [v for v in lsch if v not in shared]
    right_only = [v for v in rsch if v not in lsch]
    cross_distinct = tuple(
        (out_schema.index(u), out_schema.index(v))
        for u in left_only for v in right_only)

    join = JoinSpec(
        left_key=tuple(lsch.index(v) for v in shared),
        right_key=tuple(rsch.index(v) for v in shared),
        right_carry=tuple(rsch.index(v) for v in rsch if v not in lsch),
        out_schema=out_schema,
        cross_distinct=cross_distinct,
        cross_conditions=tuple(cross_conditions),
    )
    return Segment(source=join, left=lseg, right=rseg)


def translate(plan: ExecutionPlan) -> Segment:
    """Translate an execution plan into a dataflow segment tree."""
    applied: set[tuple[int, int]] = set()
    seg = _node_segment(plan.root, plan.conditions, applied, plan.query)
    missing = set(plan.conditions) - applied
    if missing:
        raise PlanError(
            f"symmetry conditions never applied: {sorted(missing)}")
    if set(seg.out_schema) != set(plan.query.vertices()):
        raise PlanError(
            f"dataflow covers {seg.out_schema}, query needs "
            f"{list(plan.query.vertices())}")
    return seg
