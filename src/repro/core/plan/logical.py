"""Logical execution plans: binary join trees over star join units.

Paper §3.1: subgraph enumeration is a multiway join of *join units*
(Equation 1), solved by rounds of two-way joins.  A logical plan fixes the
join unit choice ``U`` and join order ``O``; HUGE uses stars as units and
the bushy order by default, while each baseline contributes its own
constrained shape (Table 2) through :mod:`repro.core.plan.plans`.

A plan is a binary tree: leaves are join units (stars, including single
edges as 1-stars), and each internal node joins its children's sub-queries
(edge-disjoint, union-covering — Algorithm 1 line 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ...cluster.errors import PlanError
from ...query.decompose import SubQuery, full_subquery
from ...query.pattern import QueryGraph

__all__ = ["PlanNode", "LogicalPlan"]


@dataclass(frozen=True)
class PlanNode:
    """One node of a logical join tree."""

    sub: SubQuery
    left: "PlanNode | None" = None
    right: "PlanNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a join unit (no join below it)."""
        return self.left is None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise PlanError("a join node needs both children")
        if self.left is not None and self.right is not None:
            if self.left.sub.edges & self.right.sub.edges:
                raise PlanError(
                    f"join children share edges: {self.left.sub} / {self.right.sub}")
            if self.left.sub.edges | self.right.sub.edges != self.sub.edges:
                raise PlanError(
                    f"join children do not cover {self.sub}")
            if not (self.left.sub.vertices & self.right.sub.vertices):
                raise PlanError(
                    f"join children are disconnected (empty join key): "
                    f"{self.left.sub} / {self.right.sub}")

    def nodes(self) -> Iterator["PlanNode"]:
        """Post-order traversal of the subtree rooted here."""
        if self.left is not None and self.right is not None:
            yield from self.left.nodes()
            yield from self.right.nodes()
        yield self

    def joins(self) -> Iterator["PlanNode"]:
        """Post-order traversal of internal (join) nodes — the order ``O``."""
        for node in self.nodes():
            if not node.is_leaf:
                yield node

    def leaves(self) -> Iterator["PlanNode"]:
        """The join units of the subtree."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def depth(self) -> int:
        """Height of the subtree (leaf = 1)."""
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return 1 + max(self.left.depth(), self.right.depth())

    def is_left_deep(self) -> bool:
        """Whether every right child in the subtree is a leaf."""
        if self.is_leaf:
            return True
        assert self.left is not None and self.right is not None
        return self.right.is_leaf and self.left.is_left_deep()


@dataclass(frozen=True)
class LogicalPlan:
    """A validated logical plan for a query."""

    query: QueryGraph
    root: PlanNode
    name: str = "plan"

    def __post_init__(self) -> None:
        if self.root.sub != full_subquery(self.query):
            raise PlanError(
                f"plan root covers {sorted(self.root.sub.edges)} but the "
                f"query has edges {sorted(self.query.edges)}")
        for leaf in self.root.leaves():
            if not leaf.sub.is_star():
                raise PlanError(
                    f"join unit {leaf.sub} is not a star")

    def joins(self) -> Iterator[PlanNode]:
        """The join order ``O`` (post-order over internal nodes)."""
        return self.root.joins()

    def describe(self) -> str:
        """Human-readable one-plan-per-line description."""
        lines = [f"LogicalPlan {self.name!r} for {self.query.name}:"]

        def fmt(sub: SubQuery) -> str:
            return "{" + ",".join(f"{u}-{v}" for u, v in sorted(sub.edges)) + "}"

        for i, node in enumerate(self.joins(), 1):
            assert node.left is not None and node.right is not None
            lines.append(f"  J{i}: {fmt(node.left.sub)} ⋈ {fmt(node.right.sub)}"
                         f" -> {fmt(node.sub)}")
        if not lines[1:]:
            lines.append(f"  single unit: {fmt(self.root.sub)}")
        return "\n".join(lines)
