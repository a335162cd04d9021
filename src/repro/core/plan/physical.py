"""Physical plan settings: join algorithm × communication mode (Equation 3).

Paper §3.2 identifies two physical dimensions per two-way join
``(q', q'_l, q'_r)``: the join algorithm ``A ∈ {hash, wco}`` and the
communication mode ``C ∈ {pushing, pulling}``.  Equation 3 fixes them:

* **complete star join** (Definition 3.1: ``q'_r`` is a star whose leaves
  are all in ``V(q'_l)``) → *(wco join, pulling)* — a ``PULL-EXTEND``;
* ``q'_r`` a star ``(v; L)`` with root ``v ∈ V(q'_l)`` → *(hash join,
  pulling)* — rewritten into a ``PULL-EXTEND`` chain for the memory bound
  (paper §5.2);
* otherwise → *(hash join, pushing)* — a ``PUSH-JOIN``.

Join is commutative, so both orientations of each join are tried and the
children are swapped when the star side is on the left.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from ...query.decompose import SubQuery, complete_star_root
from ...query.pattern import QueryGraph
from ...query.symmetry import PartialOrder, symmetry_break
from .logical import LogicalPlan, PlanNode

__all__ = [
    "JoinAlgorithm",
    "CommMode",
    "PhysicalSetting",
    "PhysicalNode",
    "ExecutionPlan",
    "configure_join",
    "configure_plan",
]


class JoinAlgorithm(Enum):
    """The join algorithm dimension ``A``."""

    HASH = "hash"
    WCO = "wco"


class CommMode(Enum):
    """The communication mode dimension ``C``."""

    PUSHING = "pushing"
    PULLING = "pulling"


@dataclass(frozen=True)
class PhysicalSetting:
    """Physical configuration of one join: Equation 3 plus the star root
    the pulling rewrites extend from."""

    algorithm: JoinAlgorithm
    comm: CommMode
    star_root: int | None = None

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"({self.algorithm.value} join, {self.comm.value})"


def configure_join(left: SubQuery,
                   right: SubQuery) -> tuple[PhysicalSetting, bool]:
    """Apply Equation 3 to a join of ``left ⋈ right``.

    Returns ``(setting, swapped)`` where ``swapped`` indicates the star
    side was found on the left and the children should be exchanged so the
    star is always ``q'_r``.
    """
    candidates: list[tuple[PhysicalSetting, bool, bool]] = []
    for l, r, swapped in ((left, right, False), (right, left, True)):
        root = complete_star_root(l, r)
        if root is not None:
            setting = PhysicalSetting(JoinAlgorithm.WCO, CommMode.PULLING,
                                      star_root=root)
            candidates.append((setting, swapped, root not in l.vertices))
    if candidates:
        # prefer the orientation whose root is a genuinely new vertex: a
        # true extension beats a verify-style join that must first
        # materialise the star side
        candidates.sort(key=lambda c: c[2], reverse=True)
        setting, swapped, _ = candidates[0]
        return setting, swapped
    for l, r, swapped in ((left, right, False), (right, left, True)):
        if r.is_star():
            roots = ([r.star_root()] if r.num_vertices > 2
                     else sorted(r.vertices))
            in_left = [v for v in roots if v in l.vertices]
            if in_left:
                return (PhysicalSetting(JoinAlgorithm.HASH, CommMode.PULLING,
                                        star_root=in_left[0]), swapped)
    return PhysicalSetting(JoinAlgorithm.HASH, CommMode.PUSHING), False


@dataclass(frozen=True)
class PhysicalNode:
    """A plan-tree node annotated with its physical setting.

    After configuration the star side of every pulling join sits on the
    right (children swapped where needed).
    """

    sub: SubQuery
    setting: PhysicalSetting | None = None
    left: "PhysicalNode | None" = None
    right: "PhysicalNode | None" = None

    @property
    def is_leaf(self) -> bool:
        """Whether this node is a join unit."""
        return self.left is None

    def nodes(self) -> Iterator["PhysicalNode"]:
        """Post-order traversal."""
        if self.left is not None and self.right is not None:
            yield from self.left.nodes()
            yield from self.right.nodes()
        yield self

    def joins(self) -> Iterator["PhysicalNode"]:
        """Internal nodes in execution order."""
        for node in self.nodes():
            if not node.is_leaf:
                yield node


@dataclass(frozen=True)
class ExecutionPlan:
    """A fully configured execution plan ``P = (U, O, A, C)`` plus the
    symmetry-breaking partial order the runtime must enforce."""

    query: QueryGraph
    root: PhysicalNode
    conditions: PartialOrder
    name: str = "plan"
    estimated_cost: float = float("nan")

    def joins(self) -> Iterator[PhysicalNode]:
        """The configured join order."""
        return self.root.joins()

    def num_push_joins(self) -> int:
        """How many joins require pushing (global synchronisation)."""
        return sum(1 for j in self.joins()
                   if j.setting and j.setting.comm is CommMode.PUSHING)

    def structure(self) -> list[str]:
        """One line per join — operands, join algorithm, communication
        mode — in execution order: everything the optimiser chose,
        without the estimate-dependent cost (what the plan goldens pin)."""
        def fmt(sub: SubQuery) -> str:
            return "{" + ",".join(f"{u}-{v}" for u, v in sorted(sub.edges)) + "}"

        lines = []
        for i, node in enumerate(self.joins(), 1):
            assert node.left is not None and node.right is not None
            lines.append(
                f"J{i}: {fmt(node.left.sub)} ⋈ {fmt(node.right.sub)} "
                f"{node.setting}")
        return lines or [f"single unit: {fmt(self.root.sub)}"]

    def describe(self) -> str:
        """Human-readable plan listing with physical settings."""
        lines = [f"ExecutionPlan {self.name!r} for {self.query.name} "
                 f"(cost≈{self.estimated_cost:.3g}):"]
        lines.extend("  " + line for line in self.structure())
        order = sorted(self.conditions)
        lines.append(f"  symmetry order: {order if order else '(none)'}")
        return "\n".join(lines)


def _configure_node(node: PlanNode) -> PhysicalNode:
    if node.is_leaf:
        return PhysicalNode(node.sub)
    assert node.left is not None and node.right is not None
    setting, swapped = configure_join(node.left.sub, node.right.sub)
    left, right = (node.right, node.left) if swapped else (node.left, node.right)
    return PhysicalNode(node.sub, setting,
                        _configure_node(left), _configure_node(right))


def configure_plan(plan: LogicalPlan,
                   estimated_cost: float = float("nan")) -> ExecutionPlan:
    """Configure the physical settings of a logical plan (Algorithm 1 line
    13's ``ConfigureJoin``), keeping the logical structure intact.

    This is the plug-in path of Remark 3.2: any existing system's logical
    plan gets HUGE's optimal physical settings automatically.
    """
    return ExecutionPlan(
        query=plan.query,
        root=_configure_node(plan.root),
        conditions=symmetry_break(plan.query),
        name=plan.name,
        estimated_cost=estimated_cost,
    )
