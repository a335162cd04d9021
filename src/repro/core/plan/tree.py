"""The plan: one binary join tree from the optimiser to the translator.

Paper §3.1: subgraph enumeration is a multiway join of *join units*
(Equation 1), solved by rounds of two-way joins.  A plan fixes the join
unit choice ``U`` and the join order ``O``: leaves are join units (stars,
including single edges as 1-stars) and each internal node joins its
children's sub-queries (edge-disjoint, union-covering — Algorithm 1
line 5).  HUGE uses stars and the bushy order; each baseline contributes
its own constrained shape (Table 2) through :mod:`repro.core.plan.plans`.

§3.2 adds two physical dimensions per two-way join ``(q', q'_l, q'_r)``:
the join algorithm ``A ∈ {hash, wco}`` and the communication mode
``C ∈ {pushing, pulling}``.  Equation 3 fixes them:

* **complete star join** (Definition 3.1: ``q'_r`` is a star whose leaves
  are all in ``V(q'_l)``) → *(wco join, pulling)* — a ``PULL-EXTEND``;
* ``q'_r`` a star ``(v; L)`` with root ``v ∈ V(q'_l)`` → *(hash join,
  pulling)* — rewritten into a ``PULL-EXTEND`` chain for the memory bound
  (paper §5.2);
* otherwise → *(hash join, pushing)* — a ``PUSH-JOIN``.

Equation 3 is a pure function of a join's two operands, so it is not
stored: :func:`configure_join` is the one place it is written and a join
node's :attr:`~PlanNode.setting` / :attr:`~PlanNode.operands` the one
place it is read — a view derived on first use and cached on the node.
Join is commutative, so both orientations are tried; ``operands`` names
the star side ``q'_r`` while ``left`` / ``right`` stay as the builder gave
them (SEED's and RADS' native engines evaluate them in that order).  What
a builder returns therefore runs as built, on HUGE or on the system it
came from — the plug-in mode of Remark 3.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterator

from ...cluster.errors import PlanError
from ...query.decompose import SubQuery, complete_star_root, full_subquery
from ...query.pattern import QueryGraph
from ...query.symmetry import PartialOrder, symmetry_break

__all__ = [
    "JoinAlgorithm",
    "CommMode",
    "PhysicalSetting",
    "PlanNode",
    "ExecutionPlan",
    "configure_join",
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
    side was found on the left, i.e. ``q'_r`` is ``left``.
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


def _fmt(sub: SubQuery) -> str:
    return "{" + ",".join(f"{u}-{v}" for u, v in sorted(sub.edges)) + "}"


@dataclass(frozen=True)
class PlanNode:
    """One node of a join tree: a join unit, or the join of two subtrees."""

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

    # -- Equation 3, derived ------------------------------------------------------

    @cached_property
    def _equation3(self) -> tuple[PhysicalSetting, bool]:
        assert self.left is not None and self.right is not None
        return configure_join(self.left.sub, self.right.sub)

    @property
    def setting(self) -> PhysicalSetting | None:
        """The join's ``(A, C)`` under Equation 3; ``None`` for a unit."""
        return None if self.is_leaf else self._equation3[0]

    @property
    def operands(self) -> "tuple[PlanNode, PlanNode]":
        """The join's children as ``(q'_l, q'_r)``: the star side of a
        pulling join is ``q'_r``, whichever side the builder put it on."""
        swapped = self._equation3[1]
        return (self.right, self.left) if swapped else (self.left, self.right)

    # -- the tree as built ----------------------------------------------------------

    def nodes(self) -> Iterator["PlanNode"]:
        """Post-order traversal of the subtree rooted here."""
        if self.left is not None and self.right is not None:
            yield from self.left.nodes()
            yield from self.right.nodes()
        yield self

    def leaves(self) -> Iterator["PlanNode"]:
        """The join units of the subtree."""
        for node in self.nodes():
            if node.is_leaf:
                yield node

    def is_left_deep(self) -> bool:
        """Whether every right child in the subtree is a leaf."""
        if self.is_leaf:
            return True
        assert self.left is not None and self.right is not None
        return self.right.is_leaf and self.left.is_left_deep()


@dataclass(frozen=True)
class ExecutionPlan:
    """A validated execution plan ``P = (U, O, A, C)`` — the tree gives
    ``(U, O)``, Equation 3 derives ``(A, C)`` — plus the symmetry-breaking
    partial order the runtime must enforce (the query's own by default)."""

    query: QueryGraph
    root: PlanNode
    conditions: PartialOrder | None = None
    name: str = "plan"
    estimated_cost: float = float("nan")

    def __post_init__(self) -> None:
        if self.root.sub != full_subquery(self.query):
            raise PlanError(
                f"plan root covers {sorted(self.root.sub.edges)} but the "
                f"query has edges {sorted(self.query.edges)}")
        for leaf in self.root.leaves():
            if not leaf.sub.is_star():
                raise PlanError(f"join unit {leaf.sub} is not a star")
        if self.conditions is None:
            object.__setattr__(self, "conditions",
                               symmetry_break(self.query))

    def nodes(self) -> Iterator[PlanNode]:
        """Post-order traversal in execution order: ``q'_l``'s subtree,
        ``q'_r``'s, then the join."""
        def walk(node: PlanNode) -> Iterator[PlanNode]:
            if not node.is_leaf:
                for child in node.operands:
                    yield from walk(child)
            yield node

        return walk(self.root)

    def joins(self) -> Iterator[PlanNode]:
        """The join order ``O``: internal nodes in execution order."""
        return (node for node in self.nodes() if not node.is_leaf)

    def num_push_joins(self) -> int:
        """How many joins require pushing (global synchronisation)."""
        return sum(1 for j in self.joins()
                   if j.setting.comm is CommMode.PUSHING)

    def structure(self) -> list[str]:
        """One line per join — operands, join algorithm, communication
        mode — in execution order: everything the optimiser chose,
        without the estimate-dependent cost (what the plan goldens pin)."""
        lines = []
        for i, node in enumerate(self.joins(), 1):
            left, right = node.operands
            lines.append(
                f"J{i}: {_fmt(left.sub)} ⋈ {_fmt(right.sub)} {node.setting}")
        return lines or [f"single unit: {_fmt(self.root.sub)}"]

    def describe(self) -> str:
        """Human-readable plan listing with physical settings."""
        lines = [f"ExecutionPlan {self.name!r} for {self.query.name} "
                 f"(cost≈{self.estimated_cost:.3g}):"]
        lines.extend("  " + line for line in self.structure())
        order = sorted(self.conditions)
        lines.append(f"  symmetry order: {order if order else '(none)'}")
        return "\n".join(lines)
