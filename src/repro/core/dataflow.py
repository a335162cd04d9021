"""Dataflow graph specification (paper §4.2).

A translated execution plan becomes a tree of *segments*.  A segment is a
linear chain — one source (an edge ``SCAN`` or a ``PUSH-JOIN``) followed by
``PULL-EXTEND`` operators — because HUGE rewrites star SCANs and
pulling-based hash joins into ``PULL-EXTEND`` chains (§5.2), leaving
``PUSH-JOIN`` as the only branching operator.  ``PUSH-JOIN`` enforces a
global synchronisation barrier (§5.4), so the segment tree is exactly the
unit structure the scheduler works with: child segments run to completion
(into join buffers) before their parent segment streams.

All specs are declarative and immutable; the runtime operators in
:mod:`repro.core.operators` interpret them.

Schemas and positions
---------------------
Every operator's output is a stream of tuples of data-vertex ids.  The
``schema`` names which query vertex each position matches.  ``ext`` (the
paper's *extend index*), join keys, symmetry conditions and distinctness
checks are all expressed as tuple positions so the hot path never consults
the schema.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

__all__ = ["ScanSpec", "ExtendSpec", "JoinSpec", "ReplaySpec", "Segment",
           "Operator", "Program", "plan_signature"]


@dataclass(frozen=True)
class ScanSpec:
    """Scan all matches of a single query edge from the local partition.

    Emits tuples ``(f(a), f(b))`` for the query edge ``(a, b)`` with
    ``schema = (a, b)``.  ``order`` applies a symmetry-breaking condition
    between the two endpoints: ``"lt"`` keeps ``f(a) < f(b)``, ``"gt"``
    keeps ``f(a) > f(b)``, ``None`` keeps both directed versions.
    """

    schema: tuple[int, int]
    order: str | None = None
    #: label constraints for (pivot, neighbour); None = wildcard
    labels: tuple[int | None, int | None] = (None, None)

    def __post_init__(self) -> None:
        if self.order not in (None, "lt", "gt"):
            raise ValueError(f"bad scan order {self.order!r}")


@dataclass(frozen=True)
class ExtendSpec:
    """One ``PULL-EXTEND`` operator (paper Algorithm 4).

    For each input tuple ``f`` the candidate set is
    ``∩_{d ∈ ext} N_G(f[d])``, with remote adjacency lists pulled through
    the LRBU cache.

    Two modes:

    * **extension** (``new_vertex`` set): each candidate ``v`` not already
      in ``f`` and satisfying the positional symmetry conditions yields
      ``f + (v,)``;
    * **verification** (``new_vertex`` is ``None``; the §5.2 hint): the
      tuple survives unchanged iff ``f[verify_pos]`` is in the candidate
      set — this verifies the star edges between an already-matched root
      and the already-matched leaves without growing the tuple.
    """

    ext: tuple[int, ...]
    out_schema: tuple[int, ...]
    new_vertex: int | None = None
    verify_pos: int | None = None
    #: positions p such that the new candidate must be < f[p]
    candidate_lt: tuple[int, ...] = ()
    #: positions p such that the new candidate must be > f[p]
    candidate_gt: tuple[int, ...] = ()
    #: label constraint on the new vertex (labelled queries; None = any)
    new_label: int | None = None

    def __post_init__(self) -> None:
        if not self.ext:
            raise ValueError("PULL-EXTEND needs at least one extend index")
        if (self.new_vertex is None) == (self.verify_pos is None):
            raise ValueError(
                "exactly one of new_vertex / verify_pos must be set")

    @property
    def is_verify(self) -> bool:
        """Whether this is a §5.2 verification extend."""
        return self.verify_pos is not None


@dataclass(frozen=True)
class JoinSpec:
    """One ``PUSH-JOIN`` operator: buffered distributed hash join (§4.3).

    Both inputs are shuffled by the join key; matching left/right tuples
    are concatenated (right key columns dropped).  ``cross_distinct`` and
    ``cross_conditions`` carry the injectivity and symmetry checks that
    only become possible once both sides are present; positions refer to
    ``out_schema``.
    """

    left_key: tuple[int, ...]
    right_key: tuple[int, ...]
    right_carry: tuple[int, ...]
    out_schema: tuple[int, ...]
    cross_distinct: tuple[tuple[int, int], ...] = ()
    cross_conditions: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(self.left_key) != len(self.right_key) or not self.left_key:
            raise ValueError("join keys must be non-empty and equal length")


@dataclass(frozen=True)
class ReplaySpec:
    """Source of a share-group member's tail chain: a replay of the tee'd
    output of the group's common prefix (``schema`` is the prefix's)."""

    schema: tuple[int, ...]


class Operator(NamedTuple):
    """One row of a compiled program's operator table."""

    opid: str  #: ``s<segment>.<position>``; position 0 is the source
    kind: str  #: SCAN / PUSH-JOIN / REPLAY / PULL-EXTEND / VERIFY
    span: str  #: name of the operator's per-batch span
    schema: tuple[int, ...]


@dataclass
class Segment:
    """A linear chain of operators: one source plus extends.

    ``source`` is a :class:`ScanSpec`, a :class:`ReplaySpec`, or a
    :class:`JoinSpec` whose children are the two sub-``Segment``s (making
    the whole structure a tree).  The root segment's final output feeds
    the SINK.
    """

    source: ScanSpec | JoinSpec | ReplaySpec
    left: "Segment | None" = None
    right: "Segment | None" = None
    extends: list[ExtendSpec] = field(default_factory=list)
    out_schema: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        is_join = isinstance(self.source, JoinSpec)
        if is_join != (self.left is not None and self.right is not None):
            raise ValueError("JoinSpec sources need exactly two child segments")
        if not self.out_schema:
            last = self.extends[-1].out_schema if self.extends else (
                self.source.out_schema if isinstance(self.source, JoinSpec)
                else self.source.schema)
            self.out_schema = tuple(last)

    @property
    def num_operators(self) -> int:
        """Operators in this segment's own chain (source + extends)."""
        return 1 + len(self.extends)

    def operators(self, number: int = 0) -> list[Operator]:
        """This chain's rows of the operator table under segment
        ``number`` — the source, then one row per extend.  The one place
        operator ids are made."""
        src = self.source
        if isinstance(src, JoinSpec):
            rows = [Operator(f"s{number}.0", "PUSH-JOIN", "JOIN-OUT",
                             tuple(src.out_schema))]
        else:
            kind = "SCAN" if isinstance(src, ScanSpec) else "REPLAY"
            rows = [Operator(f"s{number}.0", kind, kind, tuple(src.schema))]
        for i, ext in enumerate(self.extends, 1):
            kind = "VERIFY" if ext.is_verify else "PULL-EXTEND"
            rows.append(Operator(f"s{number}.{i}", kind, kind,
                                 tuple(ext.out_schema)))
        return rows

    def all_segments(self) -> list["Segment"]:
        """Post-order list of segments (children before parents)."""
        out: list[Segment] = []
        if self.left is not None:
            out.extend(self.left.all_segments())
        if self.right is not None:
            out.extend(self.right.all_segments())
        out.append(self)
        return out


def plan_signature(segment: Segment) -> tuple | None:
    """The prefix signature of a translated segment: its frozen operator
    specs ``(ScanSpec, ExtendSpec, ...)``.  Only single-segment scan +
    extend chains are shareable; ``PUSH-JOIN`` trees return ``None``."""
    if segment.left is not None or not isinstance(segment.source, ScanSpec):
        return None
    return (segment.source, *segment.extends)


@dataclass
class Program:
    """What one engine run executes: N ≥ 1 translated plans compiled as a
    share group (a solo query is the group of one).

    ``head`` runs once.  For a group of one it is the member's whole
    segment tree feeding the member's sink (no ``tails``, no tee).  For
    N > 1 it is the longest common spec prefix of the members' scan
    chains, tee'd into one tail per member: the member's remaining
    extends (possibly none — pure isomorphism dedup) on a
    :class:`ReplaySpec` source.  ``ops`` is the operator table, one list
    of rows per chain in run order — ``head``'s segments post-order, then
    the tails in member order, each under its own segment number.
    """

    head: Segment
    tails: list[Segment]
    ops: list[list[Operator]]
