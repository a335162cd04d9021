"""Symmetry breaking via partial orders (Grochow & Kellis [28]).

Without symmetry breaking, every subgraph instance is reported once per
automorphism of the query.  The classic fix — used by the paper and all of
its baselines — imposes a partial order on query vertices: a match ``f`` is
kept only if ``ID(f(u)) < ID(f(v))`` for every ordered condition ``u < v``.
The conditions are chosen so that, for each subgraph instance, *exactly
one* of its ``|Aut(q)|`` ordered matches survives.

Algorithm (Grochow–Kellis): repeatedly take the current automorphism group
``A``; while ``A`` is non-trivial, pick a vertex ``v`` in a largest
non-singleton orbit, emit conditions ``v < u`` for every other ``u`` in
``v``'s orbit, and replace ``A`` by the stabiliser of ``v``.
"""

from __future__ import annotations

from .automorphism import automorphisms, orbits
from .pattern import QueryGraph

__all__ = ["symmetry_break", "satisfies_order", "PartialOrder"]

#: A set of conditions ``(u, v)`` each meaning ``f(u) < f(v)``.
PartialOrder = frozenset[tuple[int, int]]


def symmetry_break(q: QueryGraph,
                   group: list[tuple[int, ...]] | None = None) -> PartialOrder:
    """Compute a symmetry-breaking partial order for ``q``.

    Returns conditions ``(u, v)`` meaning the data vertex matched to ``u``
    must have a smaller ID than the one matched to ``v``.  The empty set is
    returned for asymmetric queries.  ``group`` is ``automorphisms(q)``
    when the caller already has it.
    """
    conditions: set[tuple[int, int]] = set()
    if group is None:
        group = automorphisms(q)
    while len(group) > 1:
        non_trivial = [o for o in orbits(q, group) if len(o) > 1]
        if not non_trivial:  # pragma: no cover - defensive; cannot happen
            break
        orbit = max(non_trivial, key=len)
        v = min(orbit)
        for u in sorted(orbit):
            if u != v:
                conditions.add((v, u))
        group = [perm for perm in group if perm[v] == v]
    return frozenset(conditions)


def satisfies_order(match: tuple[int, ...] | list[int],
                    conditions: PartialOrder) -> bool:
    """Whether an (ordered, complete) match satisfies every condition."""
    return all(match[u] < match[v] for u, v in conditions)
