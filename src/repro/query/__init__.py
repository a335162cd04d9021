"""Query substrate: patterns, automorphisms, symmetry breaking, estimation."""

from .pattern import QueryGraph, QUERIES, get_query
from .automorphism import automorphisms, automorphism_count, orbits
from .symmetry import PartialOrder, satisfies_order, symmetry_break
from .decompose import (
    SubQuery,
    complete_star_root,
    connected_subqueries,
    full_subquery,
    is_complete_star_join,
    splits,
    star_subqueries,
)
from .estimate import (
    CardinalityEstimator,
    ExactEstimator,
    RandomGraphEstimator,
    SamplingEstimator,
    star_count,
)

__all__ = [
    "QueryGraph",
    "QUERIES",
    "get_query",
    "automorphisms",
    "automorphism_count",
    "orbits",
    "PartialOrder",
    "satisfies_order",
    "symmetry_break",
    "SubQuery",
    "complete_star_root",
    "connected_subqueries",
    "full_subquery",
    "is_complete_star_join",
    "splits",
    "star_subqueries",
    "CardinalityEstimator",
    "ExactEstimator",
    "RandomGraphEstimator",
    "SamplingEstimator",
    "star_count",
]
