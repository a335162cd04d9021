"""Query substrate: patterns, automorphisms, symmetry breaking, estimation."""

from .pattern import QueryGraph, QUERIES, get_query
from .automorphism import automorphisms, automorphism_count, orbits
from .symmetry import PartialOrder, satisfies_order, symmetry_break
from .decompose import (
    SubQuery,
    SubQueryMasks,
    complete_star_root,
    full_subquery,
    mask_splits,
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
    "SubQueryMasks",
    "complete_star_root",
    "full_subquery",
    "mask_splits",
    "CardinalityEstimator",
    "ExactEstimator",
    "RandomGraphEstimator",
    "SamplingEstimator",
    "star_count",
]
