"""Baseline engines: reference, SEED, BiGJoin, BENU, RADS, and the
simulated external key-value store."""

from .base import (BaselineEngine, BaselineResult, DistributedRelation,
                   materialize_star, new_conditions, valid_leaf_patterns)
from .benu import BenuEngine
from .bigjoin import BigJoinEngine
from .kvstore import ExternalKVStore
from .rads import RadsEngine
from .reference import (count_instances, count_matches,
                        count_ordered_embeddings, enumerate_matches,
                        enumerate_ordered_embeddings)
from .seed import SeedEngine

__all__ = [
    "BaselineEngine",
    "BaselineResult",
    "DistributedRelation",
    "materialize_star",
    "new_conditions",
    "valid_leaf_patterns",
    "BenuEngine",
    "BigJoinEngine",
    "ExternalKVStore",
    "RadsEngine",
    "SeedEngine",
    "count_instances",
    "count_matches",
    "count_ordered_embeddings",
    "enumerate_matches",
    "enumerate_ordered_embeddings",
]
