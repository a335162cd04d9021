"""Applications built on the HUGE runtime (paper §6): shortest paths,
hop-constrained path enumeration, graph pattern mining."""

from .hopconstrained import count_st_paths, enumerate_st_paths
from .mining import (CensusResult, connected_patterns, frequent_patterns,
                     motif_census, motif_counts)
from .shortest_path import shortest_path, shortest_path_lengths

__all__ = [
    "count_st_paths",
    "enumerate_st_paths",
    "CensusResult",
    "connected_patterns",
    "frequent_patterns",
    "motif_census",
    "motif_counts",
    "shortest_path",
    "shortest_path_lengths",
]
