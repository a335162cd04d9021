"""Hop-constrained s–t simple path enumeration (paper §6, citing [59]).

"For hop-constrained path enumeration, HUGE can conduct a bi-directional
BFS by extending from both ends and joining in the middle."  Here that is
the §6 "control flow like loop" over engine runs: the simple s–t paths of
length ``L`` are exactly the matches of the path pattern ``P_L`` whose
first vertex is pinned to ``s`` and last to ``t``, and a pin is a label —
the data graph is viewed with ``s`` labelled *source*, ``t`` *target* and
every other vertex *other*, and ``P_L`` carries the same three labels.
Each length runs under
:func:`~repro.core.plan.plans.bidirectional_path_plan` on
:class:`~repro.core.engine.HugeEngine`, so injective matching makes the
paths simple, the labelled ends leave no automorphism (each path is
matched once), and the fetch stage, the middle shuffle, the bounded
queues and the ledger are the engine's.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..core.engine import EngineConfig, EnumerationResult
from ..core.plan.plans import bidirectional_path_plan
from ..query.pattern import QueryGraph
from .loop import engine_runs

__all__ = ["enumerate_st_paths", "count_st_paths"]

Path = tuple[int, ...]

_OTHER, _SOURCE, _TARGET = 0, 1, 2


def _path_runs(cluster: Cluster, source: int, target: int, max_hops: int,
               collect: bool) -> list[EnumerationResult]:
    """One engine run per path length ``1 .. max_hops``, under labels
    that pin the two ends (:func:`~repro.apps.loop.engine_runs`)."""
    n = cluster.graph.num_vertices
    if not (0 <= source < n and 0 <= target < n):
        raise ValueError("source/target out of range")
    if max_hops < 0:
        raise ValueError("max_hops must be non-negative")
    if source == target:
        return []  # the one simple path is the vertex itself: nothing to run
    pins = np.full(n, _OTHER, dtype=np.int64)
    pins[source], pins[target] = _SOURCE, _TARGET
    plans = []
    for hops in range(1, max_hops + 1):
        pattern = QueryGraph(
            hops + 1, [(i, i + 1) for i in range(hops)], name=f"path{hops}",
            labels=[_SOURCE] + [_OTHER] * (hops - 1) + [_TARGET])
        plans.append(bidirectional_path_plan(pattern))
    return engine_runs(cluster, plans, EngineConfig(collect_results=collect),
                       labels=pins)


def enumerate_st_paths(cluster: Cluster, source: int, target: int,
                       max_hops: int) -> list[Path]:
    """All simple paths from ``source`` to ``target`` with at most
    ``max_hops`` edges, sorted; ``[(source,)]`` when the ends coincide."""
    runs = _path_runs(cluster, source, target, max_hops, collect=True)
    if source == target:
        return [(source,)]
    return sorted(path for run in runs for path in run.matches)


def count_st_paths(cluster: Cluster, source: int, target: int,
                   max_hops: int) -> int:
    """Number of simple ``source``→``target`` paths within ``max_hops``
    (count-only runs: no match list is built)."""
    runs = _path_runs(cluster, source, target, max_hops, collect=False)
    return sum(run.count for run in runs) + (source == target)
