"""Graph pattern mining on top of the HUGE engine (paper §6).

"A GPM system essentially processes subgraph enumeration repeatedly from
small query graphs to larger ones, each time adding one more query
vertex/edge.  Thus, HUGE can be deployed as a GPM system by adding the
control flow like loop."  This module is that loop
(:func:`~repro.apps.loop.engine_runs`) over the connected patterns of a
size, read three ways:

* :func:`motif_counts` — the engine's count of every connected pattern
  with ``k`` vertices (non-induced instances; motif counting [52]);
* :func:`motif_census` — the size-k motif census (k = 2..5): every
  connected k-vertex *set* once, under the class of its induced
  subgraph, recovered from the motif counts through the
  spanning-subgraph matrix :func:`spanning_copies`;
* :func:`frequent_patterns` — the patterns whose instance count clears a
  support threshold (frequent subgraph mining [36]).

All three are ordinary engine runs — Algorithm 1 plans, the configured
fetch stage, aggregated ``GetNbrs``, bounded queues — and the caller's
ledger carries the sum of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, compress, product
from typing import Any

from ..baselines.reference import count_instances
from ..cluster.cluster import Cluster
from ..cluster.metrics import RunReport
from ..core.engine import EngineConfig
from ..graph.graph import Graph
from ..query.pattern import QueryGraph
from .loop import engine_runs

__all__ = ["CensusResult", "connected_patterns", "frequent_patterns",
           "motif_census", "motif_counts", "spanning_copies"]


@lru_cache(maxsize=None)
def connected_patterns(k: int) -> tuple[QueryGraph, ...]:
    """All non-isomorphic connected patterns on ``k`` vertices (k ≤ 5).

    Classes are deduplicated by :meth:`QueryGraph.canonical_key` — the
    same WL+BnB canonicaliser the serving plan cache keys on — and
    returned in a deterministic order (``motif{k}-{i}``).
    """
    if not 2 <= k <= 5:
        raise ValueError("pattern size must be between 2 and 5")
    all_edges = list(combinations(range(k), 2))
    seen: dict[str, QueryGraph] = {}
    # edge subsets in binary counting order, the first edge least
    # significant: the order the ``motif{k}-{i}`` names are pinned to
    for picks in product((False, True), repeat=len(all_edges)):
        edges = list(compress(all_edges, reversed(picks)))
        if len(edges) < k - 1:
            continue
        q = QueryGraph(k, edges)
        if not q.is_connected():
            continue
        key = q.canonical_key()
        if key not in seen:
            seen[key] = QueryGraph(k, edges, name=f"motif{k}-{len(seen)}")
    return tuple(seen.values())


@lru_cache(maxsize=None)
def spanning_copies(k: int) -> tuple[tuple[int, ...], ...]:
    """``M[i][j]``: copies of class ``i`` inside class ``j`` of
    :func:`connected_patterns` — the instances of pattern ``i`` in
    pattern ``j`` taken as a ``k``-vertex data graph, i.e. ``j``'s
    spanning subgraphs isomorphic to ``i``.

    A ``k``-vertex set whose induced subgraph is ``j`` holds exactly
    ``M[i][j]`` non-induced instances of ``i``, so per class
    ``noninduced = M · induced``.  A spanning subgraph with as many
    edges as its host *is* the host: ``M[i][i] = 1`` and ``M[i][j] = 0``
    unless ``j`` has more edges than ``i`` — unit upper-triangular with
    the classes in ascending edge-count order, so the system solves by
    back-substitution in exact integers, no division.
    """
    patterns = connected_patterns(k)
    hosts = [Graph.from_edges(p.edges, k) for p in patterns]
    return tuple(tuple(count_instances(host, p) for host in hosts)
                 for p in patterns)


@dataclass(frozen=True)
class CensusResult:
    """Outcome of one size-k motif census run."""

    k: int
    counts: dict[str, int]
    """Per-class census counts, keyed by motif name (``motif{k}-{i}``);
    every connected class appears, zero-count ones included."""
    class_keys: dict[str, str]
    """Motif name → canonical key (the plan-cache key space)."""
    total_subgraphs: int
    """Number of connected k-vertex sets (= sum of counts)."""
    report: RunReport
    """The caller's ledger after the census's engine runs."""

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable view (CLI ``--json`` and bench records)."""
        return {
            "k": self.k,
            "counts": dict(self.counts),
            "class_keys": dict(self.class_keys),
            "total_subgraphs": self.total_subgraphs,
            "report": self.report.as_dict(),
        }


def motif_counts(cluster: Cluster, k: int,
                 config: EngineConfig | None = None) -> dict[str, int]:
    """Count every ``k``-vertex motif with the HUGE engine.

    Returns pattern name → (non-induced, symmetry-broken) instance
    count.  Each motif is one subgraph enumeration query planned by
    Algorithm 1; this is the GPM loop of §6.
    """
    patterns = connected_patterns(k)
    runs = engine_runs(cluster, patterns, config)
    return {p.name: run.count for p, run in zip(patterns, runs)}


def motif_census(cluster: Cluster, k: int) -> CensusResult:
    """Count every connected ``k``-vertex set of the data graph by the
    isomorphism class of its induced subgraph.

    The census counts **induced** occurrences — each vertex set once —
    whereas :func:`motif_counts` counts non-induced instances: a
    triangle is one census subgraph but contains three wedges.  The two
    are tied by ``noninduced = M · induced`` (:func:`spanning_copies`),
    solved here from the densest class down: the clique's instances are
    all induced, and each sparser class subtracts the copies of itself
    inside the denser classes already solved.
    """
    patterns = connected_patterns(k)
    noninduced = motif_counts(cluster, k)
    copies = spanning_copies(k)
    induced: dict[int, int] = {}
    for i in sorted(range(len(patterns)),
                    key=lambda i: -patterns[i].num_edges):
        induced[i] = noninduced[patterns[i].name] - sum(
            copies[i][j] * count for j, count in induced.items())
    return CensusResult(
        k=k,
        counts={p.name: induced[i] for i, p in enumerate(patterns)},
        class_keys={p.name: p.canonical_key() for p in patterns},
        total_subgraphs=sum(induced.values()),
        report=cluster.metrics.report(),
    )


def frequent_patterns(cluster: Cluster, max_size: int, min_support: int,
                      config: EngineConfig | None = None
                      ) -> list[tuple[QueryGraph, int]]:
    """Frequent subgraph mining: the connected patterns of sizes
    2 .. ``max_size`` with at least ``min_support`` instances, by size.

    Every pattern of every size is counted.  Level-wise miners prune a
    pattern whose sub-patterns are infrequent, which needs an
    anti-monotone support; the instance count is not one — the star
    K₁,₅ has 5 edges but 10 wedges and 10 three-stars — so an infrequent
    (even empty) level says nothing about the next.
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    patterns = [p for size in range(2, max_size + 1)
                for p in connected_patterns(size)]
    runs = engine_runs(cluster, patterns, config)
    return [(p, run.count) for p, run in zip(patterns, runs)
            if run.count >= min_support]
