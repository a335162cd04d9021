"""Graph pattern mining on top of the HUGE engine (paper §6).

"A GPM system essentially processes subgraph enumeration repeatedly from
small query graphs to larger ones, each time adding one more query
vertex/edge.  Thus, HUGE can be deployed as a GPM system by adding the
control flow like loop."  This module provides that loop, plus the
workload the loop exists for:

* :func:`motif_census` — the size-k motif census: an ESU enumeration of
  *all* connected k-subgraphs (k = 2..5) over bitset adjacency, each
  counted under its isomorphism class via a memoised canonical key
  (:class:`~repro.query.canonical.CanonicalMemo`), so the WL+BnB
  canonicaliser runs once per class, not once per subgraph;
* :func:`motif_counts` — engine-based counts of every connected pattern
  with ``k`` vertices (non-induced embeddings; motif counting [52]);
* :func:`frequent_patterns` — the patterns whose instance count clears a
  support threshold, grown level-wise (frequent subgraph mining [36]).

The census is a first-class simulated workload: each machine walks the
roots it owns, compute ops land on its workers' clocks, remote adjacency
rows are pulled once per machine through the GetNbrs RPC (a perfect
per-machine cache, the LRBU limit case), and the run yields the standard
:class:`~repro.cluster.metrics.RunReport` plus optional obs spans.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Any

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.cost import TICKS_PER_OP
from ..cluster.metrics import RunReport
from ..core.engine import EngineConfig, HugeEngine
from ..core.kernels import adjacency_bitsets, induced_bitrows
from ..query.canonical import CanonicalMemo
from ..query.pattern import QueryGraph

__all__ = ["CensusResult", "connected_patterns", "frequent_patterns",
           "motif_census", "motif_counts"]

#: simulated op weights of the census walk, in ticks:
#: one op per vertex added to a partial subgraph, ``k`` ops to encode an
#: enumerated leaf, and ``k²`` extra ops when the class must be
#: canonicalised (a memo miss)
_OP_EXPAND = TICKS_PER_OP


@lru_cache(maxsize=None)
def connected_patterns(k: int) -> tuple[QueryGraph, ...]:
    """All non-isomorphic connected patterns on ``k`` vertices (k ≤ 5).

    Classes are deduplicated by :meth:`QueryGraph.canonical_key` — the
    same WL+BnB canonicaliser the census memo and the serving plan cache
    key on — and returned in a deterministic order (``motif{k}-{i}``).
    """
    if not 2 <= k <= 5:
        raise ValueError("pattern size must be between 2 and 5")
    all_edges = list(combinations(range(k), 2))
    seen: dict[str, QueryGraph] = {}
    for mask in range(1, 1 << len(all_edges)):
        edges = [e for i, e in enumerate(all_edges) if mask >> i & 1]
        q = QueryGraph(k, edges)
        if q.num_edges < k - 1 or not q.is_connected():
            continue
        if any(q.degree(v) == 0 for v in q.vertices()):
            continue
        key = q.canonical_key()
        if key not in seen:
            seen[key] = QueryGraph(k, edges, name=f"motif{k}-{len(seen)}")
    return tuple(seen.values())


@lru_cache(maxsize=None)
def census_class_names(k: int) -> dict[str, str]:
    """Canonical key → motif name for every connected k-vertex class."""
    return {p.canonical_key(): p.name for p in connected_patterns(k)}


@dataclass(frozen=True)
class CensusResult:
    """Outcome of one size-k motif census run."""

    k: int
    counts: dict[str, int]
    """Per-class census counts, keyed by motif name (``motif{k}-{i}``);
    every connected class appears, zero-count ones included."""
    class_keys: dict[str, str]
    """Motif name → canonical key (the memo/plan-cache key space)."""
    total_subgraphs: int
    """Number of connected k-subgraphs enumerated (= sum of counts)."""
    memo_hits: int
    canonical_calls: int
    """WL+BnB canonicaliser invocations — at most one per class seen."""
    report: RunReport

    @property
    def memo_hit_rate(self) -> float:
        """Fraction of classifications served from the memo."""
        total = self.memo_hits + self.canonical_calls
        return self.memo_hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        """JSON-serialisable view (CLI ``--json`` and bench records)."""
        return {
            "k": self.k,
            "counts": dict(self.counts),
            "class_keys": dict(self.class_keys),
            "total_subgraphs": self.total_subgraphs,
            "memo_hits": self.memo_hits,
            "canonical_calls": self.canonical_calls,
            "memo_hit_rate": self.memo_hit_rate,
            "report": self.report.as_dict(),
        }


def motif_census(cluster: Cluster, k: int,
                 memo: CanonicalMemo | None = None,
                 tracer=None) -> CensusResult:
    """Count every connected ``k``-subgraph of the data graph by class.

    ESU enumeration (Wernicke): each vertex ``v`` roots the subgraphs
    whose minimum vertex is ``v``, grown only through *exclusive*
    neighbours with id ``> v``, so every connected k-vertex set is
    enumerated exactly once.  Adjacency is bitset-packed
    (:func:`~repro.core.kernels.adjacency_bitsets`), making the walk's
    set algebra int-AND/OR; each leaf is classified through ``memo``
    (fresh per run unless shared by the caller), whose class closure
    guarantees the canonicaliser runs at most once per isomorphism
    class.

    Note the census counts **induced** occurrences — each vertex set
    once, under the class of its induced subgraph — whereas
    :func:`motif_counts` counts non-induced pattern embeddings through
    the engine; a triangle is one census subgraph but contains three
    (non-induced) wedges.
    """
    if not 2 <= k <= 5:
        raise ValueError("census size must be between 2 and 5")
    graph = cluster.graph
    metrics = cluster.metrics
    if memo is None:
        memo = CanonicalMemo()
    hits0, calls0 = memo.hits, memo.canonical_calls
    masks = adjacency_bitsets(graph)
    counts: dict[str, int] = {}
    total = 0

    traced = tracer is not None
    if traced:
        tracer.bind(metrics)
        prev_cluster_tracer, cluster.tracer = cluster.tracer, tracer

    try:
        for machine in range(cluster.num_machines):
            if traced:
                t0 = tracer.now(machine)
            roots = cluster.local_vertices(machine)
            workers = cluster.workers_per_machine
            per_worker = [0] * workers
            touched: set[int] = set()
            leaves_before = total

            for i, root in enumerate(roots):
                root = int(root)
                ops = 0
                sub = [root]
                touched.add(root)
                # candidate extensions: neighbours with id > root
                gt_root = -1 << (root + 1)
                ext0 = masks[root] & gt_root

                def extend(sub: list[int], nbh: int, ext: int) -> int:
                    nonlocal total
                    ops = 0
                    if len(sub) == k:
                        rows = induced_bitrows(masks, tuple(sorted(sub)))
                        misses = memo.canonical_calls
                        key = memo.key_for(k, rows)
                        ops += k * TICKS_PER_OP
                        if memo.canonical_calls > misses:
                            ops += k * k * TICKS_PER_OP
                            if traced:
                                tracer.instant("canon miss", machine,
                                               {"key": key})
                        counts[key] = counts.get(key, 0) + 1
                        total += 1
                        return ops
                    while ext:
                        low = ext & -ext
                        ext ^= low
                        w = low.bit_length() - 1
                        touched.add(w)
                        ops += _OP_EXPAND
                        excl = masks[w] & ~nbh & gt_root
                        sub.append(w)
                        ops += extend(sub, nbh | masks[w] | low, ext | excl)
                        sub.pop()
                    return ops

                ops += extend(sub, masks[root] | (1 << root), ext0)
                per_worker[i % workers] += ops

            metrics.charge_worker_ops(machine, per_worker)
            if traced:
                tracer.complete(
                    "census walk", machine, t0, tracer.now(machine),
                    {"roots": len(roots),
                     "subgraphs": total - leaves_before})
            # remote adjacency rows this machine read, pulled once each
            # (per-machine perfect cache) through the batched GetNbrs RPC
            ids = np.fromiter(touched, np.int64, len(touched))
            remote = ids[cluster.pgraph.owner[ids] != machine]
            if len(remote):
                if traced:
                    t0 = tracer.now(machine)
                cluster.pull(machine, remote)
                if traced:
                    tracer.complete("census fetch", machine, t0,
                                    tracer.now(machine),
                                    {"remote": len(remote)})
    finally:
        if traced:
            cluster.tracer = prev_cluster_tracer

    names = census_class_names(k)
    by_name = {name: 0 for name in names.values()}
    for key, count in counts.items():
        by_name[names[key]] = count
    return CensusResult(
        k=k,
        counts=by_name,
        class_keys={name: key for key, name in names.items()},
        total_subgraphs=total,
        memo_hits=memo.hits - hits0,
        canonical_calls=memo.canonical_calls - calls0,
        report=metrics.report(),
    )


def motif_counts(cluster: Cluster, k: int,
                 config: EngineConfig | None = None) -> dict[str, int]:
    """Count every ``k``-vertex motif with the HUGE engine.

    Returns pattern name → (non-induced, symmetry-broken) instance
    count.  Each motif is one subgraph enumeration query planned by
    Algorithm 1; this is the GPM loop of §6.
    """
    engine = HugeEngine(cluster, config)
    counts: dict[str, int] = {}
    for pattern in connected_patterns(k):
        result = engine.run(pattern)
        counts[pattern.name] = result.count
    return counts


def frequent_patterns(cluster: Cluster, max_size: int, min_support: int,
                      config: EngineConfig | None = None
                      ) -> list[tuple[QueryGraph, int]]:
    """Level-wise frequent subgraph mining.

    Grows patterns one vertex at a time (sizes 2 .. ``max_size``), keeping
    those with at least ``min_support`` instances.  Anti-monotonicity
    prunes: a size-``k`` pattern is only counted if some frequent
    size-``k−1`` pattern is a subgraph shape of it (checked structurally).
    """
    if max_size < 2:
        raise ValueError("max_size must be at least 2")
    engine = HugeEngine(cluster, config)
    frequent: list[tuple[QueryGraph, int]] = []
    for size in range(2, max_size + 1):
        level = []
        for pattern in connected_patterns(size):
            result = engine.run(pattern)
            if result.count >= min_support:
                level.append((pattern, result.count))
        if not level:
            break
        frequent.extend(level)
    return frequent
