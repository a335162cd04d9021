"""Canonical-form plan cache.

Algorithm 1 (the optimiser) is pure: its output depends only on the
pattern's *shape*, the data graph's statistics (through the cardinality
estimator) and the cluster size.  The service therefore plans each
pattern's **canonical form** (:meth:`QueryGraph.canonical_form`) and
caches the resulting :class:`~repro.core.plan.tree.ExecutionPlan`
keyed by::

    (canonical pattern key, dataset handle, |V_G|, |E_G|, num_machines)

so two isomorphic patterns — however their vertices are numbered — hit
the same entry, and a dataset swap or cluster resize misses as it must.
Plans are immutable at execution time (``translate`` builds fresh
operator state per run), so one cached plan can back many concurrent
executions.

The cache is a lock-guarded LRU that counts what only it can see —
inserts, overwrites, evictions.  Its hits and misses are the ``planned``
events' ``cache_hit`` field, counted by the service's registry (a
process worker looks plans up in its own cache, never in this one).
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from ..core.plan.tree import ExecutionPlan
from ..graph.graph import Graph

__all__ = ["PlanCacheStats", "PlanCache"]


class PlanCacheStats:
    """Thread-safe eviction/insert/overwrite counters.

    Every read goes through the stats lock: an unlocked ``as_dict`` can
    observe a torn snapshot (mid-update ``inserts``/``evictions``), which
    the concurrent-hammer regression test exercises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.evictions = 0
        self.inserts = 0
        self.overwrites = 0

    def as_dict(self) -> dict:
        with self._lock:
            return {"evictions": self.evictions, "inserts": self.inserts,
                    "overwrites": self.overwrites}


class PlanCache:
    """LRU cache of canonical-form execution plans."""

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("plan cache capacity must be positive")
        self.capacity = capacity
        self.stats = PlanCacheStats()
        self._lock = threading.Lock()
        self._plans: OrderedDict[tuple, ExecutionPlan] = OrderedDict()

    @staticmethod
    def key(canonical_key: str, dataset: str, graph: Graph,
            num_machines: int) -> tuple:
        """Cache key: canonical pattern × graph stats × cluster shape."""
        return (canonical_key, dataset, graph.num_vertices, graph.num_edges,
                num_machines)

    def get(self, key: tuple) -> ExecutionPlan | None:
        """Look up a plan, refreshing its recency."""
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
        return plan

    def put(self, key: tuple, plan: ExecutionPlan) -> None:
        """Insert a plan, evicting the least recently used beyond capacity.

        Overwriting an existing key counts as an ``overwrite``, not a
        fresh ``insert`` — concurrent executors racing the same miss
        used to inflate ``inserts`` past the number of distinct plans.
        """
        with self._lock:
            fresh = key not in self._plans
            if fresh and len(self._plans) >= self.capacity:
                self._plans.popitem(last=False)
                with self.stats._lock:
                    self.stats.evictions += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
        with self.stats._lock:
            if fresh:
                self.stats.inserts += 1
            else:
                self.stats.overwrites += 1

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def clear(self) -> None:
        with self._lock:
            self._plans.clear()
