"""Admission control against a global memory budget.

The engine's Theorem 5.4 bounds one query's memory per machine by
``O(|V_q|² · D_G)`` (:func:`~repro.core.scheduler.memory_bound_bytes`).
The serving tier turns that bound into an **admission reservation**:
before a query is dispatched, its worst-case footprint (queue bound +
cache reservation + PUSH-JOIN buffers, per machine, times the simulated
cluster size) is reserved against a global budget; the reservation is
released when the query reaches a terminal state — completed,
cancelled, failed, *or crashed mid-run* — so the ledger provably drains
back to zero (the serving memory oracle asserts this).

A request whose bound exceeds the whole budget can never run and is
rejected at submission; one that merely does not fit *right now* waits
in the queue until enough reservations drain.
"""

from __future__ import annotations

import threading

from ..cluster.cost import CostModel
from ..core.engine import EngineConfig
from ..core.scheduler import memory_bound_bytes
from ..graph.graph import Graph

__all__ = ["AdmissionStats", "AdmissionController", "estimate_query_bytes"]


def estimate_query_bytes(pattern_vertices: int, graph: Graph,
                         config: EngineConfig, num_machines: int,
                         cost: CostModel | None = None) -> float:
    """Worst-case memory footprint of one query, in budget bytes.

    :func:`~repro.core.scheduler.memory_bound_bytes` per machine — the
    function the conformance memory oracle checks runs against — with
    the configured cache reservation and at most ``|V_q|`` PUSH-JOINs,
    times the machines.  Pure-BFS configurations (infinite queues) void
    the theorem's premise; their bound falls back to one batch's
    expansion per queue so they remain admittable, while their actual
    usage stays the engine's concern.
    """
    cost = cost or CostModel()
    capacity = config.output_queue_capacity
    if capacity == float("inf"):
        capacity = 0.0  # BFS: the queue-capacity premise is off (see above)
    if config.cache_capacity_ids is not None:
        cache_ids = config.cache_capacity_ids
    else:
        graph_ids = 2 * graph.num_edges + graph.num_vertices
        cache_ids = max(1, int(config.cache_capacity_fraction * graph_ids))
    per_machine = memory_bound_bytes(
        pattern_vertices, graph.max_degree, capacity, config.batch_size,
        cache_ids, max(1, pattern_vertices), config.join_buffer_tuples,
        cost.bytes_per_id)
    return per_machine * num_machines


class AdmissionStats:
    """What only the ledger observes (rejections are the service's
    ``rejected`` events, counted in its registry)."""

    def __init__(self) -> None:
        self.admitted = 0
        self.releases = 0
        self.underflows = 0
        self.peak_reserved_bytes = 0.0

    def as_dict(self) -> dict:
        return {"admitted": self.admitted, "releases": self.releases,
                "underflows": self.underflows,
                "peak_reserved_bytes": self.peak_reserved_bytes}


class AdmissionController:
    """Global memory-budget ledger for in-flight queries."""

    def __init__(self, budget_bytes: float = float("inf")):
        if budget_bytes <= 0:
            raise ValueError("budget must be positive")
        self.budget_bytes = budget_bytes
        self.stats = AdmissionStats()
        self._lock = threading.Lock()
        self._reserved = 0.0

    @property
    def reserved_bytes(self) -> float:
        """Currently reserved bytes across all dispatched queries."""
        return self._reserved

    def admissible(self, nbytes: float) -> bool:
        """Whether a reservation of this size could *ever* be granted."""
        return nbytes <= self.budget_bytes

    def fits_now(self, nbytes: float) -> bool:
        """Whether the reservation fits the currently free budget."""
        return self._reserved + nbytes <= self.budget_bytes

    def try_reserve(self, nbytes: float) -> bool:
        """Atomically reserve ``nbytes`` if they fit; ``False`` otherwise."""
        if nbytes < 0:
            raise ValueError("reservation must be non-negative")
        with self._lock:
            if self._reserved + nbytes > self.budget_bytes:
                return False
            self._reserved += nbytes
            self.stats.admitted += 1
            if self._reserved > self.stats.peak_reserved_bytes:
                self.stats.peak_reserved_bytes = self._reserved
            return True

    def release(self, nbytes: float) -> None:
        """Return a reservation to the budget.

        Releasing more than is reserved indicates a double-release bug;
        like the engine's :meth:`Metrics.free` the balance is clamped but
        the violation is observable (``reserved_bytes`` would go negative
        otherwise — the serving oracle checks the drained ledger is 0).
        """
        with self._lock:
            if nbytes > self._reserved + 1e-6:
                self.stats.underflows += 1
            self._reserved = max(0.0, self._reserved - nbytes)
            self.stats.releases += 1

    def stats_snapshot(self) -> dict:
        """Atomic snapshot of the admission counters.

        The counters are mutated under the controller lock, so an
        unlocked ``stats.as_dict()`` can observe a torn state (e.g. an
        ``admitted`` increment without the matching ``peak`` update).
        """
        with self._lock:
            snap = self.stats.as_dict()
            snap["reserved_bytes"] = self._reserved
            return snap
