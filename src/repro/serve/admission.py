"""Admission control against a global memory budget.

The engine's Theorem 5.4 bounds one query's queue memory by
``O(|V_q|² · D_G)``: every operator queue holds at most its configured
capacity plus the expansion of one in-flight batch, each tuple at most
``|V_q|`` ids wide.  The serving tier turns that bound into an
**admission reservation**: before a query is dispatched, its worst-case
footprint (queue bound + cache reservation + PUSH-JOIN buffers, per
machine, times the simulated cluster size) is reserved against a global
budget; the reservation is released when the query reaches a terminal
state — completed, cancelled, failed, *or crashed mid-run* — so the
ledger provably drains back to zero (the serving memory oracle asserts
this).

A request whose bound exceeds the whole budget can never run and is
rejected at submission; one that merely does not fit *right now* waits
in the queue until enough reservations drain.
"""

from __future__ import annotations

import threading

from ..cluster.cost import CostModel
from ..core.engine import EngineConfig
from ..graph.graph import Graph

__all__ = ["AdmissionStats", "AdmissionController", "estimate_query_bytes"]


def estimate_query_bytes(pattern_vertices: int, graph: Graph,
                         config: EngineConfig, num_machines: int,
                         cost: CostModel | None = None) -> float:
    """Worst-case memory footprint of one query, in budget bytes.

    Mirrors the conformance memory oracle's Theorem 5.4 bound
    (:mod:`repro.testing.oracles`): per machine, every of the ≤ ``|V_q|²``
    operator queues holds at most ``queue_capacity + batch · D_G`` tuples
    of ≤ ``|V_q|`` ids, plus the configured constant reservations (cache
    capacity, PUSH-JOIN buffers — at most ``|V_q|`` joins).  Pure-BFS
    configurations (infinite queues) void the theorem's premise; their
    bound falls back to one batch's expansion per queue so they remain
    admittable, while their actual usage stays the engine's concern.
    """
    cost = cost or CostModel()
    q = max(1, pattern_vertices)
    deg = max(1, graph.max_degree)
    bpi = cost.bytes_per_id
    capacity = config.output_queue_capacity
    if capacity == float("inf"):
        capacity = 0.0  # BFS: the queue-capacity premise is off (see above)
    # ≤ q² queues × (capacity + one batch's D_G-expansion) tuples, each
    # tuple at most |V_q| ids wide — the width factor is q, NOT deg
    # (a deg width overcharged high-degree graphs and undercharged
    # large patterns relative to the Theorem-5.4 oracle)
    queue_ids = (q * q) * q * (capacity + config.batch_size * deg)
    if config.cache_capacity_ids is not None:
        cache_ids = config.cache_capacity_ids
    else:
        graph_ids = 2 * graph.num_edges + graph.num_vertices
        cache_ids = max(1, int(config.cache_capacity_fraction * graph_ids))
    join_ids = q * 2 * config.join_buffer_tuples * q
    per_machine = (queue_ids + cache_ids + join_ids) * bpi
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
        self._cache_reserved = 0.0

    @property
    def reserved_bytes(self) -> float:
        """Currently reserved bytes across all dispatched queries."""
        return self._reserved

    @property
    def cache_reserved_bytes(self) -> float:
        """Portion of the ledger held by the result cache."""
        return self._cache_reserved

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
            snap["cache_reserved_bytes"] = self._cache_reserved
            return snap

    # -- result-cache accounting -------------------------------------
    #
    # The result cache charges its resident bytes through the same
    # ledger as query reservations, so cached results and in-flight
    # queries compete for one budget and the drained-ledger oracle
    # covers both.  Cache reservations never block (the cache evicts to
    # its own capacity before reserving); they are tracked separately
    # for metrics.

    def reserve_cache(self, nbytes: float) -> None:
        if nbytes < 0:
            raise ValueError("reservation must be non-negative")
        with self._lock:
            self._reserved += nbytes
            self._cache_reserved += nbytes
            if self._reserved > self.stats.peak_reserved_bytes:
                self.stats.peak_reserved_bytes = self._reserved

    def release_cache(self, nbytes: float) -> None:
        with self._lock:
            if nbytes > self._cache_reserved + 1e-6:
                self.stats.underflows += 1
            self._cache_reserved = max(0.0, self._cache_reserved - nbytes)
            self._reserved = max(0.0, self._reserved - nbytes)
