"""Cost model for the simulated cluster.

The paper measures wall-clock total time ``T``, computation time ``T_R``,
communication time ``T_C = T − T_R``, transferred volume ``C`` and peak
memory ``M`` on a real 10-machine cluster (Table 1).  This reproduction
executes all algorithmic work for real but derives *time* from counted
operations and bytes through the weights below.

Defaults model the paper's local cluster: 4 workers per machine, a 10 Gbps
network (1.25 GB/s), ~100 µs per message, and a per-request overhead for
the external key-value store (the Cassandra stand-in) that is orders of
magnitude above a local adjacency access — the effect the paper blames for
BENU's poor computation time.

All ``*_op`` weights are in abstract *ops*; ``compute_rate`` converts ops
to seconds.  Changing the rate rescales every engine identically, so the
comparative results (who wins, by what factor) are rate-invariant.

**Ticks.**  The ledger never holds a float.  Compute work is charged in
integer *ticks* of ``1 / TICKS_PER_OP`` op: every weight is rounded to
ticks once (:attr:`CostModel.ticks`), the one irrational factor of the
model — ``log2(other + 2)`` per galloping probe — is rounded to ticks
once per list length (:meth:`CostModel.probe_tick_table`), and counts
multiply those integers.  Integer sums are exact in any order, so a
charge means the same whether it is made per tuple, per batch or as one
array reduction; seconds exist only where a total is read
(:meth:`CostModel.ticks_to_seconds`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

__all__ = ["CostModel", "TICKS_PER_OP", "TickWeights", "to_ticks"]

#: Ledger resolution: ticks per abstract op.  A power of two, so the
#: default weights (all dyadic) are represented exactly; at 2^16 an int64
#: holds more than 10^14 ops.
TICKS_PER_OP = 1 << 16


def to_ticks(ops: float) -> int:
    """``ops`` rounded to the nearest whole tick."""
    return round(ops * TICKS_PER_OP)


class TickWeights(NamedTuple):
    """The ``*_op`` weights of a :class:`CostModel` in integer ticks."""

    scan: int
    intersect: int
    emit: int
    hash_build: int
    hash_probe: int
    sort: int
    sched_switch: int
    batch_overhead: int
    cache_copy_per_id: int
    cache_lock: int
    cache_update: int
    kvstore_access: int


@dataclass(frozen=True)
class CostModel:
    """Weights translating counted work into simulated time."""

    # -- computation (ops) ---------------------------------------------------
    compute_rate: float = 1.0e7
    """Weighted ops each machine retires per second."""

    scan_op: float = 1.0
    """Per edge touched while scanning the local partition."""

    intersect_op: float = 0.25
    """Per adjacency element consumed by a (multi-way) intersection.
    Cheaper than ``emit_op``: intersections are tight scans over
    contiguous sorted arrays, while emits construct and copy tuples."""

    emit_op: float = 1.0
    """Per vertex-id materialised into an output tuple."""

    hash_build_op: float = 2.0
    """Per tuple inserted into a hash-join table."""

    hash_probe_op: float = 2.0
    """Per hash-join probe."""

    sort_op: float = 3.0
    """Per tuple·pass during external merge sort (spill path)."""

    sched_switch_op: float = 2.0e3
    """Per operator (re)schedule event — the synchronisation barrier that
    makes very small output queues (DFS-style scheduling) slow (Exp-7)."""

    batch_overhead_op: float = 50.0
    """Fixed overhead per batch processed by an operator."""

    # -- cache penalties (Table 5 ablations) ----------------------------------
    cache_copy_op_per_id: float = 0.5
    """Memory-copy cost per neighbour id copied out of a copying cache."""

    cache_lock_op: float = 60.0
    """Lock acquire/release cost per access to a locking cache."""

    cache_update_op: float = 8.0
    """Cache bookkeeping (position update) per access for LRU-style caches."""

    # -- network ---------------------------------------------------------------
    bandwidth_bytes_per_s: float = 4.0e7
    """Effective link speed.  The paper's cluster has a 10 Gbps network;
    the default here is scaled down with the stand-in graph sizes so that
    volume-driven costs keep the same *relative* weight against compute
    as at paper scale (see DESIGN.md §2)."""

    latency_s: float = 1.0e-5
    """One-way per-message latency (send-side charge)."""

    bytes_per_id: int = 8
    """Wire size of one vertex id."""

    rpc_request_overhead_bytes: int = 64
    """Fixed envelope per RPC request message."""

    # -- external key-value store (BENU's Cassandra) ---------------------------
    kvstore_request_s: float = 4.0e-4
    """Client-side stall per KV request (round trip through the external
    store); charged as *computation* time — matching the paper's
    observation that BENU's pulling overhead lands in ``T_R``."""

    kvstore_access_op: float = 2000.0
    """Serialisation/deserialisation ops per KV request."""

    # -- budgets ----------------------------------------------------------------
    memory_budget_bytes: float = float("inf")
    """Per-machine memory budget; exceeding it raises ``OutOfMemoryError``
    (the paper's 00M).  Benchmarks set this relative to graph size."""

    time_budget_s: float = float("inf")
    """Simulated wall-clock budget; exceeding it raises ``OvertimeError``
    (the paper's 0T — "we allow 3 hours for each query")."""

    def with_overrides(self, **kwargs: float) -> "CostModel":
        """A copy of this model with the given fields replaced."""
        return replace(self, **kwargs)

    @cached_property
    def ticks(self) -> TickWeights:
        """Every ``*_op`` weight rounded to ticks — once, here."""
        return TickWeights(
            scan=to_ticks(self.scan_op),
            intersect=to_ticks(self.intersect_op),
            emit=to_ticks(self.emit_op),
            hash_build=to_ticks(self.hash_build_op),
            hash_probe=to_ticks(self.hash_probe_op),
            sort=to_ticks(self.sort_op),
            sched_switch=to_ticks(self.sched_switch_op),
            batch_overhead=to_ticks(self.batch_overhead_op),
            cache_copy_per_id=to_ticks(self.cache_copy_op_per_id),
            cache_lock=to_ticks(self.cache_lock_op),
            cache_update=to_ticks(self.cache_update_op),
            kvstore_access=to_ticks(self.kvstore_access_op),
        )

    def ticks_to_seconds(self, ticks: int) -> float:
        """Seconds of simulated compute for a tick total — the one place
        ledger integers become a float."""
        return ticks / (TICKS_PER_OP * self.compute_rate)

    def probe_tick_table(self, max_len: int) -> np.ndarray:
        """Ticks per galloping probe into a sorted list of each length.

        Entry ``d`` is ``log2(d + 2) · intersect_op`` rounded to ticks:
        what one element of the smallest list pays to binary-search a
        list of ``d`` ids.  Built once per graph (``max_len`` = its
        maximum degree) and shared by every intersect path, so they
        agree tick for tick.
        """
        d = np.arange(max_len + 1, dtype=np.float64)
        return np.rint(np.log2(d + 2.0) * (self.intersect_op * TICKS_PER_OP)
                       ).astype(np.int64)

    def intersection_ops(self, lengths: "list[int]",
                         probe_ticks: np.ndarray | None = None) -> int:
        """Ticks of a multiway sorted-set intersection with galloping.

        Worst-case-optimal engines iterate the smallest list and
        binary-search the others, so a hub×small intersection costs
        ``O(small · log(hub))`` — not ``O(hub)``.  This asymmetry (versus
        hash joins that must *materialise* the hub's star) is what makes
        wco joins win on skewed graphs.  A single "list" is a plain
        candidate scan.  ``probe_ticks`` is a prebuilt
        :meth:`probe_tick_table` covering the lengths.
        """
        if not lengths:
            return 0
        ordered = sorted(lengths)
        if probe_ticks is None:
            probe_ticks = self.probe_tick_table(ordered[-1])
        return ordered[0] * (self.ticks.intersect + sum(
            int(probe_ticks[other]) for other in ordered[1:]))

    def transfer_seconds(self, num_bytes: float, messages: int) -> float:
        """Seconds to move ``num_bytes`` across ``messages`` sends."""
        return num_bytes / self.bandwidth_bytes_per_s + messages * self.latency_s
