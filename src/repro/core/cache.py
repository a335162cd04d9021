"""LRBU cache (paper Algorithm 3) and the Table 5 ablation variants.

The pulling-based ``PULL-EXTEND`` operator caches remote adjacency lists.
The paper's **LRBU** (least-recent-batch-used) cache achieves lock-free and
zero-copy access through three structures:

* ``M_cache`` — vertex → neighbours map;
* ``S_free`` — an *ordered set* of evictable vertices (smallest order is
  evicted first; vertices released after a batch get an order larger than
  all existing entries, so eviction removes least-recent-batch entries);
* ``S_sealed`` — vertices pinned by the in-flight batch; never evicted.

``Insert`` may overflow capacity when ``S_free`` is empty, but by
construction the overflow never exceeds the number of distinct remote
vertices in one batch (tested invariant).

The ablation variants of Exp-6 differ only in the *access penalty* they
charge per read (memory copy, locking, LRU bookkeeping) and, for
``Cncr-LRU``, in disabling the two-stage execution (per-miss RPCs instead
of one aggregated fetch per batch).  All variants store real data and
return real adjacency arrays — penalties are cost-model charges, not
behavioural changes.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..cluster.cost import CostModel

__all__ = [
    "LRBUCache",
    "LRUCache",
    "CacheStats",
    "make_cache",
    "CACHE_VARIANTS",
]


class CacheStats:
    """Hit/miss/eviction/overflow counters for one cache instance.

    When bound to a :class:`~repro.cluster.metrics.Metrics` via
    :meth:`bind`, every :meth:`count` call is forwarded to
    ``Metrics.record_cache`` so the per-cache counters and the run-level
    ``RunReport`` hit rate are the same numbers by construction.
    """

    __slots__ = ("hits", "misses", "evictions", "max_overflow_ids",
                 "_metrics", "_machine")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.max_overflow_ids = 0
        self._metrics = None
        self._machine = 0

    def bind(self, metrics, machine: int) -> None:
        """Mirror all subsequent hit/miss counts into ``metrics``."""
        self._metrics = metrics
        self._machine = machine

    def count(self, hits: int = 0, misses: int = 0) -> None:
        """Record accesses — the single entry point for hit/miss accounting."""
        self.hits += hits
        self.misses += misses
        if self._metrics is not None:
            self._metrics.record_cache(self._machine, hits=hits, misses=misses)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LRBUCache:
    """The least-recent-batch-used cache of Algorithm 3.

    Parameters
    ----------
    capacity_ids:
        Capacity in vertex-id units (an entry of ``d`` neighbours occupies
        ``d + 1`` units).  ``None`` means unbounded.
    copy_penalty / lock_penalty:
        Extra per-access op charges for the ``LRBU-Copy`` / ``LRBU-Lock``
        ablations; the plain LRBU charges neither (zero-copy, lock-free).
    cost:
        Cost model supplying the penalty weights.
    """

    #: whether PULL-EXTEND may use the two-stage (batched-fetch) strategy
    supports_two_stage = True

    def __init__(self, capacity_ids: int | None, cost: CostModel,
                 copy_penalty: bool = False, lock_penalty: bool = False):
        self._capacity = capacity_ids
        self._cost = cost
        self._copy = copy_penalty
        self._lock = lock_penalty
        self._data: dict[int, np.ndarray] = {}
        self._entry_ids: dict[int, int] = {}
        self._size_ids = 0
        self._free: OrderedDict[int, None] = OrderedDict()
        self._sealed: set[int] = set()
        self.stats = CacheStats()

    # -- Algorithm 3 methods -----------------------------------------------------

    def contains(self, vid: int) -> bool:
        """Read-only membership test (lock-free in the real system)."""
        return vid in self._data

    def get(self, vid: int) -> np.ndarray:
        """Read-only lookup; returns the stored adjacency array by reference.

        Returns the access-penalty ops the caller must charge (0 for plain
        LRBU) via :meth:`access_penalty` — callers combine the two so the
        data path stays allocation-free.
        """
        return self._data[vid]

    def access_penalty(self, length):
        """Ticks charged per :meth:`get` of an entry of ``length``
        neighbours under this variant's ablation.  A function of the
        variant and the length alone (an int, or an array of lengths for
        a whole batch's reads), never of the cache's contents."""
        t = self._cost.ticks
        penalty = 0
        if self._copy:
            penalty += (length + 1) * t.cache_copy_per_id
        if self._lock:
            penalty += t.cache_lock
        return penalty

    def insert(self, vid: int, neighbours: np.ndarray) -> None:
        """Insert a fetched entry, evicting least-recent-batch entries while
        the cache is full and ``S_free`` is non-empty (Algorithm 3 lines 5-8).

        The new entry enters ``S_sealed``: a vertex is only ever fetched
        because the in-flight batch needs it (Algorithm 4 lines 8-9), so it
        is pinned until the batch's ``release``.  The cache may therefore
        overflow capacity, but never by more than the footprint of one
        batch's remote vertices (§4.4).
        """
        if vid in self._data:
            # re-fetching means the batch needs it: pin it again (keeping
            # the stored data), then shed any overflow left over from a
            # previous batch — without this, the early return skips the
            # eviction loop and stale overflow persists past the §4.4
            # bound of one batch's pinned footprint
            self._free.pop(vid, None)
            self._sealed.add(vid)
            if self._capacity is not None:
                while self._size_ids > self._capacity and self._free:
                    victim, _ = self._free.popitem(last=False)
                    self._size_ids -= self._entry_ids.pop(victim)
                    del self._data[victim]
                    self.stats.evictions += 1
            return
        entry_ids = len(neighbours) + 1
        if self._capacity is not None:
            while self._size_ids + entry_ids > self._capacity and self._free:
                victim, _ = self._free.popitem(last=False)
                self._size_ids -= self._entry_ids.pop(victim)
                del self._data[victim]
                self.stats.evictions += 1
        self._data[vid] = neighbours
        self._entry_ids[vid] = entry_ids
        self._size_ids += entry_ids
        self._sealed.add(vid)
        if self._capacity is not None and self._size_ids > self._capacity:
            overflow = self._size_ids - self._capacity
            if overflow > self.stats.max_overflow_ids:
                self.stats.max_overflow_ids = overflow

    def seal(self, vid: int) -> None:
        """Pin ``vid`` for the in-flight batch (Algorithm 3 lines 9-10)."""
        self._free.pop(vid, None)
        self._sealed.add(vid)

    def release(self) -> None:
        """Unpin all sealed vertices, appending them to ``S_free`` with
        orders larger than all existing entries (Algorithm 3 lines 11-14)."""
        for vid in sorted(self._sealed):
            if vid in self._data:
                self._free[vid] = None  # OrderedDict append = largest order
        self._sealed.clear()

    # -- introspection -----------------------------------------------------------

    @property
    def size_ids(self) -> int:
        """Current occupancy in vertex-id units."""
        return self._size_ids

    @property
    def capacity_ids(self) -> int | None:
        """Configured capacity in vertex-id units."""
        return self._capacity

    @property
    def num_sealed(self) -> int:
        """Number of currently sealed entries."""
        return len(self._sealed)

    def __len__(self) -> int:
        return len(self._data)


class LRUCache:
    """A classic LRU cache (the ``LRU-Inf`` and ``Cncr-LRU`` ablations).

    Charges copy + lock + LRU-bookkeeping penalties on every access.  With
    ``capacity_ids=None`` it is ``LRU-Inf`` (the "official Rust LRU library
    with capacity set to the maximum integer" of Exp-6).  ``Cncr-LRU``
    additionally disables two-stage execution (``supports_two_stage`` is
    false) and pays a contention penalty scaled by the worker count.
    """

    def __init__(self, capacity_ids: int | None, cost: CostModel,
                 concurrent: bool = False, workers: int = 1):
        self._capacity = capacity_ids
        self._cost = cost
        self._concurrent = concurrent
        self._workers = max(1, workers)
        self._data: OrderedDict[int, np.ndarray] = OrderedDict()
        self._entry_ids: dict[int, int] = {}
        self._size_ids = 0
        self.stats = CacheStats()

    @property
    def supports_two_stage(self) -> bool:
        """Cncr-LRU models the paper's no-two-stage baseline."""
        return not self._concurrent

    def contains(self, vid: int) -> bool:
        """Membership test (counted as an access for LRU bookkeeping).

        A positive probe refreshes the entry's recency — the modelled LRU
        treats every access as a position update, so ``contains`` must
        ``move_to_end`` or eviction would pick victims by a stale order.
        """
        if vid in self._data:
            self._data.move_to_end(vid)
            return True
        return False

    def get(self, vid: int) -> np.ndarray:
        """Lookup + move-to-back (the LRU position update)."""
        self._data.move_to_end(vid)
        return self._data[vid]

    def access_penalty(self, length):
        """Copy + lock + bookkeeping ticks per access of an entry of
        ``length`` neighbours (an int or an array of lengths — a bounded
        LRU may have evicted the entry before the batch's charges are
        summed, so the penalty never reads the stored data);
        contention-scaled for the concurrent variant."""
        t = self._cost.ticks
        penalty = (length + 1) * t.cache_copy_per_id
        lock = t.cache_lock
        if self._concurrent:
            # optimistic concurrent caches still serialise ~order-of-workers
            # bookkeeping under contention (paper cites ~30% of lock-free
            # read throughput)
            lock *= self._workers
        return penalty + lock + t.cache_update

    def insert(self, vid: int, neighbours: np.ndarray) -> None:
        """Insert with plain LRU eviction.

        Re-inserting a resident vid replaces the stored adjacency and
        re-accounts its occupancy (the old entry is retired first, so a
        stale array or stale ``_size_ids`` share can never linger), then
        refreshes recency like any other access.  The replacement itself
        is not counted as an eviction.
        """
        entry_ids = len(neighbours) + 1
        if vid in self._data:
            del self._data[vid]
            self._size_ids -= self._entry_ids.pop(vid)
        if self._capacity is not None:
            while self._size_ids + entry_ids > self._capacity and self._data:
                victim, _ = self._data.popitem(last=False)
                self._size_ids -= self._entry_ids.pop(victim)
                self.stats.evictions += 1
        self._data[vid] = neighbours
        self._entry_ids[vid] = entry_ids
        self._size_ids += entry_ids

    def seal(self, vid: int) -> None:
        """LRU has no pinning; sealing is a no-op."""

    def release(self) -> None:
        """LRU has no pinning; releasing is a no-op."""

    @property
    def size_ids(self) -> int:
        """Current occupancy in vertex-id units."""
        return self._size_ids

    @property
    def capacity_ids(self) -> int | None:
        """Configured capacity in vertex-id units."""
        return self._capacity

    def __len__(self) -> int:
        return len(self._data)


#: Names accepted by :func:`make_cache` (the Table 5 columns).
CACHE_VARIANTS = ("lrbu", "lrbu-copy", "lrbu-lock", "lru-inf", "cncr-lru")


def make_cache(variant: str, capacity_ids: int | None, cost: CostModel,
               workers: int = 1) -> LRBUCache | LRUCache:
    """Build a cache by ablation name (see :data:`CACHE_VARIANTS`)."""
    v = variant.lower()
    if v == "lrbu":
        return LRBUCache(capacity_ids, cost)
    if v == "lrbu-copy":
        return LRBUCache(capacity_ids, cost, copy_penalty=True)
    if v == "lrbu-lock":
        return LRBUCache(capacity_ids, cost, copy_penalty=True, lock_penalty=True)
    if v == "lru-inf":
        return LRUCache(None, cost)
    if v == "cncr-lru":
        return LRUCache(capacity_ids, cost, concurrent=True, workers=workers)
    raise ValueError(f"unknown cache variant {variant!r}; "
                     f"choose from {CACHE_VARIANTS}")
