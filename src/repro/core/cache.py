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

The cache class *is* PULL-EXTEND's fetch policy: the operator hands a
batch's remote reads to :meth:`fetch` and charges what it reports.
:class:`LRBUCache` does Algorithm 4's sealed, aggregated fetch — one
``GetNbrs`` RPC per owner per batch — and serves four of Exp-6's five
variants, which differ only in the *access penalty* they charge per read
(memory copy, locking, LRU bookkeeping); :class:`LRUCache` does one cache
access per read and one RPC pair per miss, which is ``Cncr-LRU`` (and
BENU's local database cache).  Penalties are cost-model charges, not
behavioural changes: every variant tracks real residency, sizes and
eviction order, and a scalar ``insert``/``get`` stores and returns the
real adjacency array.
"""

from __future__ import annotations

from collections import OrderedDict, deque

import numpy as np

from ..cluster.cost import TICKS_PER_OP, CostModel

__all__ = [
    "LRBUCache",
    "LRUCache",
    "CacheStats",
    "make_cache",
    "CACHE_VARIANTS",
]


#: Algorithm 4's fetch-stage bookkeeping: ``contains`` + ``seal`` per
#: distinct remote vertex, and the single-writer insert per fetched id
_FETCH_SEAL_TICKS = 2 * TICKS_PER_OP
_FETCH_INSERT_TICKS = TICKS_PER_OP // 2


class CacheStats:
    """What only the cache observes: evictions and the worst overflow
    beyond capacity.  Hits and misses are the ledger's
    (``Metrics.record_cache``), counted by the fetch stage's caller."""

    __slots__ = ("evictions", "max_overflow_ids")

    def __init__(self) -> None:
        self.evictions = 0
        self.max_overflow_ids = 0


class LRBUCache:
    """The least-recent-batch-used cache of Algorithm 3.

    Parameters
    ----------
    capacity_ids:
        Capacity in vertex-id units (an entry of ``d`` neighbours occupies
        ``d + 1`` units).  ``None`` means unbounded.
    copy_penalty / lock_penalty / update_penalty:
        Extra per-access op charges: ``LRBU-Copy`` copies, ``LRBU-Lock``
        copies and locks, ``LRU-Inf`` (unbounded) also pays LRU's position
        update; the plain LRBU charges none (zero-copy, lock-free).
    cost:
        Cost model supplying the penalty weights.

    The bookkeeping is two id-indexed ``int64`` arrays (grown by doubling
    to cover the largest id seen): ``_entry[v]`` is the ids entry ``v``
    occupies (0 = absent) and ``_order[v]`` its position in ``S_free``
    (−1 = sealed or absent).  ``S_free`` itself is a deque of released
    blocks ``(base, ids)``: block entry ``i`` is live iff
    ``_order[ids[i]] == base + i``, so sealing an entry again makes its
    old place stale without touching the block; stale places are dropped
    when eviction reaches them (a cache lives for one run).

    Two APIs run on that one state.  The scalar Algorithm-3 methods
    (:meth:`contains` / :meth:`get` / :meth:`insert` / :meth:`seal`) are
    the paper's interface, one vertex at a time, adjacency handed back;
    no engine path calls them — they are the reference
    ``tests/test_cache.py`` replays the bulk form against.  :meth:`fetch` is
    PULL-EXTEND's fetch stage, built from the bulk methods
    (:meth:`resident` / :meth:`seal_many` / :meth:`admit`): one array
    call each per batch.  ``M_cache``'s *values* are kept for scalar
    ``insert``/``get`` only — bulk admission records an entry's size and
    no value, because the columnar intersect stage reads adjacency from
    the CSR (cached remote adjacency is the same data by construction).
    """

    def __init__(self, capacity_ids: int | None, cost: CostModel,
                 copy_penalty: bool = False, lock_penalty: bool = False,
                 update_penalty: bool = False):
        self._capacity = capacity_ids
        self._cost = cost
        self._copy = copy_penalty
        self._lock = lock_penalty
        self._update = update_penalty
        self._values: dict[int, np.ndarray] = {}
        self._entry = np.zeros(0, dtype=np.int64)
        self._order = np.zeros(0, dtype=np.int64)
        self._free: deque[tuple[int, np.ndarray]] = deque()
        self._next_order = 0
        #: ``S_sealed``: disjoint arrays of the ids pinned since the last
        #: release, one per seal/admit call
        self._pinned: list[np.ndarray] = []
        self._size_ids = 0
        self.stats = CacheStats()

    def _cover(self, top: int) -> None:
        """Grow the id-indexed arrays (doubling) so id ``top`` indexes."""
        have = len(self._entry)
        if top < have:
            return
        size = max(top + 1, 2 * have, 64)
        entry = np.zeros(size, dtype=np.int64)
        order = np.full(size, -1, dtype=np.int64)
        entry[:have], order[:have] = self._entry, self._order
        self._entry, self._order = entry, order

    def _evict(self, incoming: int) -> None:
        """Shed least-recent-batch entries until ``incoming`` more ids fit
        or ``S_free`` is exhausted (Algorithm 3 lines 5-8).  The victims
        are the shortest prefix of ``S_free`` whose live sizes reach the
        excess: per head block one ``cumsum`` and one ``searchsorted``."""
        if self._capacity is None:
            return
        excess = self._size_ids + incoming - self._capacity
        entry, order, free = self._entry, self._order, self._free
        while excess > 0 and free:
            base, ids = free[0]
            live = order[ids] == base + np.arange(len(ids))
            shed = np.cumsum(entry[ids] * live)
            # entries consumed from the block: up to and including the
            # first whose running live size reaches the excess
            cut = min(int(np.searchsorted(shed, excess, "left")) + 1,
                      len(ids))
            if cut == len(ids):
                free.popleft()
            else:
                free[0] = (base + cut, ids[cut:])
            victims = ids[:cut][live[:cut]]
            entry[victims] = 0
            order[victims] = -1
            if self._values:
                for vid in victims.tolist():
                    self._values.pop(vid, None)
            freed = int(shed[cut - 1])
            self._size_ids -= freed
            self.stats.evictions += len(victims)
            excess -= freed

    # -- Algorithm 3 methods -----------------------------------------------------

    def contains(self, vid: int) -> bool:
        """Read-only membership test (lock-free in the real system)."""
        return vid < len(self._entry) and bool(self._entry[vid])

    def get(self, vid: int) -> np.ndarray:
        """Read-only lookup; returns the adjacency array a scalar
        :meth:`insert` stored, by reference (``KeyError`` for an entry
        that is absent or was admitted in bulk, which stores no value).
        What the access costs under this variant is
        :meth:`access_penalty`, charged by the caller."""
        return self._values[vid]

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
        if self._update:
            penalty += t.cache_update
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
        if self.contains(vid):
            # re-fetching means the batch needs it: pin it again (keeping
            # the stored data, if a scalar insert stored any), then shed
            # any overflow left over from a previous batch — stale
            # overflow must not persist past the §4.4 bound of one
            # batch's pinned footprint
            self._values.setdefault(vid, neighbours)
            self.seal(vid)
            self._evict(0)
            return
        self._values[vid] = neighbours
        self.admit(np.array([vid], dtype=np.int64),
                   np.array([len(neighbours) + 1], dtype=np.int64))

    def seal(self, vid: int) -> None:
        """Pin ``vid`` for the in-flight batch (Algorithm 3 lines 9-10)."""
        if self.contains(vid) and self._order[vid] >= 0:
            self._order[vid] = -1
            self._pinned.append(np.array([vid], dtype=np.int64))

    def release(self) -> None:
        """Unpin all sealed vertices, appending them to ``S_free`` in
        ascending id order with orders larger than all existing entries
        (Algorithm 3 lines 11-14): one block, one stamp."""
        if self._pinned:
            ids = np.sort(np.concatenate(self._pinned))
            base = self._next_order
            self._order[ids] = base + np.arange(len(ids))
            self._free.append((base, ids))
            self._next_order = base + len(ids)
            self._pinned = []

    # -- PULL-EXTEND's fetch stage and its bulk methods -----------------------------

    def fetch(self, cluster, machine: int, reads: np.ndarray):
        """Algorithm 4's fetch stage for one batch on ``machine``: seal
        the resident ones of the batch's distinct remote vertices, pull
        the rest with one aggregated ``GetNbrs`` per owner, admit them.

        ``reads`` holds one id per remote read; only the *set* matters.
        Every hit is sealed before any miss is inserted, victims are a
        prefix of ``S_free`` whose length depends on the misses' total
        size alone (:meth:`admit`), :meth:`release` re-files the batch by
        ascending id, and the ledger takes integer sums — so which
        entries are evicted, and every charge, are functions of the
        distinct ids.

        Returns ``(hits, misses, ticks, lost)``: distinct ids found and
        fetched, the stage's bookkeeping ticks, and the batch's ids *not*
        resident now — sealing forbids any; the operator asserts it.
        """
        # a sort and a first-occurrence mask, as in ``graph.edge_rows``
        # (``np.unique`` takes a hash pass on int64)
        remote = np.sort(reads)
        first = np.ones(len(remote), dtype=bool)
        first[1:] = remote[1:] != remote[:-1]
        remote = remote[first]
        hit = self.resident(remote)
        self.seal_many(remote[hit])
        missed = remote[~hit]
        sizes = cluster.pull(machine, missed)
        self.admit(missed, sizes)
        ticks = (len(remote) * _FETCH_SEAL_TICKS
                 + int(sizes.sum()) * _FETCH_INSERT_TICKS)
        return (len(remote) - len(missed), len(missed), ticks,
                remote[~self.resident(remote)])

    def resident(self, ids: np.ndarray) -> np.ndarray:
        """Boolean mask: which of ``ids`` have an entry.  Reads only."""
        if len(ids):
            self._cover(int(ids.max()))
        return self._entry[ids] > 0

    def seal_many(self, ids: np.ndarray) -> None:
        """:meth:`seal` every one of the distinct resident ``ids``."""
        ids = ids[self._order[ids] >= 0]
        if len(ids):
            self._order[ids] = -1
            self._pinned.append(ids)

    def admit(self, ids: np.ndarray, sizes: np.ndarray) -> None:
        """Insert + seal the distinct absent ``ids``, entry ``i``
        occupying ``sizes[i]`` ids, as one step.

        Equal to :meth:`insert` one id at a time, in any order: the new
        entries are pinned, so victims come only from ``S_free`` as it
        stood before the call and are always a *prefix* of it; insert
        ``i`` evicts until ``size₀ + Σ_{j≤i} s_j − shed ≤ capacity`` and
        that prefix only grows with ``i``, so the final prefix is the
        shortest one whose shed ids reach ``size₀ + Σ s − capacity`` — a
        function of the sizes' sum.  Overflow is ≤ 0 until ``S_free`` is
        exhausted and only rises after, so the worst overflow of the
        sequence is the final one.
        """
        if not len(ids):
            return
        self._cover(int(ids.max()))
        total = int(sizes.sum())
        self._evict(total)
        self._entry[ids] = sizes
        self._pinned.append(ids)
        self._size_ids += total
        if self._capacity is not None:
            self.stats.max_overflow_ids = max(
                self.stats.max_overflow_ids, self._size_ids - self._capacity)

    # -- introspection -----------------------------------------------------------

    def free_order(self) -> list[int]:
        """``S_free`` from next victim to last (test/debug view)."""
        return [vid for base, ids in self._free for i, vid
                in enumerate(ids.tolist()) if self._order[vid] == base + i]

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
        return sum(map(len, self._pinned))

    def __len__(self) -> int:
        return int(np.count_nonzero(self._entry))


class LRUCache:
    """A classic LRU cache touched once per adjacency read: the
    ``Cncr-LRU`` ablation and BENU's local database cache.

    Charges copy + lock + LRU-bookkeeping penalties on every access;
    ``concurrent`` (``Cncr-LRU``) scales the lock by the worker count.
    Only the scalar API exists here — LRU order is a function of the
    access sequence, so :meth:`fetch` replays a batch read by read.
    (``LRU-Inf`` is not this class: an unbounded LRU never evicts, so its
    order is unobservable and it is :class:`LRBUCache` with capacity
    ``None`` charging these penalties.)
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

    def fetch(self, cluster, machine: int, reads: np.ndarray):
        """The per-access fetch stage for one batch on ``machine``: every
        remote read is its own cache access, in the row-major order a
        tuple-at-a-time loop issues them.  A hit refreshes the entry's
        recency; a miss pulls that one vertex with its own RPC pair and
        inserts it, evicting as LRU dictates.  Nothing is aggregated or
        sealed — a bounded LRU may evict one of the batch's own entries
        mid-batch; that is the model — so there are no bookkeeping ticks
        and nothing to lose.  Returns as :meth:`LRBUCache.fetch`, counting
        accesses instead of distinct ids.
        """
        misses = 0
        for u in reads.tolist():
            if not self.contains(u):
                cluster.pull(machine, np.array([u]))
                self.insert(u, cluster.graph.neighbours(u))
                misses += 1
        return len(reads) - misses, misses, 0, reads[:0]

    def release(self) -> None:
        """End-of-batch hook; LRU pins nothing."""

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
        # unbounded => no eviction => LRU order unobservable: LRBU's
        # batched stage, LRU's copy + lock + position-update penalties
        return LRBUCache(None, cost, copy_penalty=True, lock_penalty=True,
                         update_penalty=True)
    if v == "cncr-lru":
        return LRUCache(capacity_ids, cost, concurrent=True, workers=workers)
    raise ValueError(f"unknown cache variant {variant!r}; "
                     f"choose from {CACHE_VARIANTS}")
