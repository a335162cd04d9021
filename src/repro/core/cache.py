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

One cache object holds *every* machine's cache: each machine's state is
its own row, so machines never share an entry, an order or a victim.
The cache class *is* PULL-EXTEND's fetch policy: the operator hands a
stacked step's extend block ``rows[:, ext]``, with the rows' machine
column, to :meth:`fetch` — a cell is a remote read when another machine
owns its vertex — and charges what it reports per machine.
:class:`LRBUCache` does Algorithm 4's sealed, aggregated fetch — one
pass over the block that seals the resident reads and lists the absent
ones (compiled where ``kernels.c`` loaded, numpy otherwise), then one
``GetNbrs`` RPC per (machine, owner) per batch — and serves four of
Exp-6's five variants, which differ only in the *access penalty* they
charge per read (memory copy, locking, LRU bookkeeping); :class:`LRUCache`
does one cache access per read and one RPC pair per miss, which is
``Cncr-LRU`` (and BENU's local database cache).  Penalties are cost-model
charges, not behavioural changes: every variant tracks real residency,
sizes and eviction order, and a scalar ``insert``/``get`` stores and
returns the real adjacency array.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict, deque

import numpy as np

from ..cluster.cost import TICKS_PER_OP, CostModel
from . import kernels

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
    """What only the cache observes, per machine: evictions and the worst
    overflow beyond capacity.  Hits and misses are the ledger's
    (``Metrics.record_cache``), counted by the fetch stage's caller."""

    __slots__ = ("evicted", "overflow")

    def __init__(self) -> None:
        self.evicted: Counter[int] = Counter()
        self.overflow: Counter[int] = Counter()

    @property
    def evictions(self) -> int:
        """Evictions summed over machines."""
        return sum(self.evicted.values())

    @property
    def max_overflow_ids(self) -> int:
        """The worst overflow of any machine."""
        return max(self.overflow.values(), default=0)


def _machine_column(machines, ids: np.ndarray) -> np.ndarray:
    """``machines`` (a machine id or one per entry — per row, for a
    block) as a column beside ``ids``."""
    return np.broadcast_to(np.asarray(machines, dtype=np.int64),
                           ids.shape[:1])


class LRBUCache:
    """The least-recent-batch-used cache of Algorithm 3, for every machine.

    Parameters
    ----------
    capacity_ids:
        Capacity per machine in vertex-id units (an entry of ``d``
        neighbours occupies ``d + 1`` units).  ``None`` means unbounded.
    copy_penalty / lock_penalty / update_penalty:
        Extra per-access op charges: ``LRBU-Copy`` copies, ``LRBU-Lock``
        copies and locks, ``LRU-Inf`` (unbounded) also pays LRU's position
        update; the plain LRBU charges none (zero-copy, lock-free).
    cost:
        Cost model supplying the penalty weights.

    The bookkeeping is two ``(k, |V|)`` ``int64`` arrays, flat-indexed by
    ``m·|V| + v`` and grown (ids by doubling) to cover the largest machine
    and id seen: ``_entry[m, v]`` is the ids entry ``v`` occupies on
    machine ``m`` (0 = absent) and ``_order[m, v]`` its position in that
    machine's ``S_free`` (−1 = sealed or absent).  Each machine's
    ``S_free`` is its own deque of released blocks ``(base, ids)``: block
    entry ``i`` is live iff ``_order[m, ids[i]] == base + i``, so sealing
    an entry again makes its old place stale without touching the block;
    stale places are dropped when eviction reaches them (a cache lives
    for one run).

    Two APIs run on that one state.  The scalar Algorithm-3 methods
    (:meth:`contains` / :meth:`get` / :meth:`insert` / :meth:`seal`, one
    vertex of one machine) are the paper's interface and the reference
    ``tests/test_cache.py`` replays the bulk form against; no engine path
    calls them.  :meth:`fetch` is PULL-EXTEND's fetch stage: one
    classification pass over the step's extend block (:meth:`_classify`,
    which seals the hits), then :meth:`admit` for the misses — one call
    each per stacked step.  Only a scalar
    ``insert`` stores a value: the intersect stage reads adjacency from
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
        self._values: dict[tuple[int, int], np.ndarray] = {}
        self._entry = np.zeros((1, 0), dtype=np.int64)
        self._order = np.zeros((1, 0), dtype=np.int64)
        self._free: defaultdict[int, deque] = defaultdict(deque)
        self._next_order: Counter[int] = Counter()
        #: ``S_sealed``: ``(machines, ids)`` pinned since the last release,
        #: one pair per seal/admit/fetch call, disjoint per machine
        self._pinned: list[tuple[np.ndarray, np.ndarray]] = []
        self._size: Counter[int] = Counter()
        self.stats = CacheStats()

    def _cover(self, machine: int, top: int) -> None:
        """Grow the state so machine ``machine`` and id ``top`` index."""
        k, have = self._entry.shape
        if machine < k and top < have:
            return
        rows = max(k, machine + 1)
        size = have if top < have else max(top + 1, 2 * have, 64)
        entry = np.zeros((rows, size), dtype=np.int64)
        order = np.full((rows, size), -1, dtype=np.int64)
        entry[:k, :have], order[:k, :have] = self._entry, self._order
        self._entry, self._order = entry, order

    def _evict(self, machine: int, excess: int) -> None:
        """Shed ``machine``'s least-recent-batch entries until ``excess``
        ids are freed or its ``S_free`` is exhausted (Algorithm 3 lines
        5-8).  The victims are the shortest prefix of ``S_free`` whose
        live sizes reach the excess: per head block one ``cumsum`` and
        one ``searchsorted``."""
        entry, order = self._entry[machine], self._order[machine]
        free = self._free[machine]
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
                    self._values.pop((machine, vid), None)
            freed = int(shed[cut - 1])
            self._size[machine] -= freed
            self.stats.evicted[machine] += len(victims)
            excess -= freed

    # -- Algorithm 3 methods -----------------------------------------------------

    def contains(self, vid: int, machine: int = 0) -> bool:
        """Read-only membership test (lock-free in the real system)."""
        k, n = self._entry.shape
        return machine < k and vid < n and bool(self._entry[machine, vid])

    def get(self, vid: int, machine: int = 0) -> np.ndarray:
        """Read-only lookup; returns the adjacency array a scalar
        :meth:`insert` stored, by reference (``KeyError`` for an entry
        that is absent or was admitted in bulk, which stores no value).
        What the access costs under this variant is
        :meth:`access_penalty`, charged by the caller."""
        return self._values[machine, vid]

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

    def insert(self, vid: int, neighbours: np.ndarray,
               machine: int = 0) -> None:
        """Insert a fetched entry, evicting least-recent-batch entries while
        the cache is full and ``S_free`` is non-empty (Algorithm 3 lines 5-8).

        The new entry enters ``S_sealed``: a vertex is only ever fetched
        because the in-flight batch needs it (Algorithm 4 lines 8-9), so it
        is pinned until the batch's ``release``.  The cache may therefore
        overflow capacity, but never by more than the footprint of one
        batch's remote vertices (§4.4).
        """
        if self.contains(vid, machine):
            # re-fetching means the batch needs it: pin it again (keeping
            # the stored data, if a scalar insert stored any), then shed
            # any overflow left over from a previous batch — stale
            # overflow must not persist past the §4.4 bound of one
            # batch's pinned footprint
            self._values.setdefault((machine, vid), neighbours)
            self.seal(vid, machine)
            if self._capacity is not None:
                self._evict(machine, self._size[machine] - self._capacity)
            return
        self._values[machine, vid] = neighbours
        self.admit(np.array([vid], dtype=np.int64),
                   np.array([len(neighbours) + 1], dtype=np.int64), machine)

    def seal(self, vid: int, machine: int = 0) -> None:
        """Pin ``vid`` for the in-flight batch (Algorithm 3 lines 9-10)."""
        if self.contains(vid, machine):
            self.seal_many(np.array([vid], dtype=np.int64), machine)

    def release(self) -> None:
        """Unpin all sealed vertices, appending each machine's to its
        ``S_free`` in ascending id order with orders larger than all its
        existing entries (Algorithm 3 lines 11-14): one block per machine,
        stamped in one pass."""
        if not self._pinned:
            return
        width = self._entry.shape[1]
        # the pinned keys are distinct, so any sort files them alike
        keys = np.sort(np.concatenate([m * width + v for m, v
                                       in self._pinned]))
        self._pinned = []
        ms, ids = np.divmod(keys, width)
        cuts = np.flatnonzero(ms[1:] != ms[:-1]) + 1
        starts = np.concatenate(([0], cuts))
        counts = np.diff(np.append(starts, len(ms)))
        bases = [self._next_order[m] for m in ms[starts].tolist()]
        self._order.reshape(-1)[keys] = (np.repeat(bases - starts, counts)
                                         + np.arange(len(keys)))
        for m, base, block in zip(ms[starts].tolist(), bases,
                                  np.split(ids, cuts)):
            self._free[m].append((base, block))
            self._next_order[m] = base + len(block)

    # -- PULL-EXTEND's fetch stage and its bulk methods -----------------------------

    def fetch(self, cluster, machines, block: np.ndarray):
        """Algorithm 4's fetch stage for one stacked step: ``block`` is the
        step's extend block ``rows[:, ext]``, row ``i`` machine
        ``machines[i]``'s (or ``machines``', one id), and a cell is a
        remote read when another machine owns its vertex.  Per machine,
        seal the resident ones of its distinct reads, pull the rest with
        one aggregated ``GetNbrs`` per owner, admit them.  Every hit is
        sealed before any miss is inserted, victims depend on the misses'
        total size alone (:meth:`admit`) and :meth:`release` re-files by
        ascending id, so evictions and charges are functions of the
        distinct ``(machine, id)`` pairs — as if each machine had fetched
        its batch alone.

        The classification (:meth:`_classify`) is one pass over the
        block: each remote read's key is classified where it is first
        met, a hit sealed on the spot, a miss listed for the pull.

        Returns ``(hits, misses, ticks, lost)``: per-machine arrays of the
        distinct ids found and fetched and the stage's bookkeeping ticks,
        and the ids this call sealed or admitted that are *not* resident
        now — sealing forbids any; the operator asserts it.
        """
        k = cluster.num_machines
        machines = _machine_column(machines, block)
        self._cover(k - 1, int(block.max()) if block.size else -1)
        seal_m, seal_v, miss_m, miss_v, hits, misses = self._classify(
            machines, block, cluster.pgraph.owner, k)
        if len(seal_v):
            self._pinned.append((seal_m, seal_v))
        sizes = cluster.pull(miss_m, miss_v)
        self.admit(miss_v, sizes, miss_m)
        ticks = ((hits + misses) * _FETCH_SEAL_TICKS
                 + np.bincount(miss_m, sizes, k).astype(np.int64)
                 * _FETCH_INSERT_TICKS)
        pinned_m = np.concatenate((seal_m, miss_m))
        pinned_v = np.concatenate((seal_v, miss_v))
        return hits, misses, ticks, pinned_v[
            self._entry[pinned_m, pinned_v] == 0]

    def _classify(self, machines: np.ndarray, block: np.ndarray,
                  owner: np.ndarray, k: int):
        """The fetch stage's pass over a step's extend block: seal every
        distinct remote read resident in ``S_free`` and list the absent
        ones.  Returns ``(seal_m, seal_v, miss_m, miss_v, hits,
        misses)``: the sealed and the missed ``(machine, id)`` keys as
        machine and id columns, and per machine the distinct hits (sealed
        now or before) and misses.

        ``classify_reads`` of ``kernels.c`` does it in one loop over the
        cells, marking a key it has met in ``_order`` (no third ``(k,
        |V|)`` array) and clearing the marks before it returns.  Where the
        library did not load the numpy program de-duplicates the flat
        keys ``m·|V| + v`` by a sort and a first-occurrence mask, as in
        ``graph.edge_rows`` (``np.unique`` takes a hash pass on int64).
        Both seal the same keys and list the same misses, in their own
        orders — :meth:`admit` and :meth:`release` do not read order.
        """
        if kernels._LIB is not None:
            return kernels._classify_compiled(machines, block, owner,
                                              self._entry, self._order, k)
        remote = owner[block] != machines[:, None]
        width = self._entry.shape[1]
        keys = np.sort((machines[:, None] * width + block)[remote])
        first = np.ones(len(keys), dtype=bool)
        first[1:] = keys[1:] != keys[:-1]
        keys = keys[first]
        hit = self._entry.reshape(-1)[keys] > 0
        order = self._order.reshape(-1)
        sealing = hit & (order[keys] >= 0)
        order[keys[sealing]] = -1
        ms, vs = np.divmod(keys, width)
        miss = ~hit
        return (ms[sealing], vs[sealing], ms[miss], vs[miss],
                np.bincount(ms[hit], minlength=k),
                np.bincount(ms[miss], minlength=k))

    def resident(self, ids: np.ndarray, machines=0) -> np.ndarray:
        """Boolean mask: which of ``ids`` have an entry on their machine
        (``machines``: one id, or one per entry).  Reads only."""
        ms = _machine_column(machines, ids)
        if len(ids):
            self._cover(int(ms.max()), int(ids.max()))
        return self._entry[ms, ids] > 0

    def seal_many(self, ids: np.ndarray, machines=0) -> None:
        """:meth:`seal` every one of the distinct resident ``ids``."""
        ms = _machine_column(machines, ids)
        keep = self._order[ms, ids] >= 0
        if keep.any():
            ms, ids = ms[keep], ids[keep]
            self._order[ms, ids] = -1
            self._pinned.append((ms, ids))

    def admit(self, ids: np.ndarray, sizes: np.ndarray, machines=0) -> None:
        """Insert + seal the distinct absent ``ids``, entry ``i``
        occupying ``sizes[i]`` ids, as one step.

        Per machine, equal to :meth:`insert` one id at a time, in any
        order: the new entries are pinned, so victims come only from
        ``S_free`` as it stood before the call and are always a *prefix*
        of it; insert ``i`` evicts until ``size₀ + Σ_{j≤i} s_j − shed ≤
        capacity`` and that prefix only grows with ``i``, so the final
        prefix is the shortest one whose shed ids reach ``size₀ + Σ s −
        capacity`` — a function of the sizes' sum.  Overflow is ≤ 0 until
        ``S_free`` is exhausted and only rises after, so the worst
        overflow of the sequence is the final one.  Only the admitting
        machines evict.
        """
        if not len(ids):
            return
        ms = _machine_column(machines, ids)
        self._cover(int(ms.max()), int(ids.max()))
        # weighted bincount sums in float64: exact for sizes below 2**53
        incoming = np.bincount(ms, sizes).astype(np.int64)
        cap = self._capacity
        for m in np.flatnonzero(incoming).tolist():
            size = self._size[m] + int(incoming[m])
            if cap is not None:
                self._evict(m, size - cap)
                size = self._size[m] + int(incoming[m])
                self.stats.overflow[m] = max(self.stats.overflow[m],
                                             size - cap)
            self._size[m] = size
        self._entry[ms, ids] = sizes
        self._pinned.append((ms, ids))

    # -- introspection -----------------------------------------------------------

    def free_order(self, machine: int = 0) -> list[int]:
        """A machine's ``S_free`` from next victim to last (test/debug
        view)."""
        order = self._order[machine]
        return [vid for base, ids in self._free[machine] for i, vid
                in enumerate(ids.tolist()) if order[vid] == base + i]

    def occupancy(self, machine: int) -> int:
        """A machine's occupancy in vertex-id units."""
        return self._size[machine]

    @property
    def size_ids(self) -> int:
        """Occupancy in vertex-id units, summed over machines."""
        return sum(self._size.values())

    @property
    def capacity_ids(self) -> int | None:
        """Configured capacity per machine in vertex-id units."""
        return self._capacity

    @property
    def num_sealed(self) -> int:
        """Number of currently sealed entries."""
        return sum(len(ids) for _, ids in self._pinned)

    def __len__(self) -> int:
        return int(np.count_nonzero(self._entry))


class LRUCache:
    """A classic LRU cache touched once per adjacency read, for every
    machine: the ``Cncr-LRU`` ablation and BENU's local database cache.

    Charges copy + lock + LRU-bookkeeping penalties on every access;
    ``concurrent`` (``Cncr-LRU``) scales the lock by the worker count.
    Only the scalar API exists here — LRU order is a function of the
    access sequence, so :meth:`fetch` replays a step read by read, each on
    its machine's own LRU.  (``LRU-Inf`` is not this class: an unbounded
    LRU never evicts, so its order is unobservable and it is
    :class:`LRBUCache` with capacity ``None`` charging these penalties.)
    """

    def __init__(self, capacity_ids: int | None, cost: CostModel,
                 concurrent: bool = False, workers: int = 1):
        self._capacity = capacity_ids
        self._cost = cost
        self._concurrent = concurrent
        self._workers = max(1, workers)
        self._data: defaultdict[int, OrderedDict] = defaultdict(OrderedDict)
        self._size: Counter[int] = Counter()
        self.stats = CacheStats()

    def contains(self, vid: int, machine: int = 0) -> bool:
        """Membership test (counted as an access for LRU bookkeeping).

        A positive probe refreshes the entry's recency — the modelled LRU
        treats every access as a position update, so ``contains`` must
        ``move_to_end`` or eviction would pick victims by a stale order.
        """
        data = self._data[machine]
        if vid in data:
            data.move_to_end(vid)
            return True
        return False

    def get(self, vid: int, machine: int = 0) -> np.ndarray:
        """Lookup + move-to-back (the LRU position update)."""
        data = self._data[machine]
        data.move_to_end(vid)
        return data[vid]

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

    def insert(self, vid: int, neighbours: np.ndarray,
               machine: int = 0) -> None:
        """Insert with plain LRU eviction.

        Re-inserting a resident vid replaces the stored adjacency and
        re-accounts its occupancy (the old entry is retired first, so a
        stale array or stale ``_size`` share can never linger), then
        refreshes recency like any other access.  The replacement itself
        is not counted as an eviction.
        """
        data = self._data[machine]
        if vid in data:
            self._size[machine] -= len(data.pop(vid)) + 1
        if self._capacity is not None:
            while (self._size[machine] + len(neighbours) + 1 > self._capacity
                   and data):
                self._size[machine] -= len(data.popitem(last=False)[1]) + 1
                self.stats.evicted[machine] += 1
        data[vid] = neighbours
        self._size[machine] += len(neighbours) + 1

    def fetch(self, cluster, machines, block: np.ndarray):
        """The per-access fetch stage for one stacked step: every remote
        read of the extend ``block`` (row ``i`` machine ``machines[i]``'s,
        or ``machines``', one id) is its own access to its machine's
        cache, in the row-major order a tuple-at-a-time loop issues them.
        A hit refreshes the entry's recency; a miss pulls that one vertex
        with its own RPC pair and inserts it, evicting as LRU dictates.
        Nothing is aggregated or sealed — a bounded LRU may evict one of
        the batch's own entries mid-batch; that is the model — so there
        are no bookkeeping ticks and nothing to lose.  Returns as
        :meth:`LRBUCache.fetch`, counting accesses instead of distinct
        ids.
        """
        machines = _machine_column(machines, block)[:, None]
        remote = cluster.pgraph.owner[block] != machines
        reads = block[remote]
        machines = np.broadcast_to(machines, block.shape)[remote]
        k = cluster.num_machines
        missed = np.zeros(k, dtype=np.int64)
        for m, u in zip(machines.tolist(), reads.tolist()):
            if not self.contains(u, m):
                cluster.pull(m, np.array([u]))
                self.insert(u, cluster.graph.neighbours(u), m)
                missed[m] += 1
        return (np.bincount(machines, minlength=k) - missed, missed,
                np.zeros(k, dtype=np.int64), reads[:0])

    def release(self) -> None:
        """End-of-batch hook; LRU pins nothing."""

    occupancy = LRBUCache.occupancy
    size_ids = LRBUCache.size_ids
    capacity_ids = LRBUCache.capacity_ids

    def __len__(self) -> int:
        return sum(map(len, self._data.values()))


#: Names accepted by :func:`make_cache` (the Table 5 columns).
CACHE_VARIANTS = ("lrbu", "lrbu-copy", "lrbu-lock", "lru-inf", "cncr-lru")


def make_cache(variant: str, capacity_ids: int | None, cost: CostModel,
               workers: int = 1) -> LRBUCache | LRUCache:
    """Build a cache (every machine's) by ablation name (see
    :data:`CACHE_VARIANTS`)."""
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
