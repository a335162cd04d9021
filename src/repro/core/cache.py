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

One cache object holds *every* machine's cache, all of it in flat
``int64`` arrays with one row per machine, so machines never share an
entry, an order or a victim: ``M_cache``'s residency and sizes, each
machine's ``S_free`` as a FIFO queue of ``(id, stamp)`` places, and per
machine the queue's head and tail, the next stamp, the occupancy and the
eviction and overflow counts.  The cache class *is* PULL-EXTEND's fetch
policy, for a stacked step's extend block ``rows[:, ext]`` with the
rows' machine column — a cell is a remote read when another machine
owns its vertex.  :class:`LRBUCache` does Algorithm 4's sealed,
aggregated fetch — one pass over the block that seals the resident reads
and lists the absent ones, one ``GetNbrs`` RPC per (machine, owner) per
batch, then one pass that evicts and admits the absent ones, and after
the intersect stage one pass that releases the batch's pins into the
queues — and serves four of Exp-6's five variants, which differ only in
the *access penalty* they charge per read (memory copy, locking, LRU
bookkeeping).  A PULL-EXTEND step over it, extending or VERIFY, is one
compiled call, ``pull_extend_step`` of ``kernels.c``, that runs those
passes, the intersect stage and the worker deal on the same arrays
(:meth:`LRBUCache.pull_extend`); its numpy twin is the tests' reference
(``tests/reference_cache.py``).  :class:`LRUCache` does one cache access
per read and one RPC pair per miss (:meth:`LRUCache.fetch`, in front of
the operator's numpy intersect stage), which is ``Cncr-LRU`` (and BENU's
local database cache).
Penalties are cost-model charges, not behavioural changes: every variant
tracks real residency, sizes and eviction order.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

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

#: the columns of :class:`LRBUCache`'s queue state, one row per machine
#: (``kernels.c`` names them alike): ``S_free`` is ``queue[HEAD:TAIL]``,
#: ``STAMP`` the next stamp to give, ``SIZE`` the occupancy in ids,
#: ``EVICTED`` / ``OVERFLOW`` the eviction count and the worst overflow
#: past capacity
_HEAD, _TAIL, _STAMP, _SIZE, _EVICTED, _OVERFLOW = range(6)

#: queue places per machine a fresh cache starts with
_QUEUE_START = 64

#: ``S_sealed`` with nothing pinned (a shared empty buffer)
_NO_PINS = np.empty(0, dtype=np.int64)


class CacheStats:
    """What only the cache observes, per machine: evictions and the worst
    overflow beyond capacity, read from either cache class's state
    columns ``EVICTED`` and ``OVERFLOW`` (views — ``.copy()`` one to keep
    it across a step).  Hits and misses are the ledger's
    (``Metrics.record_cache``), counted by the fetch stage's caller."""

    __slots__ = ("_cache",)

    def __init__(self, cache: LRBUCache | LRUCache) -> None:
        self._cache = cache

    @property
    def evicted(self) -> np.ndarray:
        """Evictions per machine."""
        return self._cache._queue_state[:, _EVICTED]

    @property
    def overflow(self) -> np.ndarray:
        """The worst overflow per machine."""
        return self._cache._queue_state[:, _OVERFLOW]

    @property
    def evictions(self) -> int:
        """Evictions summed over machines."""
        return int(self.evicted.sum())

    @property
    def max_overflow_ids(self) -> int:
        """The worst overflow of any machine."""
        return int(self.overflow.max(initial=0))


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

    The bookkeeping is plain ``int64`` arrays with one row per machine,
    grown (ids by doubling) to cover the largest machine and id seen.
    ``_entry[m, v]`` is the ids entry ``v`` occupies on machine ``m`` (0 =
    absent) and ``_order[m, v]`` its stamp in that machine's ``S_free``
    (−1 = sealed or absent).  Each machine's ``S_free`` is a FIFO queue,
    row ``m`` of ``_queue`` (ids) and ``_stamps``, live between the head
    and tail columns of ``_queue_state`` (which also holds the next
    stamp, the occupancy and the eviction and overflow counts).  Queue
    place ``p`` is live iff ``_order[m, _queue[m, p]] == _stamps[m, p]``,
    so sealing an entry again makes its old place stale without touching
    the queue; eviction skips stale places at the head, and a release
    that finds a machine's row full first compacts it to its live places
    (then grows the rows when that leaves it over half full).
    ``S_sealed`` is the keys ``m·|V| + v`` pinned since the last release,
    ``_pins[:_num_pins]``.

    One program runs on that state: :meth:`pull_extend`, a whole
    PULL-EXTEND step — the fetch stage's classification (which seals the
    hits) and admission (with its eviction), the intersect stage of an
    extending or a VERIFY step, the worker deal and the release — as one
    call of ``pull_extend_step`` in ``kernels.c``.  Its numpy twin, with
    the scalar Algorithm-3 methods (``contains`` / ``get`` / ``insert`` /
    ``seal``, the paper's interface), is the tests' reference
    (``ReferenceLRBU`` in ``tests/reference_cache.py``), which updates
    the same arrays the same way.  An entry is a size and no value: the
    intersect stage reads adjacency from the CSR (cached remote adjacency
    is the same data by construction).
    """

    def __init__(self, capacity_ids: int | None, cost: CostModel,
                 copy_penalty: bool = False, lock_penalty: bool = False,
                 update_penalty: bool = False):
        if capacity_ids is not None and capacity_ids < 0:
            raise ValueError("a cache capacity is at least 0 ids")
        self._capacity = capacity_ids
        self._cost = cost
        self._copy = copy_penalty
        self._lock = lock_penalty
        self._update = update_penalty
        self._entry = np.zeros((1, 0), dtype=np.int64)
        self._order = np.zeros((1, 0), dtype=np.int64)
        self._queue = np.zeros((1, _QUEUE_START), dtype=np.int64)
        self._stamps = np.zeros((1, _QUEUE_START), dtype=np.int64)
        self._queue_state = np.zeros((1, 6), dtype=np.int64)
        #: ``S_sealed``: the keys ``m·|V| + v`` pinned since the last
        #: release, ``_pins[:_num_pins]``, distinct; the compiled step
        #: also writes through the room past them.  A step's buffer, let
        #: go of at its release (a buffer kept for the whole run would
        #: keep every page a step ever touched resident)
        self._pins = _NO_PINS
        self._num_pins = 0

    @property
    def stats(self) -> CacheStats:
        """Evictions and overflow per machine (a fresh view per read, so
        the cache and its stats hold no cycle)."""
        return CacheStats(self)

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
        if size != have and self._num_pins:
            # the pinned keys are by row width
            pins = self._pins[:self._num_pins]
            pins += (pins // have) * (size - have)
        if rows != k:
            self._queue, self._stamps, self._queue_state = (
                np.concatenate((a, np.zeros((rows - k, a.shape[1]),
                                            dtype=np.int64)))
                for a in (self._queue, self._stamps, self._queue_state))

    def _reserve(self, pins: int) -> None:
        """Room for ``pins`` keys in ``_pins``."""
        if pins > len(self._pins):
            grown = np.empty(max(pins, 2 * len(self._pins)), dtype=np.int64)
            grown[:self._num_pins] = self._pins[:self._num_pins]
            self._pins = grown

    def access_penalty(self, length):
        """Ticks charged per read of an entry of ``length`` neighbours
        under this variant's ablation.  A function of the
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

    def _grow_queue(self, need: int) -> None:
        """Widen every machine's queue row to at least ``need`` places,
        and at least double it, so that rows grow a logarithmic number of
        times."""
        width = self._queue.shape[1]
        self._queue, self._stamps = (
            np.concatenate((a, np.zeros((len(a), max(need, 2 * width) - width),
                                        dtype=np.int64)), axis=1)
            for a in (self._queue, self._stamps))

    def cover(self, machines: int, vertices: int) -> None:
        """Hold rows for ``machines`` machines and ids below ``vertices``
        (the operator does before a step, and before it snapshots the
        stats a traced step reports)."""
        self._cover(machines - 1, vertices - 1)

    def pull_extend(self, cluster, machines: np.ndarray, rows: np.ndarray,
                    spec, labels, count_only: bool, steal: bool):
        """One PULL-EXTEND step through ``pull_extend_step`` of
        ``kernels.c``: the fetch stage, the intersect stage of ``spec``
        (an ``ExtendSpec``, extending or VERIFY) over ``rows`` (row ``i``
        machine ``machines[i]``'s), the worker deal of each row's ticks (a
        run of one machine's rows is one batch; dealt heaviest first when
        ``steal``) and the release, in one call on this cache's arrays.
        When a queue row is too short for the step's pins even compacted,
        the step hands them back with the width it needs: the rows grow,
        and the step on no rows, which is the release alone, files them.

        A row's ticks are its intersection ticks, this variant's
        :meth:`access_penalty` per remote read and its emits, as the
        operator's composed intersect stage charges them.  Returns
        ``(out, ticks, counts, totals, fetched, pulls, lost)``: the kept
        rows (``None`` when ``count_only``), per row the ticks and kept
        rows, per batch the ``(batches, workers)`` tick totals; per
        machine the fetch stage's ``(hits, misses, ticks)`` as a ``(3,
        k)`` array and the ``GetNbrs`` as ``(requests, response ids)``,
        ``(2, k, k)`` by (requester, owner); and the ids the step pinned
        that were lost (then the intersect stage, the deal and the
        release did not run, and the first four are ``None``).
        """
        k = cluster.num_machines
        g = cluster.pgraph.graph
        t = self._cost.ticks
        n_rows, width = rows.shape
        workers = cluster.workers_per_machine
        verify = -1 if spec.verify_pos is None else spec.verify_pos
        self._reserve(2 * (self._num_pins + n_rows * len(spec.ext)))
        out = None
        if not count_only and verify >= 0:
            # a VERIFY row keeps itself or nothing
            out = np.empty((n_rows, width), dtype=np.int64)
        elif not count_only:
            verts = rows[:, list(spec.ext)]
            out = np.empty((int((g.indptr[verts + 1] - g.indptr[verts])
                                .min(axis=1).sum()), width + 1),
                           dtype=np.int64)
        weights = (_FETCH_SEAL_TICKS, _FETCH_INSERT_TICKS,
                   t.cache_copy_per_id if self._copy else 0,
                   (t.cache_lock if self._lock else 0)
                   + (t.cache_update if self._update else 0),
                   t.intersect,
                   t.emit * (1 if count_only else width + (verify < 0)))

        def step(machines, rows, out, batches):
            report = np.empty(2 * len(rows) + batches * workers + 3 * k
                              + 2 * k * k + len(kernels.STEP_RESULTS),
                              dtype=np.int64)
            return kernels.pull_extend_step(
                g, cluster.pgraph.owner, k, rows, machines, spec.ext, verify,
                spec.candidate_lt, spec.candidate_gt, labels, spec.new_label,
                cluster.probe_ticks, weights,
                (self._capacity, self._entry, self._order, self._queue,
                 self._stamps, self._queue_state, self._pins,
                 self._num_pins), workers, steal, out, report, batches)

        batches = n_rows and 1 + int(np.count_nonzero(
            machines[1:] != machines[:-1]))
        status, counts, ticks, totals, fetched, pulls, result = step(
            machines, rows, out, batches)
        kept, _, pinned, lost = result.tolist()
        self._num_pins = pinned
        fetched, pulls = fetched.reshape(3, k), pulls.reshape(2, k, k)
        if status == -2:
            return (None,) * 4 + (fetched, pulls,
                                  self._pins[pinned:pinned + lost].copy())
        while status:
            self._grow_queue(status)
            status = step(machines[:0], rows[:0], None, 0)[0]
        self._pins, self._num_pins = _NO_PINS, 0
        return (None if out is None else out[:kept], ticks, counts,
                totals.reshape(batches, workers), fetched, pulls, _NO_PINS)

    # -- introspection -----------------------------------------------------------

    def free_order(self, machine: int = 0) -> list[int]:
        """A machine's ``S_free`` from next victim to last (test/debug
        view)."""
        if machine >= len(self._queue_state):
            return []
        head, tail = self._queue_state[machine, [_HEAD, _TAIL]].tolist()
        ids = self._queue[machine, head:tail]
        live = self._order[machine, ids] == self._stamps[machine, head:tail]
        return ids[live].tolist()

    def occupancy(self, machine: int) -> int:
        """A machine's occupancy in vertex-id units."""
        if machine >= len(self._queue_state):
            return 0
        return int(self._queue_state[machine, _SIZE])

    @property
    def size_ids(self) -> int:
        """Occupancy in vertex-id units, summed over machines."""
        return int(self._queue_state[:, _SIZE].sum())

    @property
    def capacity_ids(self) -> int | None:
        """Configured capacity per machine in vertex-id units."""
        return self._capacity

    @property
    def num_sealed(self) -> int:
        """Number of currently sealed entries."""
        return self._num_pins

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
        #: :class:`LRBUCache`'s state columns, one row per machine; only
        #: ``SIZE``, ``EVICTED`` and ``OVERFLOW`` are used (the LRU order
        #: is ``_data``'s)
        self._queue_state = np.zeros((1, 6), dtype=np.int64)

    stats = LRBUCache.stats

    def cover(self, machines: int, vertices: int = 0) -> None:
        """Hold state rows for ``machines`` machines (as
        :meth:`LRBUCache.cover`; no per-id state to grow)."""
        rows = len(self._queue_state)
        if machines > rows:
            self._queue_state = np.concatenate((
                self._queue_state,
                np.zeros((machines - rows, 6), dtype=np.int64)))

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
        stale array or stale occupancy share can never linger), then
        refreshes recency like any other access.  The replacement itself
        is not counted as an eviction.  An entry larger than the capacity
        still goes in, once eviction has emptied the cache; the excess is
        the machine's overflow, as :class:`LRBUCache` records it.
        """
        self.cover(machine + 1)
        state = self._queue_state[machine]
        data = self._data[machine]
        if vid in data:
            state[_SIZE] -= len(data.pop(vid)) + 1
        size = len(neighbours) + 1
        if self._capacity is not None:
            while state[_SIZE] + size > self._capacity and data:
                state[_SIZE] -= len(data.popitem(last=False)[1]) + 1
                state[_EVICTED] += 1
            # an entry the emptied cache cannot hold still goes in
            state[_OVERFLOW] = max(state[_OVERFLOW],
                                   state[_SIZE] + size - self._capacity)
        data[vid] = neighbours
        state[_SIZE] += size

    def fetch(self, cluster, machines, block: np.ndarray):
        """The per-access fetch stage for one stacked step: every remote
        read of the extend ``block`` (row ``i`` machine ``machines[i]``'s,
        or ``machines``', one id) is its own access to its machine's
        cache, in the row-major order a tuple-at-a-time loop issues them.
        A hit refreshes the entry's recency; a miss pulls that one vertex
        with its own RPC pair and inserts it, evicting as LRU dictates.
        Nothing is aggregated or sealed — a bounded LRU may evict one of
        the batch's own entries mid-batch; that is the model — so there
        are no bookkeeping ticks and nothing to lose.  Returns ``(hits,
        misses, ticks, lost)``: per machine the accesses that hit and
        missed, and its zero bookkeeping ticks; no lost ids.
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
        return LRBUCache(capacity_ids, cost, copy_penalty=True,
                         lock_penalty=True)
    if v == "lru-inf":
        # unbounded => no eviction => LRU order unobservable: LRBU's
        # batched stage, LRU's copy + lock + position-update penalties
        return LRBUCache(None, cost, copy_penalty=True, lock_penalty=True,
                         update_penalty=True)
    if v == "cncr-lru":
        return LRUCache(capacity_ids, cost, concurrent=True, workers=workers)
    raise ValueError(f"unknown cache variant {variant!r}; "
                     f"choose from {CACHE_VARIANTS}")
