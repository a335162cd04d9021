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
policy: the operator hands a stacked step's extend block ``rows[:,
ext]``, with the rows' machine column, to :meth:`fetch` — a cell is a
remote read when another machine owns its vertex — and charges what it
reports per machine.  :class:`LRBUCache` does Algorithm 4's sealed,
aggregated fetch — one pass over the block that seals the resident reads
and lists the absent ones, one ``GetNbrs`` RPC per (machine, owner) per
batch, then one pass that evicts and admits the absent ones, and after
the intersect stage one pass that releases the batch's pins into the
queues — and serves four of Exp-6's five variants, which differ only in
the *access penalty* they charge per read (memory copy, locking, LRU
bookkeeping); :class:`LRUCache` does one cache access per read and one
RPC pair per miss, which is ``Cncr-LRU`` (and BENU's local database
cache).  Where ``kernels.c`` loaded, a PULL-EXTEND step over an
:class:`LRBUCache` is one compiled call, ``pull_extend_step``, that runs
those passes and the intersect stage between them on the same arrays
(:meth:`LRBUCache.pull_extend`); the methods here are their numpy
programs, which the operator composes where the library is missing and
for VERIFY steps, and which the tests hold the compiled step to.
Penalties are cost-model charges, not behavioural changes: every variant
tracks real residency, sizes and eviction order, and a scalar
``insert``/``get`` stores and returns the real adjacency array.
"""

from __future__ import annotations

from collections import Counter, OrderedDict, defaultdict

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


class QueueStats:
    """:class:`CacheStats`' reads over an :class:`LRBUCache`'s queue
    state: ``evicted`` and ``overflow`` are its columns, one entry per
    machine (views — ``.copy()`` one to keep it across a step)."""

    __slots__ = ("_cache",)

    def __init__(self, cache: LRBUCache) -> None:
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

    Two APIs run on that one state.  The scalar Algorithm-3 methods
    (:meth:`contains` / :meth:`get` / :meth:`insert` / :meth:`seal`, one
    vertex of one machine) are the paper's interface and the reference
    ``tests/test_cache.py`` replays the bulk form against; no engine path
    calls them.  :meth:`fetch` is PULL-EXTEND's fetch stage: one
    classification pass over the step's extend block (:meth:`_classify`,
    which seals the hits), then one admission pass for the misses
    (:meth:`_admit`, with its eviction), and :meth:`release` after the
    intersect stage — numpy programs, one call each per stacked step.
    :meth:`pull_extend` is the same step, those passes with the intersect
    stage and the worker deal between them, as one call of
    ``pull_extend_step`` in ``kernels.c``, whose loops update the same
    arrays the same way, so a cache can take either path at any step.
    Only a scalar ``insert`` stores a value: the intersect stage reads
    adjacency from the CSR (cached remote adjacency is the same data by
    construction).
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
        self._values: dict[tuple[int, int], np.ndarray] = {}
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
    def stats(self) -> QueueStats:
        """Evictions and overflow per machine (a fresh view per read, so
        the cache and its stats hold no cycle)."""
        return QueueStats(self)

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

    def _pin(self, keys: np.ndarray) -> None:
        """Append the keys ``m·|V| + v`` to ``S_sealed``."""
        self._reserve(self._num_pins + len(keys))
        self._pins[self._num_pins:self._num_pins + len(keys)] = keys
        self._num_pins += len(keys)

    def _evict(self, machine: int, excess: int) -> None:
        """Shed ``machine``'s least-recent-batch entries until ``excess``
        ids are freed or its ``S_free`` is exhausted (Algorithm 3 lines
        5-8).  The victims are the shortest prefix of ``S_free`` whose
        live sizes reach the excess: per window of the queue's head (64
        places, then twice as many each time) one ``cumsum`` and one
        ``searchsorted`` — the numpy twin of ``evict`` in ``kernels.c``."""
        entry, order = self._entry[machine], self._order[machine]
        queue, stamps = self._queue[machine], self._stamps[machine]
        state = self._queue_state[machine]
        window = 64
        while excess > 0 and state[_HEAD] < state[_TAIL]:
            head = int(state[_HEAD])
            ids = queue[head:min(head + window, int(state[_TAIL]))]
            live = order[ids] == stamps[head:head + len(ids)]
            shed = np.cumsum(entry[ids] * live)
            # places consumed: up to and including the first whose
            # running live size reaches the excess
            cut = min(int(np.searchsorted(shed, excess, "left")) + 1,
                      len(ids))
            victims = ids[:cut][live[:cut]]
            entry[victims] = 0
            order[victims] = -1
            freed = int(shed[cut - 1])
            state[_HEAD] += cut
            state[_SIZE] -= freed
            state[_EVICTED] += len(victims)
            excess -= freed
            window *= 2

    def _drop_evicted_values(self) -> None:
        """Forget the values scalar inserts stored for evicted entries."""
        if self._values:
            self._values = {key: value for key, value in self._values.items()
                            if self._entry[key]}

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
                self._evict(machine, self.occupancy(machine)
                            - self._capacity)
                self._drop_evicted_values()
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
        ``S_free`` in ascending id order with stamps larger than all its
        existing entries (Algorithm 3 lines 11-14): the pins sorted once,
        then filed at each machine's queue tail (:meth:`_release`, the
        numpy twin of ``release_pins`` in ``kernels.c``).  A machine whose
        queue row is full is compacted first; when the rows are too short
        even so, they grow (to the places needed, and at least twice
        over) and the pass runs again."""
        while self._num_pins:
            need = self._release()
            if need:
                self._grow_queue(need)
            else:
                self._pins, self._num_pins = _NO_PINS, 0

    def _grow_queue(self, need: int) -> None:
        """Widen every machine's queue row to at least ``need`` places,
        and at least double it, so that rows grow a logarithmic number of
        times."""
        width = self._queue.shape[1]
        self._queue, self._stamps = (
            np.concatenate((a, np.zeros((len(a), max(need, 2 * width) - width),
                                        dtype=np.int64)), axis=1)
            for a in (self._queue, self._stamps))

    def _release(self) -> int:
        """The numpy twin of ``release_pins``: file ``S_sealed`` (or
        compact, and return the queue capacity needed)."""
        width = self._entry.shape[1]
        keys = self._pins[:self._num_pins]
        keys.sort()
        ms, ids = np.divmod(keys, width)
        starts = np.flatnonzero(np.diff(ms, prepend=-1))
        counts = np.diff(np.append(starts, len(keys)))
        owners = ms[starts]
        state, qcap = self._queue_state, self._queue.shape[1]
        need = 0
        for m, count in zip(owners.tolist(), counts.tolist()):
            if state[m, _TAIL] + count > qcap:
                self._compact(m)
                need = max(need, 2 * int(state[m, _TAIL] + count))
        if need > qcap:
            return need
        # each key's offset within its machine's run, from the run's
        # start in the keys and its machine's tail and next stamp
        rank = np.arange(len(keys)) - np.repeat(starts, counts)
        stamps = np.repeat(state[owners, _STAMP], counts) + rank
        places = np.repeat(state[owners, _TAIL], counts) + rank
        self._queue[ms, places] = ids
        self._stamps[ms, places] = stamps
        self._order.reshape(-1)[keys] = stamps
        state[owners, _TAIL] += counts
        state[owners, _STAMP] += counts
        return 0

    def _compact(self, machine: int) -> None:
        """Move ``machine``'s ``S_free`` to the front of its queue row,
        dropping stale places and the evicted head."""
        state = self._queue_state[machine]
        head, tail = int(state[_HEAD]), int(state[_TAIL])
        queue, stamps = self._queue[machine], self._stamps[machine]
        live = self._order[machine, queue[head:tail]] == stamps[head:tail]
        kept = int(live.sum())
        queue[:kept] = queue[head:tail][live]
        stamps[:kept] = stamps[head:tail][live]
        state[_HEAD], state[_TAIL] = 0, kept

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
        met, a hit sealed on the spot, a miss listed for the pull; the
        admission (:meth:`_admit`) is one pass over the misses.

        Returns ``(hits, misses, ticks, lost)``: per-machine arrays of the
        distinct ids found and fetched and the stage's bookkeeping ticks,
        and the ids this call sealed or admitted that are *not* resident
        now — sealing forbids any; the operator asserts it.
        """
        k = cluster.num_machines
        owner = cluster.pgraph.owner
        machines = _machine_column(machines, block)
        # the passes index the state by key and the owner column by id
        if ((len(machines) and not 0 <= machines.min() <= machines.max() < k)
                or (block.size and not 0 <= block.min() <= block.max()
                    < len(owner))):
            raise ValueError("extend block outside the cluster or the graph")
        self.cover(k, len(owner))
        since = self._num_pins
        miss_m, miss_v, hits, misses = self._classify(machines, block, owner,
                                                      k)
        sizes = cluster.pull(miss_m, miss_v)
        incoming, lost = self._admit(miss_m, miss_v, sizes, since)
        ticks = ((hits + misses) * _FETCH_SEAL_TICKS
                 + incoming[:k] * _FETCH_INSERT_TICKS)
        return hits, misses, ticks, lost

    def _classify(self, machines: np.ndarray, block: np.ndarray,
                  owner: np.ndarray, k: int):
        """The fetch stage's pass over a step's extend block: seal every
        distinct remote read resident in ``S_free`` (pinning its key) and
        list the absent ones.  Returns ``(miss_m, miss_v, hits,
        misses)``: the missed ``(machine, id)`` keys as machine and id
        columns, and per machine the distinct hits (sealed now or before)
        and misses.

        The flat keys ``m·|V| + v`` are de-duplicated by a sort and a
        first-occurrence mask, as in ``graph.edge_rows`` (``np.unique``
        takes a hash pass on int64).  ``classify_reads`` of ``kernels.c``
        does it in one loop over the cells, marking a key it has met in
        ``_order`` and clearing the marks before it returns; both seal the
        same keys and list the same misses, in their own orders —
        :meth:`_admit` and :meth:`release` do not read order.
        """
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
        self._pin(keys[sealing])
        ms, vs = np.divmod(keys, width)
        miss = ~hit
        return (ms[miss], vs[miss], np.bincount(ms[hit], minlength=k),
                np.bincount(ms[miss], minlength=k))

    def _admit(self, ms: np.ndarray, ids: np.ndarray, sizes: np.ndarray,
               since: int) -> tuple[np.ndarray, np.ndarray]:
        """Insert + seal the distinct absent keys ``(ms[i], ids[i])``,
        entry ``i`` occupying ``sizes[i]`` ids (see :meth:`admit`).
        Returns ``(incoming, lost)``: per machine the ids admitted, and
        the ids of the keys pinned since ``_pins[since]`` that are not
        resident after it.

        The sizes are summed by ``bincount`` and each admitting machine
        evicts by :meth:`_evict` — the numpy twin of ``admit_reads`` in
        ``kernels.c``, which does it in one pass over the keys and one
        walk from each admitting machine's queue head."""
        state, cap = self._queue_state, self._capacity
        # weighted bincount sums in float64: exact for sizes below 2**53
        incoming = np.bincount(ms, sizes, len(state)).astype(np.int64)
        if cap is not None:
            for m in np.flatnonzero(incoming).tolist():
                self._evict(m, int(state[m, _SIZE] + incoming[m]) - cap)
                state[m, _OVERFLOW] = max(
                    state[m, _OVERFLOW], state[m, _SIZE] + incoming[m] - cap)
        state[:, _SIZE] += incoming
        self._entry[ms, ids] = sizes
        self._pin(ms * self._entry.shape[1] + ids)
        keys = self._pins[since:self._num_pins]
        lost = keys[self._entry.reshape(-1)[keys] == 0] % self._entry.shape[1]
        self._drop_evicted_values()
        return incoming, lost

    def cover(self, machines: int, vertices: int) -> None:
        """Hold rows for ``machines`` machines and ids below ``vertices``
        (a fetch stage does before it reads the state; the operator does
        before it snapshots the stats a traced step reports)."""
        self._cover(machines - 1, vertices - 1)

    def pull_extend(self, cluster, machines: np.ndarray, rows: np.ndarray,
                    spec, labels, count_only: bool, steal: bool):
        """One PULL-EXTEND step through ``pull_extend_step`` of
        ``kernels.c``: :meth:`fetch`, the intersect stage of ``spec`` (an
        ``ExtendSpec``, not a VERIFY) over ``rows`` (row ``i`` machine
        ``machines[i]``'s), the worker deal of each row's ticks (a run of
        one machine's rows is one batch; dealt heaviest first when
        ``steal``) and :meth:`release`, in one call on this cache's
        arrays.

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
        self._reserve(2 * (self._num_pins + n_rows * len(spec.ext)))
        out = None
        if not count_only:
            verts = rows[:, list(spec.ext)]
            out = np.empty((int((g.indptr[verts + 1] - g.indptr[verts])
                                .min(axis=1).sum()), width + 1),
                           dtype=np.int64)
        batches = n_rows and 1 + int(np.count_nonzero(
            machines[1:] != machines[:-1]))
        report = np.empty(2 * n_rows + batches * workers + 3 * k + 2 * k * k
                          + len(kernels.STEP_RESULTS), dtype=np.int64)
        weights = (_FETCH_SEAL_TICKS, _FETCH_INSERT_TICKS,
                   t.cache_copy_per_id if self._copy else 0,
                   (t.cache_lock if self._lock else 0)
                   + (t.cache_update if self._update else 0),
                   t.intersect, t.emit if count_only else t.emit * (width + 1))
        status, counts, ticks, totals, fetched, pulls, result = (
            kernels.pull_extend_step(
                g, cluster.pgraph.owner, k, rows, machines, spec.ext,
                spec.candidate_lt, spec.candidate_gt, labels, spec.new_label,
                cluster.probe_ticks, weights,
                (self._capacity, self._entry, self._order, self._queue,
                 self._stamps, self._queue_state, self._pins,
                 self._num_pins), workers, steal, out, report, batches))
        kept, _, pinned, lost = result.tolist()
        fetched, pulls = fetched.reshape(3, k), pulls.reshape(2, k, k)
        if status == -2:
            self._num_pins = pinned
            return (None,) * 4 + (fetched, pulls,
                                  self._pins[pinned:pinned + lost].copy())
        if status:
            # a queue row too short for the pins, compacted: grown, then
            # filed
            self._num_pins = pinned
            self._grow_queue(status)
            self.release()
        else:
            self._pins, self._num_pins = _NO_PINS, 0
        self._drop_evicted_values()
        return (None if out is None else out[:kept], ticks, counts,
                totals.reshape(batches, workers), fetched, pulls, _NO_PINS)

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
            self._pin(ms * self._entry.shape[1] + ids)

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
        self._admit(np.ascontiguousarray(ms), ids,
                    np.asarray(sizes, dtype=np.int64), self._num_pins)

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

    def occupancy(self, machine: int) -> int:
        """A machine's occupancy in vertex-id units."""
        return self._size[machine]

    @property
    def size_ids(self) -> int:
        """Occupancy in vertex-id units, summed over machines."""
        return sum(self._size.values())

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
