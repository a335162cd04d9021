"""The numpy LRBU step: the reference the compiled PULL-EXTEND step
(``pull_extend_step`` of ``core/kernels.c``, behind
:meth:`repro.core.cache.LRBUCache.pull_extend`) is held to.

:class:`ReferenceLRBU` is an :class:`~repro.core.cache.LRBUCache` with
the numpy programs of the step's fetch stage and release — one
classification pass over a step's extend block (:meth:`_classify`,
which seals the hits), one admission pass for the misses
(:meth:`_admit`, with its eviction), and :meth:`release` after the
intersect stage — and the scalar Algorithm-3 methods (:meth:`contains` /
:meth:`get` / :meth:`insert` / :meth:`seal`, one vertex of one machine),
which are the paper's interface and the reference the bulk form is
replayed against.  All of them update the package's arrays the way the
compiled passes ``classify_reads``, ``admit_reads`` / ``evict`` and
``release_pins`` do, so a reference cache can take the compiled step
(which it inherits) and the numpy one at any step.  Only a scalar
``insert`` stores a value.
``tests/reference_kernels.py``'s ``pull_extend`` composes the numpy
step on any LRBU cache through :meth:`ReferenceLRBU.over`.
"""

from __future__ import annotations

import numpy as np

from repro.core import cache as cache_module
from repro.core.cache import (_EVICTED, _FETCH_INSERT_TICKS,
                              _FETCH_SEAL_TICKS, _HEAD, _NO_PINS, _OVERFLOW,
                              _SIZE, _STAMP, _TAIL, LRBUCache,
                              _machine_column)


class ReferenceLRBU(LRBUCache):
    """:class:`~repro.core.cache.LRBUCache` with its numpy fetch stage,
    release and scalar Algorithm-3 methods (see the module's summary)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._values: dict[tuple[int, int], np.ndarray] = {}

    @classmethod
    def over(cls, cache: LRBUCache) -> ReferenceLRBU:
        """``cache`` itself if it is a reference cache, else a reference
        cache on its state: one shared ``__dict__``, so whatever either
        updates or rebinds the other sees."""
        if isinstance(cache, cls):
            return cache
        view = cls.__new__(cls)
        view.__dict__ = cache.__dict__
        view.__dict__.setdefault("_values", {})
        return view

    # -- Algorithm 3 methods -------------------------------------------------

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
        then filed at each machine's queue tail (:meth:`_release`, as
        ``release_pins`` in ``kernels.c`` files them).  A machine whose
        queue row is full is compacted first; when the rows are too short
        even so, they grow (to the places needed, and at least twice
        over) and the pass runs again."""
        while self._num_pins:
            need = self._release()
            if need:
                self._grow_queue(need)
            else:
                self._pins, self._num_pins = _NO_PINS, 0

    def _release(self) -> int:
        """File ``S_sealed`` as ``release_pins`` does (or compact, and
        return the queue capacity needed)."""
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

    # -- PULL-EXTEND's fetch stage and its bulk methods ----------------------

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
        evicts by :meth:`_evict` (``admit_reads`` in ``kernels.c`` does it
        in one pass over the keys and one walk from each admitting
        machine's queue head)."""
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

    # -- internals ------------------------------------------------------------

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
        ``searchsorted``, as ``evict`` in ``kernels.c`` walks them."""
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


def make_cache(variant: str, capacity_ids: int | None, cost,
               workers: int = 1):
    """:func:`repro.core.cache.make_cache`, a :class:`ReferenceLRBU` in
    place of each :class:`~repro.core.cache.LRBUCache` (same capacity and
    penalties)."""
    cache = cache_module.make_cache(variant, capacity_ids, cost, workers)
    if not isinstance(cache, LRBUCache):
        return cache
    return ReferenceLRBU(cache.capacity_ids, cost, cache._copy, cache._lock,
                         cache._update)
