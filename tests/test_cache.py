"""Tests for the LRBU cache and ablation variants (paper Algorithm 3)."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import CostModel
from repro.core import CACHE_VARIANTS, LRBUCache, LRUCache, make_cache

from .test_extend_kernels import extend_path, extend_paths


def kernels_loaded() -> bool:
    return len(extend_paths()) == 2


def arr(*vals):
    return np.asarray(vals, dtype=np.int64)


@pytest.fixture()
def cost():
    return CostModel()


class TestLRBUBasics:
    def test_insert_get_contains(self, cost):
        c = LRBUCache(100, cost)
        c.insert(5, arr(1, 2, 3))
        assert c.contains(5)
        assert list(c.get(5)) == [1, 2, 3]
        assert not c.contains(6)

    def test_get_returns_reference_not_copy(self, cost):
        """zero-copy: the stored array object itself is returned"""
        c = LRBUCache(100, cost)
        data = arr(1, 2)
        c.insert(1, data)
        assert c.get(1) is data

    def test_size_tracking(self, cost):
        c = LRBUCache(100, cost)
        c.insert(1, arr(1, 2, 3))   # 4 ids
        c.insert(2, arr(9))         # 2 ids
        assert c.size_ids == 6
        assert len(c) == 2

    def test_duplicate_insert_ignored(self, cost):
        c = LRBUCache(100, cost)
        c.insert(1, arr(1, 2))
        c.insert(1, arr(9, 9, 9))
        assert list(c.get(1)) == [1, 2]
        assert c.size_ids == 3

    def test_plain_lrbu_has_no_access_penalty(self, cost):
        c = LRBUCache(100, cost)
        assert c.access_penalty(3) == 0
        assert c.access_penalty(10 ** 6) == 0


class TestLRBUEviction:
    def test_evicts_least_recent_batch_first(self, cost):
        c = LRBUCache(6, cost)
        # batch 1: vertices 1, 2
        c.insert(1, arr(7))
        c.seal(1)
        c.insert(2, arr(8))
        c.seal(2)
        c.release()
        # batch 2: vertex 3
        c.insert(3, arr(9))
        c.seal(3)
        c.release()
        # cache now 6/6 full; inserting evicts batch-1 entries first
        c.insert(4, arr(1))
        assert not c.contains(1)    # oldest batch evicted
        assert c.contains(3)

    def test_sealed_entries_never_evicted(self, cost):
        c = LRBUCache(4, cost)
        c.insert(1, arr(1))
        c.seal(1)
        c.insert(2, arr(2))
        c.seal(2)
        # full + everything sealed: next insert overflows but evicts nothing
        c.insert(3, arr(3))
        assert c.contains(1) and c.contains(2) and c.contains(3)
        assert c.size_ids > c.capacity_ids
        assert c.num_sealed == 3  # insert pins the new entry too

    def test_overflow_bounded_by_batch(self, cost):
        """the invariant of §4.4: overflow ≤ remote vertices of one batch"""
        c = LRBUCache(10, cost)
        batch = [(i, arr(i)) for i in range(10, 16)]  # 6 entries of 2 ids
        for vid, nbrs in batch:
            c.insert(vid, nbrs)
            c.seal(vid)
        # capacity 10, sealed size 12 → overflow 2 ≤ one batch (12 ids)
        assert c.stats.max_overflow_ids <= sum(len(n) + 1 for _, n in batch)
        c.release()
        # after release the next insert can evict back under capacity
        c.insert(99, arr(1, 2, 3))
        assert c.size_ids <= 10

    def test_release_orders_after_existing(self, cost):
        c = LRBUCache(4, cost)
        c.insert(1, arr(1))
        c.seal(1)
        c.release()            # free order: [1]
        c.insert(2, arr(2))
        c.seal(2)
        c.release()            # free order: [1, 2]
        c.insert(3, arr(3))    # evicts 1 (smallest order), not 2
        assert not c.contains(1)
        assert c.contains(2)

    def test_eviction_counted(self, cost):
        c = LRBUCache(2, cost)
        c.insert(1, arr(1))
        c.seal(1)
        c.release()
        c.insert(2, arr(2))
        assert c.stats.evictions == 1

    def test_unbounded_cache_never_evicts(self, cost):
        c = LRBUCache(None, cost)
        for i in range(100):
            c.insert(i, arr(i))
        assert len(c) == 100
        assert c.stats.evictions == 0

    def test_seal_of_missing_vertex_harmless(self, cost):
        c = LRBUCache(10, cost)
        c.seal(42)
        c.release()  # vertex 42 was never inserted; must not appear
        assert not c.contains(42)


class TestAblationVariants:
    def test_variant_names(self):
        assert set(CACHE_VARIANTS) == {"lrbu", "lrbu-copy", "lrbu-lock",
                                       "lru-inf", "cncr-lru"}

    def test_make_cache_unknown(self, cost):
        with pytest.raises(ValueError):
            make_cache("bogus", 10, cost)

    def test_penalty_ordering(self, cost):
        """LRBU < LRBU-Copy < LRBU-Lock < LRU penalties (Table 5)"""
        penalties = {}
        for name in CACHE_VARIANTS:
            c = make_cache(name, 1000, cost, workers=4)
            # a function of the variant and the entry's length alone: the
            # (empty) cache is never consulted, ints and arrays agree
            penalties[name] = c.access_penalty(50)
            assert np.all(c.access_penalty(arr(50, 50)) == penalties[name])
        assert penalties["lrbu"] == 0
        assert penalties["lrbu"] < penalties["lrbu-copy"]
        assert penalties["lrbu-copy"] < penalties["lrbu-lock"]
        assert penalties["lrbu-lock"] < penalties["lru-inf"]
        assert penalties["lru-inf"] < penalties["cncr-lru"]

    def test_lru_inf_is_unbounded(self, cost):
        c = make_cache("lru-inf", 10, cost)
        for i in range(50):
            c.insert(i, arr(i))
        assert len(c) == 50

    def test_cache_class_is_the_fetch_stage(self, cost):
        """Algorithm 4's batched stage for four variants, the per-access
        stage for Cncr-LRU — which has the scalar API only"""
        for name in ("lrbu", "lrbu-copy", "lrbu-lock", "lru-inf"):
            assert type(make_cache(name, 10, cost)) is LRBUCache
        assert type(make_cache("cncr-lru", 10, cost)) is LRUCache
        for gone in ("resident", "seal_many", "admit", "seal"):
            assert not hasattr(LRUCache, gone)

    @pytest.mark.parametrize("workers", [1, 4])
    def test_lru_inf_is_lrbu_with_lru_penalties(self, cost, workers):
        """unbounded => no eviction => LRU order unobservable: capacity
        None, and per access exactly what ``LRUCache(None, cost)`` charged"""
        c = make_cache("lru-inf", 10, cost, workers=workers)
        assert isinstance(c, LRBUCache) and c.capacity_ids is None
        t = cost.ticks
        for d in (0, 1, 50):
            want = (d + 1) * t.cache_copy_per_id + t.cache_lock + t.cache_update
            assert c.access_penalty(d) == want
            assert c.access_penalty(d) == LRUCache(None, cost).access_penalty(d)
        lens = np.arange(12).reshape(3, 4)
        assert np.array_equal(
            c.access_penalty(lens),
            (lens + 1) * t.cache_copy_per_id + t.cache_lock + t.cache_update)

    def test_lru_inf_replay_equals_everything_ever_fetched(self, cost):
        """40 overlapping batches through the fetch stage: the cache is a
        plain dict of everything ever fetched"""

        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 9, size=IDS)
        c = make_cache("lru-inf", 10, cost)
        seen, hits, misses = {}, 0, 0
        for _ in range(40):
            reads = rng.integers(0, IDS, size=rng.integers(1, 60))
            found, fetched, _ticks, lost = c.fetch(_Pulls(1, sizes), 0,
                                                   reads[:, None])
            distinct = set(reads.tolist())
            new = distinct - seen.keys()
            assert (found, fetched) == (len(distinct) - len(new), len(new))
            assert len(lost) == 0 and c.num_sealed == len(distinct)
            c.release()
            hits, misses = hits + found, misses + fetched
            seen.update((v, int(sizes[v])) for v in new)
            assert (c.stats.evictions, c.stats.max_overflow_ids) == (0, 0)
            assert (c.size_ids, len(c)) == (sum(seen.values()), len(seen))
        assert hits > 100 and len(seen) > 100


class TestLRUCache:
    def test_lru_eviction_order(self, cost):
        c = LRUCache(4, cost)
        c.insert(1, arr(1))
        c.insert(2, arr(2))
        c.get(1)               # touch 1 → 2 becomes LRU
        c.insert(3, arr(3))    # evicts 2
        assert c.contains(1)
        assert not c.contains(2)

    def test_reinsert_moves_to_back(self, cost):
        c = LRUCache(4, cost)
        c.insert(1, arr(1))
        c.insert(2, arr(2))
        c.insert(1, arr(1))    # refresh
        c.insert(3, arr(3))    # evicts 2
        assert c.contains(1) and not c.contains(2)

    def test_empty_stats(self, cost):
        stats = LRUCache(4, cost).stats
        assert (stats.evictions, stats.max_overflow_ids) == (0, 0)


class TestLRURecencyRegressions:
    """Regressions for the LRU bookkeeping fixes: a positive ``contains``
    probe must refresh recency, and a re-insert must retire the old
    entry's occupancy before storing the new one."""

    def test_contains_refreshes_recency(self, cost):
        c = LRUCache(4, cost)
        c.insert(1, arr(1))
        c.insert(2, arr(2))
        assert c.contains(1)    # probe must move 1 to the back
        c.insert(3, arr(3))     # evicts the true LRU: 2, not 1
        assert c.contains(1)
        assert not c.contains(2)

    def test_reinsert_reaccounts_occupancy(self, cost):
        c = LRUCache(100, cost)
        c.insert(1, arr(1, 2, 3))   # 4 ids
        c.insert(1, arr(9))         # shrink to 2 ids
        assert c.size_ids == 2
        assert list(c.get(1)) == [9]

    def test_reinsert_same_size_does_not_leak_ids(self, cost):
        c = LRUCache(6, cost)
        c.insert(1, arr(1, 2))      # 3 ids
        c.insert(1, arr(1, 2))      # stale accounting would make this 6
        c.insert(2, arr(3, 4))      # fits exactly when accounting is right
        assert c.size_ids == 6
        assert c.contains(1) and c.contains(2)
        assert c.stats.evictions == 0

    def test_replacement_is_not_an_eviction(self, cost):
        c = LRUCache(100, cost)
        c.insert(1, arr(1))
        c.insert(1, arr(2, 3))
        assert c.stats.evictions == 0


class TestLRBUOverflowRegression:
    def test_repin_sheds_stale_overflow(self, cost):
        """Re-pinning a resident entry must still drain overflow left from
        a previous batch: after release, evictable entries may not keep
        the cache above capacity past the one-batch overflow bound."""
        c = LRBUCache(2, cost)
        for v in (0, 1, 2):
            c.insert(v, arr(v))     # 2 ids each, all pinned: size 6
        assert c.size_ids == 6
        c.release()                 # all three become evictable
        c.insert(0, arr(0))         # re-pin 0; stale overflow must drain
        assert c.contains(0)
        assert c.size_ids == 2
        assert not c.contains(1) and not c.contains(2)
        assert c.stats.evictions == 2


# -- the fetch stage's bulk methods -------------------------------------------

IDS = 120


class _Pulls:
    """The slice of ``Cluster`` a fetch stage uses: the machine count,
    the owner of every id — by default a machine outside the cluster, so
    every read is remote — and a ``pull`` that answers entry sizes and
    logs each ``(requester, id)`` it is asked for."""

    def __init__(self, machines, sizes, owner=None):
        self.num_machines = machines
        self.sizes = sizes
        self.pgraph = SimpleNamespace(owner=np.full(IDS, machines)
                                      if owner is None else owner)
        self.pulled = []

    def pull(self, requester, ids):
        self.pulled += zip(np.broadcast_to(requester, ids.shape).tolist(),
                           ids.tolist())
        return self.sizes[ids]


def _state(c):
    return (np.flatnonzero(c.resident(np.arange(IDS))).tolist(), c.size_ids,
            c.num_sealed, len(c), c.stats.evictions, c.stats.max_overflow_ids)


def _bulk_batch(c, ids, sizes):
    """One batch through the bulk methods; returns ``(hits, misses)``."""
    hit = c.resident(ids)
    c.seal_many(ids[hit])
    c.admit(ids[~hit], sizes[ids[~hit]])
    return int(hit.sum()), int((~hit).sum())


def _fetch_batch(c, ids, sizes, rng):
    """One batch through the fetch stage, read twice over in a two-column
    block in random order; returns ``(hits, misses)``."""
    block = rng.permutation(np.concatenate((ids, ids))).reshape(-1, 2)
    hits, misses, _, lost = c.fetch(_Pulls(1, sizes), 0, block)
    assert len(lost) == 0
    return int(hits[0]), int(misses[0])


def _scalar_batch(c, ids, sizes):
    """Algorithm 4's fetch stage one vertex at a time; returns
    ``(hits, misses)``."""
    fetch = []
    for v in ids.tolist():
        if c.contains(v):
            c.seal(v)
        else:
            fetch.append(v)
    for v in fetch:
        c.insert(v, np.zeros(sizes[v] - 1, dtype=np.int64))
        c.seal(v)
    return len(ids) - len(fetch), len(fetch)


class TestBulkFetchStage:
    """The bulk methods and the fetch stage against the scalar
    Algorithm-3 methods; each test that goes through :meth:`fetch` runs
    its body on both paths of the classification pass (the compiled
    ``classify_reads`` and its numpy twin)."""

    @pytest.mark.parametrize("variant", ["lrbu", "lrbu-copy", "lrbu-lock"])
    def test_bulk_equals_scalar_replay_in_any_order(self, cost, variant):
        """240 overlapping batches through the bulk methods, through the
        scalar Algorithm-3 methods, through the bulk methods with each
        batch's ids shuffled and through the fetch stage with each id read
        twice: the same cache after every batch.  The capacity is small
        enough to evict and to overflow inside a batch."""
        for path in extend_paths():
            with extend_path(path):
                self._replay(cost, variant)

    @staticmethod
    def _replay(cost, variant):
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 9, size=IDS)
        capacity = 60
        bulk, scalar, shuffled, fetched = (make_cache(variant, capacity, cost)
                                           for _ in range(4))
        overflowed = 0
        for _ in range(240):
            ids = np.unique(rng.integers(0, IDS, size=rng.integers(1, 30)))
            assert (_bulk_batch(bulk, ids, sizes)
                    == _scalar_batch(scalar, rng.permutation(ids), sizes)
                    == _bulk_batch(shuffled, rng.permutation(ids), sizes)
                    == _fetch_batch(fetched, ids, sizes, rng))
            assert (_state(bulk) == _state(scalar) == _state(shuffled)
                    == _state(fetched))
            assert bulk.num_sealed == len(ids)
            overflowed += bulk.size_ids > capacity
            for c in (bulk, scalar, shuffled, fetched):
                c.release()
            assert (bulk.free_order() == scalar.free_order()
                    == shuffled.free_order() == fetched.free_order())
            assert sorted(bulk.free_order()) == _state(bulk)[0]
        assert bulk.stats.evictions > 500 and overflowed > 20
        assert 0 < bulk.stats.max_overflow_ids <= sizes.sum()

    def test_mixed_bulk_and_scalar_use_keeps_overflow_bound(self, cost):
        """§4.4 with both APIs on one cache: overflow never exceeds the
        in-flight batch's pinned footprint, and a scalar re-insert of a
        resident id still sheds what an earlier batch left over."""
        c = LRBUCache(10, cost)
        ids = np.arange(6)
        c.admit(ids, np.full(6, 3))          # one batch: 18 ids, all pinned
        assert c.size_ids == 18 and c.stats.max_overflow_ids == 8
        c.release()                          # S_free: 0 1 2 3 4 5
        c.seal_many(np.array([0]))
        c.insert(1, arr(7, 7))               # resident: re-pin + shed
        assert c.size_ids == 9 and c.stats.evictions == 3
        assert c.size_ids - c.capacity_ids <= 6     # pinned: entries 0, 1
        assert c.free_order() == [5] and c.num_sealed == 2
        c.seal(5)
        c.seal(5)                            # sealing twice pins once
        c.seal(42)                           # absent: harmless
        assert c.num_sealed == 3
        c.release()
        assert c.free_order() == [0, 1, 5] and c.num_sealed == 0
        assert list(c.get(1)) == [7, 7]
        with pytest.raises(KeyError):
            c.get(0)                         # bulk admission stores no value

    @given(k=st.integers(1, 4), capacity=st.sampled_from([None, 0, 12, 60]),
           variant=st.sampled_from(["lrbu", "lrbu-copy", "lrbu-lock"]),
           seed=st.integers(0, 2 ** 16))
    def test_stacked_fetch_equals_independent_caches(self, k, capacity,
                                                     variant, seed):
        """One cache for ``k`` machines fed stacked steps (the head batch
        of a random subset of machines, reads with repeats) against ``k``
        independent one-machine caches fed the same per-machine batches:
        per machine the same hits, misses and ticks, the same admissions
        and seals, the same evictions and ``free_order()``, and overflow
        never past one batch's footprint."""
        for path in extend_paths():
            with extend_path(path):
                self._stacked_against_alone(k, capacity, variant, seed)

    @staticmethod
    def _stacked_against_alone(k, capacity, variant, seed):
        cost = CostModel()
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, size=IDS)
        stacked = make_cache(variant, capacity, cost)
        alone = [make_cache(variant, capacity, cost) for _ in range(k)]
        footprint = [0] * k
        for _ in range(30):
            machines = np.flatnonzero(rng.random(k) < 0.7)
            batches = [rng.integers(0, IDS, size=rng.integers(1, 25))
                       for _ in machines]
            if not len(machines):
                continue
            got = stacked.fetch(_Pulls(k, sizes), np.repeat(machines, list(
                map(len, batches))), np.concatenate(batches)[:, None])
            assert len(got[3]) == 0
            for m, reads in zip(machines.tolist(), batches):
                want = alone[m].fetch(_Pulls(1, sizes), 0, reads[:, None])
                assert [int(x[m]) for x in got[:3]] == [int(x[0])
                                                        for x in want[:3]]
                distinct = np.unique(reads)
                assert (stacked.resident(np.arange(IDS), m).tolist()
                        == alone[m].resident(np.arange(IDS)).tolist())
                assert stacked.resident(distinct, m).all()
                # §4.4: the worst overflow stays within the largest pinned
                # footprint of one of the machine's batches
                footprint[m] = max(footprint[m], int(sizes[distinct].sum()))
                assert stacked.stats.overflow[m] <= footprint[m]
            assert stacked.num_sealed == sum(c.num_sealed for c in alone)
            stacked.release()
            for c in alone:
                c.release()
            assert stacked.num_sealed == 0
            for m, c in enumerate(alone):
                assert stacked.free_order(m) == c.free_order()
                assert stacked.occupancy(m) == c.size_ids
                assert stacked.stats.evicted[m] == c.stats.evictions
                assert stacked.stats.overflow[m] == c.stats.max_overflow_ids
        assert stacked.stats.evictions == sum(c.stats.evictions
                                              for c in alone)

    @given(k=st.integers(1, 4), width=st.integers(1, 3),
           capacity=st.sampled_from([None, 0, 12, 40]),
           variant=st.sampled_from(["lrbu", "lrbu-copy"]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=60)
    def test_compiled_classification_equals_numpy(self, k, width, capacity,
                                                  variant, seed):
        """Stacked blocks of ``width`` columns — reads repeated within and
        across rows, cells the row's own machine owns, several machines,
        reads sealed by a scalar ``seal`` before the step, a second block
        fetched before the release — through a cache with the library
        loaded and one without: the same ``(hits, misses, ticks, lost)``
        per fetch, the same pulls, the same pins before the release, and
        after it the same residency, ``free_order()``, occupancy and
        stats on every machine.  The capacity is small enough to evict
        and to overflow inside a step.  (``fetch`` is one numpy program;
        the compiled classification runs inside the compiled PULL-EXTEND
        step, which ``tests/test_pull_step.py`` holds to it.)"""
        if not kernels_loaded():
            pytest.skip("the compiled kernels are not loaded")
        cost = CostModel()
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 9, size=IDS)
        owner = rng.integers(0, k, size=IDS)
        caches = {path: make_cache(variant, capacity, cost)
                  for path in ("compiled", "numpy")}
        for _ in range(25):
            blocks = []
            for _ in range(int(rng.integers(1, 3))):
                rows = int(rng.integers(0, 30))
                block = rng.integers(0, IDS // 2, size=(rows, width))
                block[rng.random(block.shape) < 0.2] = 0     # a hot id
                blocks.append((np.sort(rng.integers(0, k, size=rows)),
                               block))
            machines, block = blocks[0]
            early = [(int(block[r, w]), int(machines[r]))
                     for r, w in zip(rng.integers(0, len(block), size=3),
                                     rng.integers(0, width, size=3))
                     ] if len(block) else []
            got = {}
            for path, c in caches.items():
                cluster = _Pulls(k, sizes, owner)
                with extend_path(path):
                    for v, m in early:
                        c.seal(v, m)
                    fetched = [c.fetch(cluster, *step) for step in blocks]
                    got[path] = fetched, sorted(cluster.pulled), c.num_sealed
                    c.release()
            (want, want_pulled, want_pins), (have, have_pulled, have_pins) = (
                got["numpy"], got["compiled"])
            for one, other in zip(have, want, strict=True):
                assert all(np.array_equal(a, b) for a, b in zip(one, other))
            assert have_pulled == want_pulled and have_pins == want_pins
            a, b = caches["compiled"], caches["numpy"]
            for m in range(k):
                assert (a.resident(np.arange(IDS), m).tolist()
                        == b.resident(np.arange(IDS), m).tolist())
                assert a.free_order(m) == b.free_order(m)
                assert a.occupancy(m) == b.occupancy(m)
            assert np.array_equal(a.stats.evicted, b.stats.evicted)
            assert np.array_equal(a.stats.overflow, b.stats.overflow)
            assert a.num_sealed == b.num_sealed == 0

    def test_compiled_classification_refuses_reads_outside(self, cost):
        """the fetch stage indexes the cache's state by machine and id and
        the owner column by id, so a machine id past the cluster, a
        negative vertex or one past the graph is refused before it
        writes"""
        sizes = np.ones(IDS, dtype=np.int64)
        block = np.array([[3, 4], [5, 6]])
        with extend_path("compiled"):
            c = make_cache("lrbu", 20, cost)
            for machines, cells in (([0, 2], block), ([0, -1], block),
                                    ([0, 1], block * [1, -1]),
                                    ([0, 1], block + [0, IDS])):
                with pytest.raises(ValueError):
                    c.fetch(_Pulls(2, sizes), np.array(machines), cells)
            assert len(c) == 0 and c.num_sealed == 0

    def test_ids_beyond_the_arrays_grow_them(self, cost):
        c = LRBUCache(None, cost)
        assert not c.contains(10 ** 6)
        assert not c.resident(np.array([5, 10 ** 5])).any()
        c.insert(10 ** 5 + 1, arr(1))
        assert c.contains(10 ** 5 + 1) and len(c) == 1


# -- the queues: S_free as flat per-machine FIFO rows ---------------------------


class TestQueues:
    """``S_free`` per machine is a row of ``(id, stamp)`` places between
    a head and a tail; a place is live while its id's order is its
    stamp.  What the flat layout must get right on its own: stale places,
    keys wider than one radix digit, pins across the rows growing, and
    ``lost`` read off the state."""

    def test_stale_places_are_skipped_by_eviction(self, cost):
        """A hit in ``S_free`` re-sealed and released again leaves its old
        queue place stale: eviction walks past it to the next live entry"""
        c = LRBUCache(6, cost)
        c.admit(arr(1, 2, 3), arr(2, 2, 2))
        c.release()                          # S_free: 1 2 3
        c.seal_many(arr(1))
        c.release()                          # S_free: 2 3 1 (1's old place stale)
        assert c.free_order() == [2, 3, 1]
        c.admit(arr(4, 5), arr(2, 2))        # evicts 2 and 3, not 1
        assert c.free_order() == [1]
        assert c.resident(arr(1, 2, 3, 4, 5)).tolist() == [
            True, False, False, True, True]
        assert c.stats.evictions == 2 and c.occupancy(0) == 6

    def test_release_files_wide_keys_by_machine_and_id(self, cost):
        """Keys ``m·|V| + v`` wider than one 11-bit radix digit, admitted
        in shuffled order on three machines, are filed per machine in
        ascending id order"""
        rng = np.random.default_rng(7)
        ids = [rng.choice(3000, size=400, replace=False) for _ in range(3)]
        c = LRBUCache(None, cost)
        for m, some in enumerate(ids):
            c.admit(some, np.full(len(some), 2), m)
        c.release()
        assert [c.free_order(m) for m in range(3)] == [
            sorted(some.tolist()) for some in ids]

    def test_pins_survive_the_rows_growing(self, cost):
        """Keys pinned before an id past the rows' width grows them are
        filed under their own machine and id"""
        c = LRBUCache(None, cost)
        c.admit(arr(5, 9), arr(2, 2), arr(0, 1))
        width = c._entry.shape[1]
        c.admit(arr(width + 3), arr(2), 1)     # the rows grow
        assert c._entry.shape[1] > width
        c.release()
        assert (c.free_order(0), c.free_order(1)) == ([5], [9, width + 3])

    def test_lost_names_pinned_keys_gone_from_the_cache(self, cost):
        """``lost`` is read off the state after the admission: a key the
        step pinned whose entry is gone (which sealing forbids — here
        cleared by hand) is reported"""
        c = LRBUCache(None, cost)
        c.admit(arr(3, 4), arr(2, 2))
        c.release()
        c.seal_many(arr(3, 4))
        c._entry[0, 4] = 0
        _, lost = c._admit(arr(0), arr(7), arr(2), 0)
        assert lost.tolist() == [4]
        _, lost = c._admit(arr(0), arr(8), arr(2), 2)
        assert lost.tolist() == []

    def test_negative_capacity_is_refused(self, cost):
        """the compiled step reads a negative capacity as unbounded"""
        with pytest.raises(ValueError):
            LRBUCache(-1, cost)
