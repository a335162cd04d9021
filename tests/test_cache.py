"""Tests for the LRBU cache and ablation variants (paper Algorithm 3)."""

import numpy as np
import pytest

from repro.cluster import CostModel
from repro.core import CACHE_VARIANTS, LRBUCache, LRUCache, make_cache


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

        class Pulls:
            """the slice of ``Cluster`` a fetch stage uses"""
            def pull(self, machine, ids):
                return sizes[ids]

        rng = np.random.default_rng(5)
        sizes = rng.integers(1, 9, size=IDS)
        c = make_cache("lru-inf", 10, cost)
        seen, hits, misses = {}, 0, 0
        for _ in range(40):
            reads = rng.integers(0, IDS, size=rng.integers(1, 60))
            found, fetched, _ticks, lost = c.fetch(Pulls(), 0, reads)
            distinct = set(reads.tolist())
            new = distinct - seen.keys()
            assert (found, fetched) == (len(distinct) - len(new), len(new))
            assert len(lost) == 0 and c.num_sealed == len(distinct)
            c.stats.count(hits=found, misses=fetched)
            c.release()
            hits, misses = hits + found, misses + fetched
            seen.update((v, int(sizes[v])) for v in new)
            assert (c.stats.hits, c.stats.misses, c.stats.evictions,
                    c.stats.max_overflow_ids) == (hits, misses, 0, 0)
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

    def test_stats_hit_rate(self, cost):
        c = LRUCache(4, cost)
        c.stats.hits = 3
        c.stats.misses = 1
        assert c.stats.hit_rate == pytest.approx(0.75)

    def test_empty_stats(self, cost):
        assert LRUCache(4, cost).stats.hit_rate == 0.0


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


def _state(c):
    return (np.flatnonzero(c.resident(np.arange(IDS))).tolist(), c.size_ids,
            c.num_sealed, len(c), c.stats.hits, c.stats.misses,
            c.stats.evictions, c.stats.max_overflow_ids)


def _bulk_batch(c, ids, sizes):
    hit = c.resident(ids)
    c.seal_many(ids[hit])
    c.admit(ids[~hit], sizes[ids[~hit]])
    c.stats.count(hits=int(hit.sum()), misses=int((~hit).sum()))


def _scalar_batch(c, ids, sizes):
    """Algorithm 4's fetch stage one vertex at a time."""
    fetch = []
    for v in ids.tolist():
        if c.contains(v):
            c.seal(v)
            c.stats.count(hits=1)
        else:
            fetch.append(v)
    for v in fetch:
        c.insert(v, np.zeros(sizes[v] - 1, dtype=np.int64))
        c.seal(v)
        c.stats.count(misses=1)


class TestBulkFetchStage:
    @pytest.mark.parametrize("variant", ["lrbu", "lrbu-copy", "lrbu-lock"])
    def test_bulk_equals_scalar_replay_in_any_order(self, cost, variant):
        """240 overlapping batches through the bulk methods, through the
        scalar Algorithm-3 methods, and through the bulk methods with each
        batch's ids shuffled: the same cache after every batch.  The
        capacity is small enough to evict and to overflow inside a batch."""
        rng = np.random.default_rng(11)
        sizes = rng.integers(1, 9, size=IDS)
        capacity = 60
        bulk, scalar, shuffled = (make_cache(variant, capacity, cost)
                                  for _ in range(3))
        overflowed = 0
        for _ in range(240):
            ids = np.unique(rng.integers(0, IDS, size=rng.integers(1, 30)))
            _bulk_batch(bulk, ids, sizes)
            _scalar_batch(scalar, rng.permutation(ids), sizes)
            _bulk_batch(shuffled, rng.permutation(ids), sizes)
            assert _state(bulk) == _state(scalar) == _state(shuffled)
            assert bulk.num_sealed == len(ids)
            overflowed += bulk.size_ids > capacity
            for c in (bulk, scalar, shuffled):
                c.release()
            assert (bulk.free_order() == scalar.free_order()
                    == shuffled.free_order())
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

    def test_ids_beyond_the_arrays_grow_them(self, cost):
        c = LRBUCache(None, cost)
        assert not c.contains(10 ** 6)
        assert not c.resident(np.array([5, 10 ** 5])).any()
        c.insert(10 ** 5 + 1, arr(1))
        assert c.contains(10 ** 5 + 1) and len(c) == 1
