"""Tests for the baseline engines: correctness + characteristic behaviour."""

import pytest

from repro.baselines import (BenuEngine, BigJoinEngine, DistributedRelation,
                             RadsEngine, SeedEngine, count_matches,
                             materialize_star, valid_leaf_patterns)
from repro.cluster import (Cluster, CostModel, OutOfMemoryError,
                           OvertimeError)
from repro.core import HugeEngine
from repro.graph import generators as gen
from repro.query import get_query, symmetry_break

QUERIES = ["triangle", "q1", "q2", "q3", "q6", "q7"]


class TestCorrectness:
    @pytest.mark.parametrize("name", QUERIES)
    def test_seed(self, name, cluster, er_graph):
        q = get_query(name)
        assert SeedEngine(cluster).run(q).count == count_matches(er_graph, q)

    @pytest.mark.parametrize("name", QUERIES)
    def test_bigjoin(self, name, cluster, er_graph):
        q = get_query(name)
        assert BigJoinEngine(cluster).run(q).count == \
            count_matches(er_graph, q)

    @pytest.mark.parametrize("name", QUERIES)
    def test_benu(self, name, cluster, er_graph):
        q = get_query(name)
        assert BenuEngine(cluster).run(q).count == count_matches(er_graph, q)

    @pytest.mark.parametrize("name", QUERIES)
    def test_rads(self, name, cluster, er_graph):
        q = get_query(name)
        assert RadsEngine(cluster).run(q).count == count_matches(er_graph, q)

    @pytest.mark.parametrize("name", ["q4", "q5", "q8"])
    def test_all_engines_agree_on_big_queries(self, name, ba_cluster,
                                              ba_graph):
        q = get_query(name)
        expect = count_matches(ba_graph, q)
        for engine in (SeedEngine(ba_cluster), BigJoinEngine(ba_cluster),
                       BenuEngine(ba_cluster), RadsEngine(ba_cluster),
                       HugeEngine(ba_cluster)):
            assert engine.run(q).count == expect

    def test_bigjoin_small_batches_correct(self, cluster, er_graph):
        q = get_query("q1")
        eng = BigJoinEngine(cluster, edge_batch=7)
        assert eng.run(q).count == count_matches(er_graph, q)

    def test_rads_region_groups_correct(self, cluster, er_graph):
        q = get_query("q1")
        for groups in (1, 2, 7):
            eng = RadsEngine(cluster, region_groups=groups)
            assert eng.run(q).count == count_matches(er_graph, q)

    def test_rads_invalid_groups(self, cluster):
        with pytest.raises(ValueError):
            RadsEngine(cluster, region_groups=0)


class TestCharacteristics:
    """The qualitative Table 1 profile on a skewed graph."""

    @pytest.fixture(scope="class")
    def skewed_results(self):
        g = gen.hub_web(300, num_hubs=2, hub_degree=80, seed=2)
        cl = Cluster(g, num_machines=4, workers_per_machine=4, seed=1)
        q = get_query("q1")
        out = {}
        for eng in (SeedEngine(cl), BigJoinEngine(cl), BenuEngine(cl),
                    RadsEngine(cl), HugeEngine(cl)):
            name = getattr(eng, "name", "HUGE")
            out[name] = eng.run(q)
        return out

    def test_all_counts_agree(self, skewed_results):
        counts = {r.count for r in skewed_results.values()}
        assert len(counts) == 1

    def test_huge_lowest_comm_volume(self, skewed_results):
        huge_c = skewed_results["HUGE"].report.bytes_transferred
        for name in ("SEED", "BiGJoin", "BENU"):
            assert skewed_results[name].report.bytes_transferred > huge_c

    def test_benu_smallest_memory(self, skewed_results):
        benu_m = skewed_results["BENU"].report.peak_memory_bytes
        for name in ("SEED", "BiGJoin", "RADS", "HUGE"):
            assert skewed_results[name].report.peak_memory_bytes >= benu_m

    def test_benu_slowest_and_compute_bound(self, skewed_results):
        benu = skewed_results["BENU"].report
        assert benu.total_time_s == max(
            r.report.total_time_s for r in skewed_results.values())
        assert benu.compute_time_s > benu.comm_time_s

    def test_huge_fastest(self, skewed_results):
        huge_t = skewed_results["HUGE"].report.total_time_s
        for name, r in skewed_results.items():
            if name != "HUGE":
                assert r.report.total_time_s > huge_t

    def test_pushing_systems_transfer_most(self, skewed_results):
        push = min(skewed_results[n].report.bytes_transferred
                   for n in ("SEED", "BiGJoin"))
        pull_like = skewed_results["HUGE"].report.bytes_transferred
        assert push > pull_like


class TestBuildingBlocks:
    def test_distributed_relation_memory_lifecycle(self, cluster):
        rel = DistributedRelation(cluster, (0, 1),
                                  [[(1, 2)], [], [(3, 4), (5, 6)], []])
        assert rel.total == 3
        assert cluster.metrics.cur_mem_bytes.sum() == 3 * 2 * 8
        rel.drop()
        assert cluster.metrics.cur_mem_bytes.sum() == 0

    def test_drop_idempotent(self, cluster):
        rel = DistributedRelation(cluster, (0,), [[(1,)], [], [], []])
        rel.drop()
        rel.drop()
        assert cluster.metrics.cur_mem_bytes[0] == 0

    def test_shuffle_groups_by_key(self, cluster):
        rel = DistributedRelation(
            cluster, (0, 1), [[(7, 1), (7, 2), (9, 3)], [], [], []])
        shuffled = rel.shuffle((0,))
        # same key → same machine
        homes = {}
        for m, part in enumerate(shuffled.partitions):
            for f in part:
                homes.setdefault(f[0], set()).add(m)
        assert all(len(ms) == 1 for ms in homes.values())

    def test_materialize_star_counts(self, cluster, er_graph):
        from repro.query import QueryGraph

        applied = set()
        star = QueryGraph(3, [(0, 1), (0, 2)])
        conditions = symmetry_break(star)
        rel = materialize_star(cluster, 0, [1, 2], conditions, applied)
        assert rel.total == count_matches(er_graph, star)

    def test_valid_leaf_patterns_unconstrained(self):
        assert len(valid_leaf_patterns(3, [])) == 6

    def test_valid_leaf_patterns_total_order(self):
        pats = valid_leaf_patterns(3, [(0, 1), (1, 2)])
        assert pats == [(0, 1, 2)]

    def test_valid_leaf_patterns_partial(self):
        pats = valid_leaf_patterns(3, [(0, 1)])
        assert len(pats) == 3


class TestKVStore:
    def test_get_requires_load(self, cluster):
        from repro.baselines import ExternalKVStore

        store = ExternalKVStore(cluster)
        with pytest.raises(RuntimeError):
            store.get(0, 1)

    def test_get_charges_stall_and_bytes(self, cluster, er_graph):
        from repro.baselines import ExternalKVStore
        import numpy as np

        store = ExternalKVStore(cluster, loaded=True)
        nbrs = store.get(0, 3)
        assert np.array_equal(nbrs, er_graph.neighbours(3))
        m = cluster.metrics
        assert m.kv_requests[0] == 1
        assert m.bytes_sent[0] > 0
        assert store.requests == 1

    def test_load_charges_time(self, cluster):
        from repro.baselines import ExternalKVStore

        store = ExternalKVStore(cluster)
        store.load()
        assert cluster.metrics.kv_requests[0] == cluster.graph.num_vertices

    def test_single_machine_cluster_still_charges_wire(self, er_graph):
        # regression: load's destination used to be ``1 % max(1, k)`` —
        # a machine-0 self-send on single-machine clusters, i.e. the whole
        # graph upload (and every get round trip) was accounted as free
        from repro.baselines import ExternalKVStore

        solo = Cluster(er_graph, num_machines=1, workers_per_machine=2)
        store = ExternalKVStore(solo)
        store.load()
        m = solo.metrics
        assert m.bytes_sent[0] == solo.graph_bytes()
        assert m.messages_sent[0] == er_graph.num_vertices

        sent_before = int(m.bytes_sent[0])
        store.get(0, 3)  # must not index a non-existent second machine
        assert m.bytes_sent[0] > sent_before
        assert m.messages_sent[0] == er_graph.num_vertices + 2
        assert m.rpc_requests[0] == 1

    def test_wire_charges_match_across_cluster_sizes(self, er_graph):
        # the external store's traffic is off-cluster: the sender-side
        # totals must not depend on how many in-cluster machines exist
        from repro.baselines import ExternalKVStore

        totals = []
        for k in (1, 2, 4):
            c = Cluster(er_graph, num_machines=k, workers_per_machine=2)
            store = ExternalKVStore(c)
            store.load()
            store.get(0, 3)
            totals.append((c.metrics.bytes_sent[0],
                           c.metrics.messages_sent[0]))
        assert totals[0] == totals[1] == totals[2]


class TestMemoryOracle:
    """Every exit of ``hash_join``/``materialize_star`` balances the
    simulated memory ledger: inputs are consumed, aborts release whatever
    partial output had been charged, and no path drives an allocator
    negative (``mem_underflows`` stays 0)."""

    @staticmethod
    def _assert_ledger_clean(cl):
        assert not cl.metrics.cur_mem_bytes.any()
        assert not cl.metrics.mem_underflows.any()

    @staticmethod
    def _skewed_pair(cl, rows=200):
        """Two relations sharing one hot key, so the join output lands on
        a single machine and dwarfs the inputs."""
        left = DistributedRelation(
            cl, (0, 1), [[(0, i + 1) for i in range(rows)], [], [], []])
        right = DistributedRelation(
            cl, (0, 2),
            [[], [(0, rows + i + 1) for i in range(rows)], [], []])
        return left, right

    def _fresh_cluster(self, er_graph, **cost_kwargs):
        return Cluster(er_graph, num_machines=4, workers_per_machine=4,
                       seed=1, cost=CostModel(**cost_kwargs))

    def test_hash_join_consumes_inputs(self, er_graph):
        cl = self._fresh_cluster(er_graph)
        left, right = self._skewed_pair(cl, rows=20)
        out = left.hash_join(right, [], set())
        # only the output remains charged: both inputs (and the shuffled
        # copies) were dropped on the way
        used = cl.metrics.cur_mem_bytes.sum()
        assert used == out.total * out.tuple_bytes()
        out.drop()
        self._assert_ledger_clean(cl)

    def test_hash_join_count_only_leaves_no_memory(self, er_graph):
        cl = self._fresh_cluster(er_graph)
        left, right = self._skewed_pair(cl, rows=20)
        count = left.hash_join(right, [], set(), count_only=True)
        assert isinstance(count, int) and count == 20 * 20
        self._assert_ledger_clean(cl)

    def test_hash_join_oom_abort_releases_everything(self, er_graph):
        # inputs (3.2 kB/side) fit; the first 4096-tuple output chunk
        # (~98 kB on the hot machine) trips the budget mid-join
        cl = self._fresh_cluster(er_graph, memory_budget_bytes=50_000)
        left, right = self._skewed_pair(cl)
        with pytest.raises(OutOfMemoryError):
            left.hash_join(right, [], set())
        self._assert_ledger_clean(cl)

    def test_hash_join_overtime_abort_releases_everything(self, er_graph):
        # calibrate: a full run's simulated time, then budget half of it so
        # some check_time() inside the join aborts the run
        cl = self._fresh_cluster(er_graph)
        left, right = self._skewed_pair(cl)
        left.hash_join(right, [], set()).drop()
        full = cl.metrics.report().total_time_s
        cl = self._fresh_cluster(er_graph, time_budget_s=full / 2)
        left, right = self._skewed_pair(cl)
        with pytest.raises(OvertimeError):
            left.hash_join(right, [], set())
        self._assert_ledger_clean(cl)

    def _run_star(self, er_graph, **cost_kwargs):
        from repro.query import QueryGraph

        cl = self._fresh_cluster(er_graph, **cost_kwargs)
        star = QueryGraph(3, [(0, 1), (0, 2)])
        rel = materialize_star(cl, 0, [1, 2], symmetry_break(star), set())
        return cl, rel

    def test_materialize_star_drop_balances(self, er_graph):
        cl, rel = self._run_star(er_graph)
        used = cl.metrics.cur_mem_bytes.sum()
        assert used == rel.total * rel.tuple_bytes()
        rel.drop()
        self._assert_ledger_clean(cl)

    def test_materialize_star_oom_abort_releases_charged(self, er_graph):
        cl, rel = self._run_star(er_graph)
        peak = cl.metrics.report().peak_memory_bytes
        rel.drop()
        # half the real peak: either the pre-flight prediction or an
        # incremental generation chunk must trip, releasing all charges
        cl = self._fresh_cluster(er_graph, memory_budget_bytes=peak / 2)
        from repro.query import QueryGraph

        star = QueryGraph(3, [(0, 1), (0, 2)])
        with pytest.raises(OutOfMemoryError):
            materialize_star(cl, 0, [1, 2], symmetry_break(star), set())
        self._assert_ledger_clean(cl)

    def test_materialize_star_overtime_abort_releases_charged(self,
                                                              er_graph):
        cl, rel = self._run_star(er_graph)
        full = cl.metrics.report().total_time_s
        rel.drop()
        from repro.query import QueryGraph

        star = QueryGraph(3, [(0, 1), (0, 2)])
        cl = self._fresh_cluster(er_graph, time_budget_s=full / 2)
        with pytest.raises(OvertimeError):
            materialize_star(cl, 0, [1, 2], symmetry_break(star), set())
        self._assert_ledger_clean(cl)
