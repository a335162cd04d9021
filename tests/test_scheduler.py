"""Tests for the DFS/BFS-adaptive scheduler (repro.core.scheduler)."""

import numpy as np
import pytest

from repro.baselines import count_matches
from repro.cluster import Cluster
from repro.core import EngineConfig, HugeEngine, SchedulerConfig
from repro.core.plan import seed_plan, wco_plan
from repro.graph import generators as gen
from repro.query import ExactEstimator, get_query


class TestSchedulerConfig:
    def test_defaults_valid(self):
        SchedulerConfig()

    def test_rejects_bad_stealing(self):
        with pytest.raises(ValueError):
            SchedulerConfig(stealing="maybe")

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            SchedulerConfig(scan_pivot_chunk=0)


class TestAdaptiveBehaviour:
    """queue capacity interpolates between DFS and BFS (Exp-7 mechanics)"""

    @pytest.fixture(scope="class")
    def sweep(self):
        g = gen.barabasi_albert(150, 3, seed=8)
        q = get_query("q6")  # 5-path: intermediate explosion
        out = {}
        for capacity in (8, 512, float("inf")):
            cl = Cluster(g, num_machines=4, workers_per_machine=2, seed=1)
            cfg = EngineConfig(output_queue_capacity=capacity)
            out[capacity] = HugeEngine(cl, cfg).run(q)
        return out

    def test_all_capacities_agree(self, sweep):
        assert len({r.count for r in sweep.values()}) == 1

    def test_bfs_needs_most_memory(self, sweep):
        mems = {c: r.report.peak_memory_bytes for c, r in sweep.items()}
        assert mems[float("inf")] == max(mems.values())
        assert mems[8] == min(mems.values())

    def test_dfs_is_slowest(self, sweep):
        times = {c: r.report.total_time_s for c, r in sweep.items()}
        assert times[8] == max(times.values())

    def test_adaptive_memory_bounded_under_explosion(self):
        """intermediates far exceed the queue bound; memory must not"""
        g = gen.hub_web(200, num_hubs=2, hub_degree=80, seed=1)
        q = get_query("q6")
        cl = Cluster(g, num_machines=4, workers_per_machine=2, seed=1)
        cfg = EngineConfig(output_queue_capacity=256, batch_size=64,
                           cache_capacity_ids=100)
        result = HugeEngine(cl, cfg).run(q)
        # queue memory: #extend-ops × (capacity + one batch overflow of
        # D_G each) tuples of ≤ |Vq| ids — the Theorem 5.4 structure
        per_machine_tuples = (q.num_vertices
                              * (256 + 64 * g.max_degree))
        bound = per_machine_tuples * q.num_vertices * 8 + 100 * 8
        assert result.report.peak_memory_bytes <= bound


class TestJoinSegments:
    def test_push_join_plan_end_to_end(self, er_graph):
        cl = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                     seed=1)
        q = get_query("q6")
        plan = seed_plan(q, ExactEstimator(er_graph))
        result = HugeEngine(cl).run(plan=plan)
        assert result.count == count_matches(er_graph, q)

    def test_join_buffers_released(self, er_graph):
        cl = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                     seed=1)
        q = get_query("q6")
        plan = seed_plan(q, ExactEstimator(er_graph))
        HugeEngine(cl).run(plan=plan)
        # after the run, all queue/buffer memory is freed (only the cache
        # reservation remains as the constant overhead)
        for m in cl.metrics.machines:
            assert m.cur_mem_bytes == 0

    def test_deep_plan_with_multiple_joins(self, er_graph):
        from repro.core.plan import ExecutionPlan, PlanNode
        from repro.query import SubQuery

        # hand-build a bushy two-join plan for the 6-cycle:
        # (path 0-1-2-3) ⋈ (path 3-4-5-0), each from wedge ⋈ edge
        def sq(*edges):
            return SubQuery(frozenset(tuple(sorted(e)) for e in edges))

        q = get_query("q8")
        left = PlanNode(sq((0, 1), (1, 2), (2, 3)),
                        PlanNode(sq((0, 1), (1, 2))), PlanNode(sq((2, 3))))
        right = PlanNode(sq((3, 4), (4, 5), (0, 5)),
                         PlanNode(sq((3, 4), (4, 5))), PlanNode(sq((0, 5))))
        plan = ExecutionPlan(q, PlanNode(
            sq(*q.edges), left, right), name="hand-bushy")
        cl = Cluster(er_graph, num_machines=3, workers_per_machine=2,
                     seed=2)
        result = HugeEngine(cl).run(plan=plan)
        assert result.count == count_matches(er_graph, q)


class TestStealingIntegration:
    def test_stealing_balances_machine_compute_on_skew(self):
        g = gen.hub_web(300, num_hubs=1, hub_degree=120, seed=4)
        q = get_query("q1")
        compute = {}
        for mode in ("full", "none"):
            cl = Cluster(g, num_machines=6, workers_per_machine=2, seed=1)
            cfg = EngineConfig(stealing=mode, steal_threshold=1.2,
                               batch_size=128, scan_pivot_chunk=8)
            r = HugeEngine(cl, cfg).run(q)
            compute[mode] = r.report.compute_time_s
        # stealing shifts work off the overloaded machine, cutting the
        # slowest machine's compute time (the transfer itself costs some
        # communication, so total time is compared in the benchmarks on
        # heavier skew)
        assert compute["full"] <= compute["none"]

    def test_stealing_records_events_on_skew(self):
        g = gen.hub_web(300, num_hubs=1, hub_degree=150, seed=4)
        cl = Cluster(g, num_machines=6, workers_per_machine=2, seed=1)
        HugeEngine(cl, EngineConfig(stealing="full", steal_threshold=1.2,
                                    batch_size=128,
                                    scan_pivot_chunk=8)).run(get_query("q1"))
        assert sum(m.steals for m in cl.metrics.machines) > 0

    def test_no_stealing_means_no_steal_events(self, er_graph):
        cl = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                     seed=1)
        HugeEngine(cl, EngineConfig(stealing="none")).run(get_query("q1"))
        assert sum(m.steals for m in cl.metrics.machines) == 0

    def test_worker_balance_with_stealing(self):
        g = gen.hub_web(300, num_hubs=1, hub_degree=150, seed=4)
        stddev = {}
        for mode in ("full", "none"):
            cl = Cluster(g, num_machines=4, workers_per_machine=4, seed=1)
            r = HugeEngine(cl, EngineConfig(stealing=mode, batch_size=128,
                                            scan_pivot_chunk=8)).run(
                get_query("q1"))
            stddev[mode] = r.report.worker_time_stddev_s
        assert stddev["full"] < stddev["none"]


class TestSourceExhaustedJumpForward:
    def test_jump_forward_reaches_loaded_downstream_operator(self, er_graph):
        """Algorithm 5's outer loop: when the source is exhausted and the
        first extend has no input, the scheduler must jump forward to the
        first operator that still has queued batches (scheduler.run's
        ``pending`` scan) instead of terminating."""
        from repro.core.cache import LRBUCache
        from repro.core.dataflow import ExtendSpec, ScanSpec, Segment
        from repro.core.operators import ExecContext, SinkConsumer
        from repro.core.scheduler import _ChainRunner

        cluster = Cluster(er_graph, num_machines=2, workers_per_machine=1,
                          seed=3)
        caches = [LRBUCache(None, cluster.cost) for _ in range(2)]
        ctx = ExecContext(cluster, caches)
        seg = Segment(source=ScanSpec(schema=(0, 1)), extends=[
            ExtendSpec(ext=(1,), out_schema=(0, 1, 2), new_vertex=2),
            ExtendSpec(ext=(2,), out_schema=(0, 1, 2, 3), new_vertex=3),
        ])
        sink = SinkConsumer(seg.out_schema, collect=False)
        runner = _ChainRunner(ctx, SchedulerConfig(batch_size=16,
                                                   stealing="none"), seg, sink)
        # exhaust the scan source before the chain ever runs
        for m in range(2):
            while runner.feed.has_input(m):
                runner.feed.next_batch(m)
        # ... but a batch is already waiting at the SECOND extend's input
        rows = [(0, 1, 2), (3, 4, 5), (6, 7, 8)]
        expected = 0
        for (u, v, w) in rows:
            expected += sum(1 for x in er_graph.neighbours(w).tolist()
                            if x not in (u, v, w))
        runner._enqueue(1, 0, np.asarray(rows, dtype=np.int64), 3)
        runner.run()
        assert sink.count == expected


class TestScanFeedInterMachineStealing:
    def test_stolen_pivot_chunks_are_pulled_remotely(self, er_graph):
        """Inter-machine stealing on the scan feed re-homes pivot chunks;
        the thief's ScanOp must pull the stolen pivots' adjacency with a
        GetNbrs RPC (they stay owned by the donor)."""
        from repro.graph.partition import PartitionedGraph

        q = get_query("q2")  # triangle
        expect = count_matches(er_graph, q)
        cluster = Cluster(er_graph, num_machines=3, workers_per_machine=1,
                          seed=1)
        # skew every vertex onto machine 0 so the scan feed starts wholly
        # imbalanced and stealing must move chunks to machines 1 and 2
        owner = np.zeros(er_graph.num_vertices, dtype=np.int64)
        cluster.pgraph = PartitionedGraph(er_graph, 3, owner=owner)
        cfg = EngineConfig(stealing="full", steal_threshold=1.5,
                           scan_pivot_chunk=4)
        result = HugeEngine(cluster, cfg,
                            estimator=ExactEstimator(er_graph)).run(q)
        assert result.count == expect
        machines = cluster.metrics.machines
        assert sum(m.steals for m in machines[1:]) > 0
        # the stolen pivots are remote on the thieves: RPC pulls happened
        assert sum(m.rpc_requests for m in machines[1:]) > 0

    def test_no_stealing_keeps_skewed_feed_local(self, er_graph):
        from repro.graph.partition import PartitionedGraph

        q = get_query("q2")
        expect = count_matches(er_graph, q)
        cluster = Cluster(er_graph, num_machines=3, workers_per_machine=1,
                          seed=1)
        owner = np.zeros(er_graph.num_vertices, dtype=np.int64)
        cluster.pgraph = PartitionedGraph(er_graph, 3, owner=owner)
        cfg = EngineConfig(stealing="none")
        result = HugeEngine(cluster, cfg,
                            estimator=ExactEstimator(er_graph)).run(q)
        assert result.count == expect
        assert all(m.steals == 0 for m in cluster.metrics.machines)
