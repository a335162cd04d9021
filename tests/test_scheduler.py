"""Tests for the DFS/BFS-adaptive scheduler (repro.core.scheduler)."""

import dataclasses

import numpy as np
import pytest

from repro.baselines import count_matches
from repro.cluster import Cluster
from repro.core import EngineConfig, HugeEngine, SchedulerConfig
from repro.core.operators import SinkConsumer
from repro.core.plan import ExecutionPlan, PlanNode, seed_plan, wco_plan
from repro.graph import generators as gen
from repro.query import ExactEstimator, QueryGraph, SubQuery, get_query


class TestSchedulerConfig:
    def test_defaults_valid(self):
        SchedulerConfig()

    def test_rejects_bad_stealing(self):
        with pytest.raises(ValueError):
            SchedulerConfig(stealing="maybe")

    def test_rejects_bad_chunk(self):
        with pytest.raises(ValueError):
            SchedulerConfig(scan_pivot_chunk=0)

    def test_rejects_negative_join_buffer(self):
        """a negative buffer would spill more than was buffered: the
        ledger would free bytes it never allocated"""
        with pytest.raises(ValueError, match="join_buffer_tuples"):
            SchedulerConfig(join_buffer_tuples=-1)
        SchedulerConfig(join_buffer_tuples=0)  # spill everything: valid

    @pytest.mark.parametrize("capacity", [float("nan"), -1, -0.5])
    def test_rejects_nan_or_negative_queue_capacity(self, capacity):
        """NaN never compares >=, so it would silently run pure BFS; a
        negative capacity would silently act as 0"""
        with pytest.raises(ValueError, match="output_queue_capacity"):
            SchedulerConfig(output_queue_capacity=capacity)
        with pytest.raises(ValueError, match="output_queue_capacity"):
            EngineConfig(output_queue_capacity=capacity)
        SchedulerConfig(output_queue_capacity=0)             # pure DFS
        SchedulerConfig(output_queue_capacity=float("inf"))  # pure BFS


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
        assert not cl.metrics.cur_mem_bytes.any()

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


def _sq(*edges):
    return SubQuery(frozenset(tuple(sorted(e)) for e in edges))


class _LeanSink(SinkConsumer):
    """A SINK that keeps only the widths of the rows it is handed, so a
    run that collects 1.8 M matches (q6 on GO) holds none of them."""

    last: "_LeanSink | None" = None

    def __init__(self, schema, collect=False):
        super().__init__(schema, collect)
        self.widths: set[int] = set()
        _LeanSink.last = self

    def consume(self, machines, rows):
        self.count += len(rows)
        self.widths.add(rows.shape[1])

    def matches(self):
        return []


class TestCountedJoin:
    """A PUSH-JOIN that is its chain's last operator, into a counting
    SINK, counts its kept key matches instead of gathering its rows (the
    compression optimisation, §7.1) — and charges exactly what the
    materialising join charges."""

    @staticmethod
    def _runs(monkeypatch, cluster, query=None, plan=None, **config):
        """The counting run, then the collecting run on the same plan;
        each with the ``(output width, materialise)`` of every join block
        the kernel cut."""
        from repro.core import engine, kernels

        join_block = kernels._join_block

        def spy(join, p0, counts, lo):
            blocks.append((join.width, join.materialise))
            return join_block(join, p0, counts, lo)
        monkeypatch.setattr(kernels, "_join_block", spy)
        monkeypatch.setattr(engine, "SinkConsumer", _LeanSink)
        runs = []
        for collect in (False, True):
            blocks = []
            cfg = EngineConfig(collect_results=collect, **config)
            result = HugeEngine(cluster, cfg).run(query, plan=plan)
            plan = result.plan
            runs.append((result, blocks, _LeanSink.last.widths))
        return runs

    @staticmethod
    def _same_run(counted, collected):
        assert counted.count == collected.count > 0
        assert (dataclasses.asdict(counted.report)
                == dataclasses.asdict(collected.report))
        assert counted.fetch_time_s == collected.fetch_time_s
        assert counted.cache_evictions == collected.cache_evictions

    @pytest.mark.parametrize("name, scale", [("q6", 1.0), ("q8", 0.7)])
    def test_root_join_on_go_counts(self, monkeypatch, name, scale):
        """q6 / GO and q8 / GO@0.7 end in a hash PUSH-JOIN into the SINK:
        counting, no block is gathered and the SINK is handed no rows; the
        count and every report field equal the collecting run's"""
        from repro.graph import load_dataset

        cluster = Cluster(load_dataset("GO", scale=scale), num_machines=10,
                          workers_per_machine=4, seed=1)
        q = get_query(name)
        (counted, cblocks, cwidths), (collected, wblocks, wwidths) = \
            self._runs(monkeypatch, cluster, q)
        assert counted.plan.root.setting.comm.value == "pushing"
        assert cblocks and {m for _, m in cblocks} == {False}
        assert wblocks and {m for _, m in wblocks} == {True}
        assert cwidths == set() and wwidths == {q.num_vertices}
        self._same_run(counted, collected)

    @pytest.mark.parametrize("batch_size", [1, 3])
    def test_one_pair_blocks_and_tiny_batches(self, monkeypatch,
                                              batch_size):
        """one key match per block and batches of 1 / 3: the counted
        join still cuts the same chunks and charges the same ticks"""
        from repro.core import kernels

        monkeypatch.setattr(kernels, "JOIN_BLOCK_PAIRS", 1)
        cluster = Cluster(gen.erdos_renyi(24, 0.2, seed=3), num_machines=3,
                          workers_per_machine=2, seed=1)
        q = get_query("q6")
        plan = ExecutionPlan(q, PlanNode(
            _sq(*q.edges), PlanNode(_sq((0, 1), (1, 2))),
            PlanNode(_sq((2, 3), (3, 4)))), name="q6-hash")
        (counted, cblocks, _), (collected, wblocks, _) = self._runs(
            monkeypatch, cluster, plan=plan, batch_size=batch_size)
        assert len(cblocks) > 100
        assert {m for _, m in cblocks} == {False}
        assert {m for _, m in wblocks} == {True}
        self._same_run(counted, collected)
        assert counted.count == count_matches(cluster.graph, q)

    def test_join_into_extend_or_join_materialises(self, monkeypatch):
        """a PUSH-JOIN that feeds a PULL-EXTEND (the 6-cycle closed by a
        wco join over a 5-path hash join) or a JoinBuffer (the inner join
        of a 7-path) gathers its rows in a counting run too; only the
        7-path's root join, which feeds the SINK, counts"""
        cluster = Cluster(gen.erdos_renyi(24, 0.2, seed=3), num_machines=3,
                          workers_per_machine=2, seed=1)
        path5 = PlanNode(_sq((0, 1), (1, 2), (2, 3), (3, 4)),
                         PlanNode(_sq((0, 1), (1, 2))),
                         PlanNode(_sq((2, 3), (3, 4))))
        q8 = get_query("q8")
        into_extend = ExecutionPlan(q8, PlanNode(
            _sq(*q8.edges), path5, PlanNode(_sq((4, 5), (5, 0)))),
            name="q8-join-then-extend")
        path7 = QueryGraph(7, [(i, i + 1) for i in range(6)], name="7path")
        into_join = ExecutionPlan(path7, PlanNode(
            _sq(*path7.edges), path5, PlanNode(_sq((4, 5), (5, 6)))),
            name="7path-bushy")
        for plan, counting in ((into_extend, set()),
                               (into_join, {(7, False)})):
            (counted, cblocks, _), (collected, wblocks, _) = self._runs(
                monkeypatch, cluster, plan=plan)
            assert set(cblocks) == {(5, True)} | counting
            assert {m for _, m in wblocks} == {True}
            assert counted.count == collected.count == count_matches(
                cluster.graph, plan.query) > 0
            if counting:  # a counted PULL-EXTEND charges fewer emits
                self._same_run(counted, collected)


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
        assert cl.metrics.steals.sum() > 0

    def test_no_stealing_means_no_steal_events(self, er_graph):
        cl = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                     seed=1)
        HugeEngine(cl, EngineConfig(stealing="none")).run(get_query("q1"))
        assert cl.metrics.steals.sum() == 0

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
        ctx = ExecContext(cluster, LRBUCache(None, cluster.cost))
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
        metrics = cluster.metrics
        assert metrics.steals[1:].sum() > 0
        # the stolen pivots are remote on the thieves: RPC pulls happened
        assert metrics.rpc_requests[1:].sum() > 0

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
        assert not cluster.metrics.steals.any()


class TestStackedSteps:
    def test_one_operator_call_per_step_across_machines(self, monkeypatch):
        """A 10-machine GO q1 run: every SCAN / PULL-EXTEND call takes at
        most one batch per machine (a machine's rows are one contiguous
        block of the machine column), so a step is one call, and there
        are fewer calls than (machine, batch) pairs processed — one call
        per machine per batch would make the counts equal."""
        from repro.core import operators
        from repro.graph import load_dataset

        calls = []

        def spy(cls):
            process = cls.process

            def wrapped(self, machines, rows, *args, **kwargs):
                column = np.broadcast_to(machines, len(rows))
                calls.append((self, column.copy()))
                return process(self, machines, rows, *args, **kwargs)
            monkeypatch.setattr(cls, "process", wrapped)

        spy(operators.ScanOp)
        spy(operators.ExtendOp)
        graph = load_dataset("GO")
        cluster = Cluster(graph, num_machines=10, workers_per_machine=4,
                          seed=1)
        config = EngineConfig()
        result = HugeEngine(cluster, config).run(get_query("q1"))
        assert result.count > 0 and calls
        pairs = 0
        for op, column in calls:
            machines = np.unique(column)
            # one contiguous block per machine, machines ascending
            assert (np.diff(column) >= 0).all()
            limit = (config.scan_pivot_chunk
                     if isinstance(op, operators.ScanOp)
                     else config.batch_size)
            assert np.bincount(column).max() <= limit
            pairs += len(machines)
        assert len(calls) < pairs
