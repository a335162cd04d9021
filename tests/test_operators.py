"""Unit tests for the runtime operators (repro.core.operators)."""


import numpy as np
import pytest

import repro.core.kernels as kernels
from repro.cluster import Cluster
from repro.core.cache import LRBUCache, make_cache
from repro.core.dataflow import ExtendSpec, JoinSpec, ScanSpec
from repro.core.kernels import hash_destinations
from repro.core.operators import (ExecContext, ExtendOp, JoinBuffer, ScanOp,
                                  SinkConsumer, join_stream)
from repro.graph import generators as gen
from repro.obs import Tracer, check_span_nesting

from .reference_ledger import columns
from .test_stream import python_calls


def as_rows(seq, arity=2):
    """A batch: an ``(n, arity)`` int64 array."""
    return np.asarray(seq, dtype=np.int64).reshape(-1, arity)


def tuples(batch):
    return [tuple(r) for r in batch.tolist()]


@pytest.fixture()
def ctx(er_graph):
    cluster = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                      seed=1)
    return ExecContext(cluster, LRBUCache(None, cluster.cost))


class TestScanOp:
    def test_emits_local_edges(self, ctx, er_graph):
        op = ScanOp(ScanSpec(schema=(0, 1)), ctx)
        pivots = ctx.cluster.local_vertices(0)
        out, costs, counted = op.process(0, pivots)
        assert counted.sum() == len(out)
        assert len(costs) == len(pivots)
        expect = sum(er_graph.degree(u) for u in pivots.tolist())
        assert len(out) == expect
        for u, v in tuples(out):
            assert er_graph.has_edge(u, v)

    def test_order_filter_lt(self, ctx):
        op = ScanOp(ScanSpec(schema=(0, 1), order="lt"), ctx)
        out, _, _ = op.process(0, ctx.cluster.local_vertices(0))
        assert all(u < v for u, v in tuples(out))

    def test_order_filter_gt(self, ctx):
        op = ScanOp(ScanSpec(schema=(0, 1), order="gt"), ctx)
        out, _, _ = op.process(0, ctx.cluster.local_vertices(0))
        assert all(u > v for u, v in tuples(out))

    def test_both_orders_partition_edges(self, ctx, er_graph):
        pivots = ctx.cluster.local_vertices(1)
        lt = ScanOp(ScanSpec(schema=(0, 1), order="lt"), ctx).process(
            1, pivots)[0]
        gt = ScanOp(ScanSpec(schema=(0, 1), order="gt"), ctx).process(
            1, pivots)[0]
        assert len(lt) + len(gt) == sum(er_graph.degree(u)
                                        for u in pivots.tolist())

    def test_stolen_remote_pivots(self, ctx, er_graph):
        """pivots owned elsewhere are pulled via RPC"""
        remote = ctx.cluster.local_vertices(1)[:3]
        out, _, _ = ScanOp(ScanSpec(schema=(0, 1)), ctx).process(0, remote)
        assert len(out) == sum(er_graph.degree(u) for u in remote.tolist())
        assert ctx.metrics.rpc_requests[0] >= 1


    @pytest.mark.parametrize("order", [None, "lt", "gt"])
    @pytest.mark.parametrize("labelled", [False, True])
    def test_columnar_scan_equals_per_pivot_loop(self, er_graph, order,
                                                 labelled):
        """rows, row order, per-pivot ticks and the RPC ledger equal the
        pivot-at-a-time loop the columnar pass replaced — local and
        stolen (remote) pivots, a pivot failing its label, an isolated
        pivot"""
        n = er_graph.num_vertices
        labels = (np.random.default_rng(2).integers(0, 2, size=n)
                  if labelled else None)
        spec = ScanSpec(schema=(0, 1), order=order,
                        labels=(1, 0) if labelled else (None, None))
        parr = np.random.default_rng(4).permutation(n)
        pivots = parr.tolist()

        def run(scan):
            cluster = Cluster(er_graph, num_machines=4, seed=1, labels=labels)
            ctx = ExecContext(cluster, LRBUCache(None, cluster.cost))
            return scan(ctx), columns(cluster.metrics)

        def loop(ctx):
            t, rows, costs = ctx.cost.ticks, [], []
            ctx.cluster.pull(0, parr[ctx.cluster.pgraph.owner[parr] != 0])
            for u in pivots:
                if labelled and labels[u] != 1:
                    costs.append(t.scan)
                    continue
                nbrs = er_graph.neighbours(u).tolist()
                vs = [v for v in nbrs
                      if (order != "lt" or v > u) and (order != "gt" or v < u)
                      and (not labelled or labels[v] == 0)]
                rows += [(u, v) for v in vs]
                costs.append(len(nbrs) * t.scan + len(vs) * 2 * t.emit)
            return rows, costs

        (rows, costs), want_ledger = run(loop)
        (out, got_costs, counted), ledger = run(
            lambda ctx: ScanOp(spec, ctx).process(0, parr))
        assert tuples(out) == rows and counted.sum() == len(rows)
        assert got_costs.dtype == np.int64 and got_costs.tolist() == costs
        assert ledger == want_ledger and ledger["rpc_requests"][0] == 3

    def test_empty_chunk(self, ctx):
        out, costs, _ = ScanOp(ScanSpec(schema=(0, 1)), ctx).process(
            0, np.empty(0, dtype=np.int64))
        assert out.shape == (0, 2) and len(costs) == 0


class TestNoPerVertexPython:
    """A count, not a timing (``sys.setprofile`` ``"call"`` events): the
    fetch stage and the SCAN are array programs, so a batch with more
    distinct vertices makes no more Python calls.  With the per-vertex
    loops a remote vertex cost about 9 calls on a cold cache and 3 on a
    warm one, a pivot 2."""

    def test_extend_calls_do_not_scale_with_remote_vertices(self):
        g = gen.erdos_renyi(2000, 0.004, seed=6)
        cluster = Cluster(g, num_machines=4, seed=1)
        remote = np.flatnonzero(cluster.pgraph.owner != 0)
        local = np.flatnonzero(cluster.pgraph.owner == 0)
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)

        def calls(distinct, warm):
            ctx = ExecContext(cluster, LRBUCache(None, cluster.cost))
            op = ExtendOp(spec, ctx)
            rows = np.column_stack((np.resize(remote[:distinct], 512),
                                    np.resize(local, 512)))
            if warm:
                op.process(0, rows)
            before = int(ctx.metrics.cache_misses[0])
            n = python_calls(lambda: op.process(0, rows))
            misses = ctx.metrics.cache_misses[0] - before
            assert misses == (0 if warm else distinct)
            return n

        for warm in (False, True):
            assert (calls(512, warm) - calls(32, warm)) / 480 < 1

    def test_scan_calls_do_not_scale_with_pivots(self):
        cluster = Cluster(gen.erdos_renyi(400, 0.03, seed=6), num_machines=4,
                          seed=1)
        ctx = ExecContext(cluster, LRBUCache(None, cluster.cost))
        op = ScanOp(ScanSpec(schema=(0, 1), order="lt"), ctx)
        # half local, half stolen from machine 1
        pivots = np.column_stack((cluster.local_vertices(0)[:32],
                                  cluster.local_vertices(1)[:32])).ravel()
        few = python_calls(lambda: op.process(0, pivots[:8]))
        many = python_calls(lambda: op.process(0, pivots))
        assert len(pivots) == 64 and (many - few) / 56 < 1


class TestExtendOp:
    def _edge_batch(self, ctx, machine):
        out, _, _ = ScanOp(ScanSpec(schema=(0, 1), order="lt"),
                           ctx).process(
            machine, ctx.cluster.local_vertices(machine))
        return out

    def test_extension_produces_wedges(self, ctx, er_graph):
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        batch = self._edge_batch(ctx, 0)
        out, costs, _ = op.process(0, batch)
        assert len(costs) == len(batch)
        for (u, v, w) in tuples(out):
            assert er_graph.has_edge(u, w)
            assert w != v and w != u  # injectivity

    def test_two_way_intersection_closes_triangles(self, ctx, er_graph):
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        batch = self._edge_batch(ctx, 0)
        out, _, _ = op.process(0, batch)
        for (u, v, w) in tuples(out):
            assert er_graph.has_edge(u, w) and er_graph.has_edge(v, w)

    def test_candidate_order_conditions(self, ctx):
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1, 2), new_vertex=2,
                          candidate_gt=(0,), candidate_lt=(1,))
        out, _, _ = ExtendOp(spec, ctx).process(0, self._edge_batch(ctx, 0))
        for (u, v, w) in tuples(out):
            assert w > u and w < v

    def test_verify_extend_checks_edge(self, ctx, er_graph):
        # verify that f[0] is a neighbour of f[1]: always true for edges
        spec = ExtendSpec(ext=(1,), out_schema=(0, 1), verify_pos=0)
        batch = self._edge_batch(ctx, 0)
        out, _, _ = ExtendOp(spec, ctx).process(0, batch)
        assert np.array_equal(out, batch)

    def test_verify_extend_filters_non_edges(self, ctx, er_graph):
        spec = ExtendSpec(ext=(1,), out_schema=(0, 1), verify_pos=0)
        non_edges = []
        for u in range(er_graph.num_vertices):
            for v in range(er_graph.num_vertices):
                if u != v and not er_graph.has_edge(u, v):
                    non_edges.append((u, v))
                if len(non_edges) >= 10:
                    break
            if len(non_edges) >= 10:
                break
        out, _, _ = ExtendOp(spec, ctx).process(0, as_rows(non_edges))
        assert out.shape == (0, 2)

    def test_count_only_matches_materialised(self, ctx):
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        batch = self._edge_batch(ctx, 0)
        out, _, _ = op.process(0, batch)
        _, _, counted = op.process(0, batch, count_only=True)
        assert counted.sum() == len(out)

    def test_fetch_stage_seals_and_releases(self, ctx):
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        op.process(0, self._edge_batch(ctx, 0))
        # after the batch, everything is released
        assert ctx.cache.num_sealed == 0

    def test_remote_reads_populate_cache(self, ctx):
        spec = ExtendSpec(ext=(1,), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        op.process(0, self._edge_batch(ctx, 0))
        assert len(ctx.cache) > 0
        assert ctx.metrics.cache_misses[0] > 0

    def test_second_pass_hits_cache(self, ctx):
        spec = ExtendSpec(ext=(1,), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        batch = self._edge_batch(ctx, 0)
        op.process(0, batch)
        before = int(ctx.metrics.cache_hits[0])
        op.process(0, batch)
        assert ctx.metrics.cache_hits[0] > before


class TestPerMissMode:
    def test_cncr_lru_pays_per_miss_rpcs(self, er_graph):
        cluster = Cluster(er_graph, num_machines=4, seed=1)
        ctx = ExecContext(cluster, make_cache("cncr-lru", 10_000,
                                              cluster.cost, workers=4))
        spec = ExtendSpec(ext=(1,), out_schema=(0, 1, 2), new_vertex=2)
        op = ExtendOp(spec, ctx)
        scan = ScanOp(ScanSpec(schema=(0, 1)), ctx)
        batch, _, _ = scan.process(0, cluster.local_vertices(0))
        op.process(0, batch)
        # per-miss RPCs: one request pair per remote miss, not per batch
        misses = cluster.metrics.cache_misses[0]
        assert misses > 0
        assert cluster.metrics.rpc_requests[0] == misses


class TestSink:
    def test_counting(self):
        sink = SinkConsumer(schema=(0, 1))
        sink.consume(0, as_rows([(1, 2), (3, 4)]))
        sink.consume_count(1, 5)
        assert sink.count == 7

    def test_matches_require_collect(self):
        sink = SinkConsumer(schema=(0, 1))
        with pytest.raises(ValueError):
            sink.matches()

    def test_matches_reordered_by_schema(self):
        sink = SinkConsumer(schema=(2, 0, 1), collect=True)
        sink.consume(0, as_rows([(30, 10, 20)], arity=3))
        assert sink.matches() == [(10, 20, 30)]


class TestJoinBufferAndStream:
    def test_shuffle_and_join(self, ctx):
        spec = JoinSpec(left_key=(1,), right_key=(0,), right_carry=(1,),
                        out_schema=(0, 1, 2))
        left = JoinBuffer(ctx, spec.left_key, arity=2, buffer_tuples=1000)
        right = JoinBuffer(ctx, spec.right_key, arity=2, buffer_tuples=1000)
        left.consume(0, as_rows([(1, 2), (3, 4)]))
        right.consume(1, as_rows([(2, 9), (4, 7), (5, 1)]))
        out = []
        for m in range(ctx.cluster.num_machines):
            for batch in join_stream(ctx, spec, left, right, m, 100):
                out.extend(tuples(batch))
        assert sorted(out) == [(1, 2, 9), (3, 4, 7)]

    def test_cross_distinct_filter(self, ctx):
        spec = JoinSpec(left_key=(1,), right_key=(0,), right_carry=(1,),
                        out_schema=(0, 1, 2), cross_distinct=((0, 2),))
        left = JoinBuffer(ctx, spec.left_key, 2, 1000)
        right = JoinBuffer(ctx, spec.right_key, 2, 1000)
        left.consume(0, as_rows([(1, 2)]))
        right.consume(0, as_rows([(2, 1), (2, 9)]))  # (1,2,1) is not distinct
        out = []
        for m in range(ctx.cluster.num_machines):
            for batch in join_stream(ctx, spec, left, right, m, 100):
                out.extend(tuples(batch))
        assert out == [(1, 2, 9)]

    def test_cross_condition_filter(self, ctx):
        spec = JoinSpec(left_key=(1,), right_key=(0,), right_carry=(1,),
                        out_schema=(0, 1, 2), cross_conditions=((0, 2),))
        left = JoinBuffer(ctx, spec.left_key, 2, 1000)
        right = JoinBuffer(ctx, spec.right_key, 2, 1000)
        left.consume(0, as_rows([(5, 2)]))
        right.consume(0, as_rows([(2, 3), (2, 9)]))  # out[0] < out[2]: 5 < x
        out = []
        for m in range(ctx.cluster.num_machines):
            for batch in join_stream(ctx, spec, left, right, m, 100):
                out.extend(tuples(batch))
        assert out == [(5, 2, 9)]

    def test_same_key_same_machine(self, ctx):
        buf = JoinBuffer(ctx, (0,), arity=2, buffer_tuples=1000)
        buf.consume(0, as_rows([(7, 1), (7, 99)]))
        assert sorted(len(buf.rows_for(m)) for m in range(4)) == [0, 0, 0, 2]

    def test_spill_bounds_memory(self, ctx):
        buf = JoinBuffer(ctx, (0,), arity=2, buffer_tuples=10)
        # funnel many tuples with one key to one machine
        buf.consume(0, as_rows([(5, i) for i in range(200)]))
        buf.file()  # the round barrier ships what consume staged
        dest = int(hash_destinations(as_rows([(5,)], arity=1), 4)[0])
        spilled = ctx.metrics.spilled_bytes[dest]
        assert spilled > 0
        # in-memory share stays at the threshold
        assert buf._in_memory[dest] <= 10

    def test_shuffle_charges_network(self, ctx):
        buf = JoinBuffer(ctx, (0,), arity=2, buffer_tuples=1000)
        buf.consume(0, as_rows([(i, i + 1) for i in range(50)]))
        buf.file()  # the round barrier ships what consume staged
        assert ctx.metrics.bytes_sent.sum() > 0


class TestJoinStreamRelease:
    def _buffers(self, ctx):
        spec = JoinSpec(left_key=(1,), right_key=(0,), right_carry=(1,),
                        out_schema=(0, 1, 2))
        left = JoinBuffer(ctx, spec.left_key, arity=2, buffer_tuples=1000)
        right = JoinBuffer(ctx, spec.right_key, arity=2, buffer_tuples=1000)
        left.consume(0, as_rows([(i, i + 1) for i in range(40)]))
        right.consume(1, as_rows([(i + 1, i) for i in range(40)]))
        return spec, left, right

    def test_consumed_stream_releases_buffers(self, ctx):
        spec, left, right = self._buffers(ctx)
        for m in range(ctx.cluster.num_machines):
            for _ in join_stream(ctx, spec, left, right, m, 100):
                pass
        assert not ctx.metrics.cur_mem_bytes.any()
        assert not ctx.metrics.mem_underflows.any()

    def test_abandoned_stream_releases_buffers(self, ctx):
        """an early-terminated generator must not leak buffered memory
        from the ledger: the release runs in a finally"""
        spec, left, right = self._buffers(ctx)
        for m in range(ctx.cluster.num_machines):
            stream = join_stream(ctx, spec, left, right, m, 1)
            next(stream, None)      # consume at most one chunk ...
            stream.close()          # ... then abandon the generator
        assert not ctx.metrics.cur_mem_bytes.any()
        assert not ctx.metrics.mem_underflows.any()

    def test_abandoned_mid_block_releases_buffers(self, ctx, monkeypatch):
        """abandoned while a block's rows are still being cut into
        batches: the ledger drains all the same"""
        monkeypatch.setattr(kernels, "JOIN_BLOCK_PAIRS", 8)
        spec, left, right = self._buffers(ctx)
        for m in range(ctx.cluster.num_machines):
            stream = join_stream(ctx, spec, left, right, m, 3)
            next(stream, None)      # a 3-row batch of an 8-pair block
            stream.close()
        assert not ctx.metrics.cur_mem_bytes.any()
        assert not ctx.metrics.mem_underflows.any()


def _traced_join(er_graph, batch_size):
    """Every machine's join of two sides with long buckets, traced, with
    a consumer that spends ticks between batches; returns the batches,
    the ledger and the trace."""
    cluster = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                      seed=1)
    tracer = Tracer()
    tracer.bind(cluster.metrics)
    ctx = ExecContext(cluster, None, tracer)
    spec = JoinSpec(left_key=(1,), right_key=(0,), right_carry=(1,),
                    out_schema=(0, 1, 2), cross_distinct=((0, 2),),
                    cross_conditions=((0, 2),))
    left = JoinBuffer(ctx, spec.left_key, arity=2, buffer_tuples=40)
    right = JoinBuffer(ctx, spec.right_key, arity=2, buffer_tuples=40)
    left.consume(0, as_rows([(i, i % 5) for i in range(60)]))
    right.consume(1, as_rows([(i % 5, i) for i in range(70)]))
    batches = []
    for m in range(cluster.num_machines):
        for batch in join_stream(ctx, spec, left, right, m, batch_size):
            batches.append((m, tuples(batch)))
            t0 = tracer.now(m)
            ctx.metrics.charge_ops(m, 1000)
            tracer.complete("consume", m, t0, tracer.now(m))
    ledger = columns(cluster.metrics)
    return batches, ledger, tracer.trace


@pytest.mark.parametrize("batch_size", [1, 7, 64])
def test_join_stream_one_pair_blocks_change_nothing(er_graph, monkeypatch,
                                                    batch_size):
    """one key match per block: the same batches, the same ledger and
    the same strictly nested probe spans as the default budget"""
    want = _traced_join(er_graph, batch_size)
    monkeypatch.setattr(kernels, "JOIN_BLOCK_PAIRS", 1)
    got = _traced_join(er_graph, batch_size)
    assert got[0] == want[0] and len(got[0]) > 1
    assert got[1] == want[1]
    assert list(got[2].spans) == list(want[2].spans)
    assert sum(1 for s in got[2].spans if s.name == "probe") > 4
    assert check_span_nesting(got[2]) == []
