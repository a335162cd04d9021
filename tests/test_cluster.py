"""Tests for the simulated cluster substrate (cost, metrics, RPC)."""

import pytest

from repro.cluster import (Cluster, CostModel, Metrics, OutOfMemoryError,
                           OvertimeError)
from repro.cluster.cost import TICKS_PER_OP, to_ticks


class TestCostModel:
    def test_defaults_positive(self, cost):
        assert cost.compute_rate > 0
        assert cost.bandwidth_bytes_per_s > 0

    def test_with_overrides(self, cost):
        c2 = cost.with_overrides(compute_rate=1.0)
        assert c2.compute_rate == 1.0
        assert cost.compute_rate != 1.0  # original untouched

    def test_ops_to_seconds(self, cost):
        one_second = to_ticks(cost.compute_rate)
        assert cost.ticks_to_seconds(one_second) == pytest.approx(1.0)

    def test_tick_weights_round_each_weight_once(self):
        cost = CostModel(intersect_op=0.1, emit_op=1.0)
        assert cost.ticks.emit == TICKS_PER_OP
        assert cost.ticks.intersect == round(0.1 * TICKS_PER_OP)
        assert all(isinstance(t, int) for t in cost.ticks)
        # a derived view, not a field: overrides get their own
        assert cost.with_overrides(emit_op=2.0).ticks.emit == 2 * TICKS_PER_OP

    def test_probe_tick_table_is_integer_and_monotone(self, cost):
        table = cost.probe_tick_table(1000)
        assert table.dtype.kind == "i" and len(table) == 1001
        assert table[0] == cost.ticks.intersect       # log2(0 + 2) == 1
        assert (table[1:] >= table[:-1]).all()

    def test_transfer_seconds(self, cost):
        t = cost.transfer_seconds(cost.bandwidth_bytes_per_s, 0)
        assert t == pytest.approx(1.0)
        assert cost.transfer_seconds(0, 10) == pytest.approx(
            10 * cost.latency_s)

    def test_intersection_single_list(self, cost):
        assert cost.intersection_ops([100]) == 100 * cost.ticks.intersect

    def test_intersection_galloping_asymmetry(self, cost):
        # intersecting small×huge must cost ~small·log(huge), not ~huge
        small_huge = cost.intersection_ops([10, 100000])
        assert small_huge < 10 * 20 * cost.ticks.intersect
        assert small_huge < cost.intersection_ops([100000])

    def test_intersection_empty(self, cost):
        assert cost.intersection_ops([]) == 0

    def test_intersection_monotone_in_lists(self, cost):
        assert (cost.intersection_ops([10, 50, 50])
                > cost.intersection_ops([10, 50]))


class TestMetrics:
    def test_charge_ops_accumulates(self, cost):
        m = Metrics(2, 2, cost)
        m.charge_ops(0, 100)
        m.charge_ops(0, 50)
        assert m.machines[0].compute_ops == 150

    def test_ledger_rejects_floats(self, cost):
        m = Metrics(1, 1, cost)
        for call in (lambda: m.charge_ops(0, 1.5),
                     lambda: m.charge_worker_ops(0, [2.0]),
                     lambda: m.alloc(0, 8.0),
                     lambda: m.free(0, 8.0)):
            with pytest.raises(TypeError):
                call()

    def test_worker_attribution(self, cost):
        m = Metrics(1, 4, cost)
        m.charge_worker_ops(0, [10, 20, 30, 40])
        assert m.machines[0].worker_ops == [10, 20, 30, 40]
        assert m.machines[0].compute_ops == 100

    def test_absorb_adds_counters_and_keeps_the_larger_peak(self, cost):
        total, run = Metrics(2, 2, cost), Metrics(2, 2, cost)
        total.charge_ops(0, 5, worker=1)
        total.alloc(1, 64)
        run.charge_ops(0, 7, worker=1)
        run.send(0, 1, 100)
        run.record_rpc(0)
        run.alloc(1, 16)
        total.absorb(run)
        a, b = total.machines
        assert (a.compute_ops, a.worker_ops, a.bytes_sent,
                a.rpc_requests) == (12, [0, 12], 100, 1)
        assert (b.bytes_received, b.peak_mem_bytes, b.cur_mem_bytes) == (
            100, 64, 64)
        with pytest.raises(ValueError):
            total.absorb(Metrics(3, 2, cost))

    def test_send_local_is_free(self, cost):
        m = Metrics(2, 1, cost)
        m.send(0, 0, 1000)
        assert m.machines[0].bytes_sent == 0

    def test_send_remote_charges_both_sides(self, cost):
        m = Metrics(2, 1, cost)
        m.send(0, 1, 1000, messages=2)
        assert m.machines[0].bytes_sent == 1000
        assert m.machines[0].messages_sent == 2
        assert m.machines[1].bytes_received == 1000
        assert m.machines[1].messages_received == 2

    def test_memory_peak_tracking(self, cost):
        m = Metrics(1, 1, cost)
        m.alloc(0, 100)
        m.alloc(0, 200)
        m.free(0, 250)
        assert m.machines[0].peak_mem_bytes == 300
        assert m.machines[0].cur_mem_bytes == 50

    def test_free_never_negative(self, cost):
        m = Metrics(1, 1, cost)
        m.alloc(0, 10)
        m.free(0, 100)
        assert m.machines[0].cur_mem_bytes == 0

    def test_underflow_check_is_exact(self, cost):
        m = Metrics(1, 1, cost)
        m.alloc(0, 10)
        m.free(0, 10)
        assert m.machines[0].mem_underflows == 0
        m.alloc(0, 10)
        m.free(0, 11)   # one byte over: no slack hides it
        assert m.machines[0].mem_underflows == 1

    def test_oom_raised(self):
        cost = CostModel(memory_budget_bytes=1000)
        m = Metrics(1, 1, cost)
        with pytest.raises(OutOfMemoryError) as exc:
            m.alloc(0, 2000)
        assert exc.value.machine == 0

    def test_reserve_constant_counts_toward_budget(self):
        cost = CostModel(memory_budget_bytes=1000)
        m = Metrics(2, 1, cost)
        m.reserve_constant(900)
        with pytest.raises(OutOfMemoryError):
            m.alloc(1, 200)

    def test_overtime_raised(self):
        cost = CostModel(time_budget_s=1.0)
        m = Metrics(1, 1, cost)
        m.charge_kv_requests(0, round(2.0 / cost.kvstore_request_s))
        with pytest.raises(OvertimeError):
            m.check_time()

    def test_elapsed_is_slowest_machine(self, cost):
        m = Metrics(3, 1, cost)
        m.charge_ops(0, to_ticks(cost.compute_rate))       # 1 s
        m.charge_ops(2, 3 * to_ticks(cost.compute_rate))   # 3 s
        assert m.elapsed() == pytest.approx(3.0)

    def test_report_fields(self, cost):
        m = Metrics(2, 2, cost)
        m.charge_worker_ops(0, [100 * TICKS_PER_OP, 300 * TICKS_PER_OP])
        m.send(0, 1, 5000)
        m.alloc(1, 64)
        m.record_cache(0, hits=3, misses=1)
        rep = m.report()
        assert rep.total_time_s > 0
        assert rep.bytes_transferred == 5000
        assert rep.peak_memory_bytes == 64
        assert rep.cache_hit_rate == pytest.approx(0.75)
        assert rep.worker_time_stddev_s > 0
        assert len(rep.per_machine_time_s) == 2
        assert rep.comm_gb == pytest.approx(5e-6)

    def test_report_no_activity(self, cost):
        rep = Metrics(2, 2, cost).report()
        assert rep.total_time_s == 0
        assert rep.cache_hit_rate == 0.0
        assert rep.network_utilisation == 0.0

    def test_invalid_shape(self, cost):
        with pytest.raises(ValueError):
            Metrics(0, 1, cost)


class TestClusterRPC:
    def test_local_get_nbrs_free(self, cluster):
        v = cluster.local_vertices(0)[:1]
        sizes = cluster.pull(0, v)
        assert sizes.tolist() == [1 + cluster.graph.degree(int(v[0]))]
        assert cluster.metrics.machines[0].bytes_sent == 0
        assert cluster.metrics.machines[0].rpc_requests == 0

    def test_remote_get_nbrs_charged(self, cluster):
        v = cluster.local_vertices(1)[:1]
        sizes = cluster.pull(0, v)
        cost, m = cluster.cost, cluster.metrics.machines
        assert m[0].bytes_sent == (cost.rpc_request_overhead_bytes
                                   + cost.bytes_per_id)         # request
        assert m[1].bytes_sent == int(sizes[0]) * cost.bytes_per_id  # response
        assert m[0].rpc_requests == 1

    def test_rpc_batched_per_owner(self, cluster):
        # many vertices of one owner → exactly one request message pair
        cluster.pull(0, cluster.local_vertices(1)[:5])
        assert cluster.metrics.machines[0].messages_sent == 1
        assert cluster.metrics.machines[1].messages_sent == 1

    def test_get_nbrs_returns_correct_adjacency(self, cluster, er_graph):
        # a pull hands over entry sizes (1 + degree), local ids included;
        # the adjacency itself is the CSR's
        import numpy as np

        verts = np.array([cluster.local_vertices(p)[0] for p in range(4)])
        sizes = cluster.pull(0, verts)
        assert sizes.tolist() == [1 + len(er_graph.neighbours(int(v)))
                                  for v in verts]
        m = cluster.metrics.machines
        assert m[0].messages_sent == 3 and m[0].rpc_requests == 3
        assert [m[p].messages_sent for p in (1, 2, 3)] == [1, 1, 1]

    def test_push_accounting(self, cluster):
        cluster.push(0, 1, num_tuples=10, arity=3)
        assert cluster.metrics.machines[0].bytes_sent == 10 * 3 * 8

    def test_push_zero_tuples_free(self, cluster):
        cluster.push(0, 1, num_tuples=0, arity=3)
        assert cluster.metrics.machines[0].bytes_sent == 0

    def test_reset_metrics(self, cluster):
        cluster.push(0, 1, 10, 2)
        cluster.reset_metrics()
        assert cluster.metrics.machines[0].bytes_sent == 0

    def test_graph_bytes(self, cluster, er_graph):
        expected = (2 * er_graph.num_edges + er_graph.num_vertices) * 8
        assert cluster.graph_bytes() == expected
