"""Process worker pool: shared-memory graph residence, spawn safety,
crash recovery, shm lifecycle hygiene, and fused-kernel equivalence.

Process-spawning tests are deliberately few and batched (each service
start spawns real children); kernel and pickling tests are pure."""

from __future__ import annotations

import os
import pickle
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings

from repro.cluster import Cluster, CostModel
from repro.core.engine import EngineConfig, HugeEngine
from repro.core.cache import CACHE_VARIANTS, make_cache
from repro.core.dataflow import ExtendSpec
from repro.core import kernels
from repro.core.kernels import extend_step, fused_verify_mask
from repro.core.operators import ExecContext, ExtendOp
from repro.core.shm import SharedGraphStore
from repro.graph import Graph
from repro.graph import generators as gen
from repro.obs.metrics import MetricsRegistry
from repro.query.pattern import get_query
from repro.serve.driver import LoadDriver, WorkloadSpec
from repro.serve.procpool import WorkerTask, _strip_request
from repro.serve.request import QueryRequest, QueryStatus
from repro.serve.service import FaultInjector, QueryService
from repro.testing.serving import check_service_run

from .reference_kernels import PATHS, bound
from .test_extend_kernels import (_by_degree, _extend_cases, _member,
                                  _reference_extend)
from .test_graph import arc_table_sides


def _shm_exists(name: str) -> bool:
    return os.path.exists(f"/dev/shm/{name}")


# -- shared-memory residence ------------------------------------------------


class TestSharedGraphStore:
    def test_handle_round_trip_zero_copy(self, er_graph):
        store = SharedGraphStore()
        try:
            handle = store.handle("er", er_graph)
            # handles are pickle-cheap tickets (no graph bytes)
            assert len(pickle.dumps(handle)) < 2048
            g2 = pickle.loads(pickle.dumps(handle)).attach()
            assert np.array_equal(g2.indptr, er_graph.indptr)
            assert np.array_equal(g2.indices, er_graph.indices)
            assert not g2.indptr.flags.writeable
            assert not g2.indices.flags.writeable
            # the composite edge index is preloaded, never rebuilt; the
            # arc slot table is not shared — a child builds its own
            assert g2._composite is not None
            assert np.array_equal(g2._composite, er_graph.composite_index())
            assert g2._arcs is None
            # repeated attach returns the cached Graph object
            assert handle.attach() is g2
            # re-requesting the same (dataset, version) re-exports nothing
            assert store.handle("er", er_graph) is handle
            assert len(store.segment_names()) == 3
        finally:
            store.close()

    def test_close_unlinks_exactly_once(self, er_graph):
        store = SharedGraphStore()
        store.handle("er", er_graph)
        names = store.segment_names()
        assert names and all(_shm_exists(n) for n in names)
        store.close()
        assert all(not _shm_exists(n) for n in names)
        store.close()  # idempotent: second close must not raise
        with pytest.raises(RuntimeError):
            store._export_array("late", np.zeros(3, dtype=np.int64))


# -- spawn safety -----------------------------------------------------------


class TestSpawnSafety:
    """Everything that crosses the pipe must round-trip through pickle
    (the ``spawn`` start method shares nothing)."""

    def test_request_and_config_round_trip(self):
        cfg = EngineConfig(collect_results=True)
        req = QueryRequest(pattern="triangle", dataset="er", num_machines=2,
                           config=cfg, collect=True, tenant="alpha")
        clone = pickle.loads(pickle.dumps(req))
        assert clone.seq == req.seq  # identity is the seq, must survive
        assert clone.pattern == req.pattern
        assert clone.config.collect_results

    def test_strip_request_drops_cancellation_token(self):
        from repro.core.cancel import CancelToken

        cfg = EngineConfig(cancellation=CancelToken(deadline=1.0))
        req = QueryRequest(pattern="q1", dataset="er", config=cfg)
        stripped = _strip_request(req)
        assert stripped.config.cancellation is None
        assert stripped.seq == req.seq
        assert req.config.cancellation is not None  # caller's untouched
        # no token: nothing to strip, same object back
        bare = QueryRequest(pattern="q1", dataset="er")
        assert _strip_request(bare) is bare

    def test_plan_and_task_round_trip(self, er_graph):
        pattern = get_query("triangle")
        engine = HugeEngine(Cluster(er_graph, num_machines=2),
                            EngineConfig())
        plan = engine.plan(pattern)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.describe() == plan.describe()

        store = SharedGraphStore()
        try:
            task = WorkerTask(
                generation=7,
                request=QueryRequest(pattern=pattern, dataset="er"),
                pattern=pattern,
                graph=store.handle("er", er_graph),
                deadline=time.monotonic() + 60, crash_after=3)
            t2 = pickle.loads(pickle.dumps(task))
            assert t2.generation == 7
            assert t2.request.seq == task.request.seq
            assert np.array_equal(t2.graph.attach().indptr, er_graph.indptr)
        finally:
            store.close()


# -- end-to-end process pool ------------------------------------------------


class TestProcessPool:
    def test_oracles_event_labels_and_cancel(self, er_graph):
        """One batched end-to-end run: solo-identical oracles, events
        carrying worker pid + pool backend, and a mid-flight client
        cancel relayed into the child."""
        events = []
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           pool="process")
        svc.events.add(lambda kind, seq, f: events.append((kind, f)))
        svc.start()
        svc.wait_ready()
        try:
            reqs = [QueryRequest(pattern=p, dataset="er", num_machines=2,
                                 collect=c)
                    for p, c in (("triangle", True), ("q1", False),
                                 ("triangle", False), ("q2", False))]
            outcomes = [h.result(timeout=120)
                        for h in [svc.submit(r) for r in reqs]]
            assert all(o.status is QueryStatus.COMPLETED for o in outcomes)

            parent_pid = os.getpid()
            child_pids = {w.pid for w in svc._workers}
            assert parent_pid not in child_pids
            executing = [f for kind, f in events if kind == "executing"]
            assert executing
            for f in executing:
                assert f["backend"] == "process"
                assert f["pid"] in child_pids

            # client cancel mid-run: the shared cell aborts the child's
            # engine at its next poll, the parent restores the reason
            victim = QueryRequest(pattern="q4", dataset="er",
                                  num_machines=2)
            handle = svc.submit(victim)
            for _ in range(2000):
                if handle.status is QueryStatus.RUNNING:
                    break
                time.sleep(0.001)
            handle.cancel("client gave up")
            outcome = handle.result(timeout=120)
            # tiny queries may legitimately win the race and complete
            assert outcome.status in (QueryStatus.CANCELLED,
                                      QueryStatus.COMPLETED)
            if outcome.status is QueryStatus.CANCELLED:
                assert outcome.error == "client gave up"
        finally:
            svc.stop()
        assert not check_service_run(svc, reqs, outcomes, er_graph)

    def test_plan_cache_lookups_counted_from_the_children(self, er_graph):
        """Process workers look plans up in their own caches, never the
        parent's: ``stats()`` counts the lookups from the ``planned``
        events, so every completed request shows exactly one."""
        spec = WorkloadSpec(num_queries=6, dataset="er",
                            patterns=("triangle", "q1"), num_machines=2,
                            workers_per_machine=2, seed=5)
        driver = LoadDriver(er_graph, spec, num_workers=1, pool="process")
        report = driver.run()
        assert report.counts_by_status == {"completed": 6}
        pc = driver.service.stats().plan_cache
        assert pc["hits"] + pc["misses"] == report.service["completed"]
        # one child, two canonical patterns: two misses, the rest hits
        assert (pc["hits"], pc["misses"]) == (4, 2)
        assert len(driver.service.plan_cache) == 0  # parent never planned

    def test_crash_kill_and_segment_hygiene(self, er_graph):
        """Batched fault-tolerance run: injected child crash recovered
        by retry, a SIGKILL'ed child recovered, crash metrics labelled
        with the backend, and every shm segment unlinked exactly once
        on stop despite the carnage."""
        inj = FaultInjector()
        reg = MetricsRegistry()
        events = []
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           pool="process", injector=inj, metrics=reg,
                           backoff_base_s=0.01)
        svc.events.add(lambda kind, seq, f: events.append((kind, f)))
        svc.start()
        svc.wait_ready()
        try:
            reqs = [QueryRequest(pattern="triangle", dataset="er",
                                 num_machines=2),
                    QueryRequest(pattern="q1", dataset="er",
                                 num_machines=2)]
            inj.crash(reqs[0].seq, attempt=1, after_polls=3)
            outcomes = [h.result(timeout=120)
                        for h in [svc.submit(r) for r in reqs]]
            assert all(o.status is QueryStatus.COMPLETED for o in outcomes)
            assert outcomes[0].attempts == 2
            assert inj.injected == 1

            crash_events = [f for kind, f in events if kind == "crash"]
            assert crash_events
            assert crash_events[0]["backend"] == "process"
            assert crash_events[0]["pid"] != os.getpid()

            # a hard SIGKILL (no injected exception at all): the next
            # query rides the corpse, crashes, and retries to completion
            os.kill(svc._workers[0].pid, signal.SIGKILL)
            time.sleep(0.1)
            extra = [QueryRequest(pattern="triangle", dataset="er",
                                  num_machines=2) for _ in range(2)]
            outcomes2 = [h.result(timeout=120)
                         for h in [svc.submit(r) for r in extra]]
            assert all(o.status is QueryStatus.COMPLETED
                       for o in outcomes2)
            assert outcomes2[0].count == outcomes[0].count

            stats = svc.stats()
            assert stats.worker_crashes == 2
            assert reg.get("repro_serve_worker_crashes_total") \
                .get("process") == 2
            assert reg.get("repro_serve_retries_total").get("process") == 2
            assert stats.delivery_violations == 0

            segs = list(svc._procpool.store.segment_names())
            assert segs and all(_shm_exists(n) for n in segs)
        finally:
            svc.stop()
        assert not check_service_run(svc, reqs + extra,
                                     outcomes + outcomes2, er_graph,
                                     injected_crashes=1)
        assert all(not _shm_exists(n) for n in segs)
        svc.stop()  # idempotent; must not attempt a second unlink
        svc._procpool.close()


# -- fused PULL-EXTEND kernels ----------------------------------------------


class TestFusedKernels:
    @given(case=_extend_cases())
    @settings(max_examples=200)    # ~1 s; 25 examples miss an off-by-one bound
    def test_windowed_extend_equals_reference_property(self, case):
        """window-first, shrink-as-you-go extends equal the gather-all
        reference element for element"""
        g, rows, ext, lt, gt, labels = case
        new_label = None if labels is None else 1
        verts_sorted = _by_degree(g, rows[:, list(ext)])
        ref = _reference_extend(g, rows, verts_sorted, lt, gt, labels,
                                new_label)
        for path in PATHS:
            with bound(path):
                for h in arc_table_sides(g):
                    *got, lens = extend_step(h, rows, ext, lt, gt, labels,
                                             new_label)
                    for a, b in zip(got, ref, strict=True):
                        assert a.dtype == b.dtype and np.array_equal(a, b)
                    assert np.array_equal(lens, g.degrees()[verts_sorted])

    @pytest.mark.parametrize("seed", range(6))
    def test_fused_extend_matches_reference(self, seed):
        rng = np.random.default_rng(seed)
        g = gen.erdos_renyi(30 + 5 * seed, 0.15, seed=seed)
        n_rows, arity, W = int(rng.integers(1, 40)), 3, int(
            rng.integers(1, 3))
        rows = rng.integers(0, g.num_vertices, size=(n_rows, arity))
        verts = rows[:, :W].copy()
        labels = rng.integers(0, 3, size=g.num_vertices) \
            if seed % 2 else None
        new_label = 1 if labels is not None else None
        lt, gt = ((0,), (1,)) if seed % 3 == 0 else ((), (0,))
        # the candidates are the lists' intersection, whichever list
        # they come from, so the reference needs no sorted order
        ref = _reference_extend(g, rows, verts, lt, gt, labels, new_label)
        for path in PATHS:
            with bound(path):
                for h in arc_table_sides(g):
                    got = kernels.extend_candidates(h, rows, verts,
                                                    g.degrees()[verts], lt,
                                                    gt, labels, new_label)
                    for a, b in zip(got[:3], ref, strict=True):
                        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", range(6))
    def test_rowwise_and_vector_extend_charge_identical_ticks(self, seed):
        """the intersect stage agrees row for row with the references
        outside the operator — rows with ``_reference_extend``, ticks
        with the scalar ``CostModel.intersection_ops`` + penalty + emits —
        under an off-grid weight and every cache variant, each behind
        its own fetch stage"""
        rng = np.random.default_rng(seed)
        g = gen.erdos_renyi(30 + 5 * seed, 0.2, seed=seed)
        cost = CostModel(intersect_op=0.1, emit_op=0.7)
        variant = CACHE_VARIANTS[seed % len(CACHE_VARIANTS)]
        verify = seed % 2 == 1
        spec = (ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), verify_pos=2)
                if verify else
                ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2,
                           candidate_gt=(0,)))
        rows = rng.integers(0, g.num_vertices,
                            size=(int(rng.integers(1, 40)), 3 if verify else 2))
        # each row's extend vertices, smallest adjacency first (stable)
        by_len = [sorted(r[:2], key=g.degree) for r in rows.tolist()]
        if verify:
            emits = [int(all(g.has_edge(u, r[2]) for u in r[:2]))
                     for r in rows.tolist()]
            want_rows = [tuple(r) for r, e in zip(rows.tolist(), emits) if e]
        else:
            cand, row_ids, counts = _reference_extend(
                g, rows, np.asarray(by_len), (), (0,), None, None)
            emits = counts.tolist()
            want_rows = [(*rows[i].tolist(), c)
                         for i, c in zip(row_ids.tolist(), cand.tolist())]
        for path, h in ((path, h) for path in PATHS
                        for h in arc_table_sides(g)):
            cluster = Cluster(h, num_machines=3, cost=cost, seed=seed)
            owner = cluster.pgraph.owner
            cache = make_cache(variant, None, cost, workers=2)
            op = ExtendOp(spec, ExecContext(cluster, cache))
            for count_only in (False, True):
                with bound(path):
                    out, ticks, counted = op.process(0, rows, count_only)
                step = 1 if count_only else 3
                want = [cost.intersection_ops([g.degree(u) for u in vs],
                                              cluster.probe_ticks)
                        + sum(cache.access_penalty(g.degree(u))
                              for u in vs if owner[u] != 0)
                        + e * step * cost.ticks.emit
                        for vs, e in zip(by_len, emits)]
                assert ticks.dtype == np.int64
                assert ticks.tolist() == want
                assert counted.tolist() == emits
                if count_only:
                    assert len(out) == 0
                else:
                    assert out.tolist() == list(map(list, want_rows))

    def test_per_miss_fetch_equals_scalar_replay_under_eviction(self):
        """per-miss mode under a Cncr-LRU small enough to evict inside one
        batch: hits, misses, evictions and RPC pairs equal a scalar replay
        of the row-major remote access sequence"""
        g = gen.erdos_renyi(60, 0.2, seed=3)
        cluster = Cluster(g, num_machines=3, seed=3)
        owner = cluster.pgraph.owner
        capacity = 40
        cache = make_cache("cncr-lru", capacity, cluster.cost, workers=2)
        ctx = ExecContext(cluster, cache)
        op = ExtendOp(ExtendSpec(ext=(0, 2), out_schema=(0, 1, 2, 3),
                                 new_vertex=3), ctx)
        rows = np.random.default_rng(3).integers(0, 60, size=(64, 3))
        op.process(0, rows)

        lru, size, hits, misses, evictions = {}, 0, 0, 0, 0
        for u in rows[:, [0, 2]].ravel().tolist():
            if owner[u] == 0:
                continue
            if u in lru:
                hits += 1
                lru[u] = lru.pop(u)           # move to the back
                continue
            misses += 1
            while size + g.degree(u) + 1 > capacity and lru:
                size -= lru.pop(next(iter(lru)))
                evictions += 1
            lru[u] = g.degree(u) + 1
            size += lru[u]
        metrics = cluster.metrics
        assert evictions > 10 and hits > 0, "capacity must bite in-batch"
        assert cache.stats.evicted[0] == evictions
        assert (metrics.cache_hits[0], metrics.cache_misses[0]) == (hits,
                                                                    misses)
        assert metrics.rpc_requests[0] == misses
        assert list(cache._data[0]) == list(lru)

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_verify_matches_reference(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = gen.erdos_renyi(40, 0.2, seed=seed)
        n, W = 50, 2
        verts = rng.integers(0, g.num_vertices, size=(n, W))
        targets = rng.integers(0, g.num_vertices, size=n)
        labels = rng.integers(0, 2, size=g.num_vertices) \
            if seed % 2 else None
        new_label = 0 if labels is not None else None
        ref = np.ones(n, dtype=bool)
        for w in range(W):
            ref &= _member(g, verts[:, w], targets)
        if new_label is not None:
            ref &= labels[targets] == new_label
        for h in arc_table_sides(g):
            got = fused_verify_mask(h, verts, targets, labels, new_label)
            assert np.array_equal(got, ref)

    def test_empty_and_degenerate_shapes(self):
        g = gen.erdos_renyi(10, 0.3, seed=1)
        for path in PATHS:
            with bound(path):
                rows = np.zeros((0, 2), dtype=np.int64)
                cand, row_ids, counts, lens = kernels.extend_candidates(
                    g, rows, rows, rows.copy(), (), ())
                assert len(cand) == len(row_ids) == len(counts) == 0
                assert lens.shape == (0, 2)
                # W == 1: no membership columns at all, no probe made,
                # candidates pass through
                rows = np.array([[0, 1]], dtype=np.int64)
                h = Graph(g.indptr, g.indices)
                cand, row_ids, counts, _ = kernels.extend_candidates(
                    h, rows, rows[:, :1], g.degrees()[rows[:, :1]], (), ())
                nbrs = set(g.neighbours(0).tolist()) - {0, 1}
                assert set(cand.tolist()) == nbrs and counts[0] == len(nbrs)
                assert h._probes == 0 and h._arcs is None
