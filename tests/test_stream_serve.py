"""Serving-tier tests for streaming updates and standing subscriptions.

The contract under test: ``QueryService.apply_updates`` swaps in a new
immutable snapshot (bumping the dataset's graph version, so queries run
on it from then on), fans exactly one signed delta batch per standing
subscription through the worker pool for each update, and the
accumulated deliveries stay bit-identical to from-scratch enumeration
on the final graph — under both pool backends, with the metrics
registry and the event stream reflecting what happened.
"""

from __future__ import annotations

import pytest

from repro.baselines import enumerate_matches
from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph import load_dataset, temporal_edge_stream
from repro.obs import MetricsRegistry
from repro.query import get_query
from repro.serve import (QueryRequest, QueryService, QueryStatus,
                         SubscribeRequest)

from .reference_kernels import PATHS, bound

TRIANGLE = get_query("triangle")


def brute_count(graph, pattern):
    return sum(1 for _ in enumerate_matches(graph, pattern))


@pytest.fixture()
def service(er_graph):
    svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                       backoff_base_s=0.01).start()
    yield svc
    svc.stop()


def test_subscribe_then_update_delivers_signed_deltas(service, er_graph):
    sub = service.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="er", bootstrap=True))
    boot = sub.poll(timeout=5.0)
    assert boot is not None and boot.seq == 0
    assert len(boot.additions) == brute_count(er_graph, TRIANGLE)
    assert sub.count == len(boot.additions)

    # drop one edge that carries at least one triangle
    victim = next(tuple(m[:2]) for m in boot.additions)
    victim = (min(victim), max(victim))
    report = service.apply_updates("er", deletes=[victim])
    assert report.version == 1 and not report.timed_out
    assert len(report.batches) == 1
    batch = sub.poll(timeout=5.0)
    assert batch is not None and batch.seq == 1
    assert batch.deleted == (victim,)
    assert len(batch.retractions) >= 1 and batch.additions == ()
    assert batch.error is None
    assert sub.count == boot.count_after + batch.net
    assert sub.count == brute_count(service._graphs["er"], TRIANGLE)
    assert sub.delivery_violations == 0
    service.unsubscribe(sub)
    assert not sub.active


def test_stream_accumulates_to_scratch_over_updates(service, er_graph):
    stream = temporal_edge_stream(er_graph, 30, batch_size=6, seed=21,
                                  delete_fraction=0.4)
    service.register_dataset("live", stream.base)
    sub = service.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="live", bootstrap=True))
    assert sub.poll(timeout=5.0) is not None
    seen = set()
    for batch in stream.batches:
        report = service.apply_updates("live", batch.inserts, batch.deletes)
        assert not report.timed_out
        delivered = sub.poll(timeout=5.0)
        assert delivered is not None
        # exactly-once: every delivery carries a fresh graph version
        assert delivered.seq == report.version
        assert delivered.seq not in seen
        seen.add(delivered.seq)
    assert sub.count == brute_count(stream.final_graph(), TRIANGLE)
    assert sub.delivery_violations == 0
    assert service.stream_stats()["stream_updates"] == len(stream.batches)


def test_update_without_subscribers_still_swaps_snapshot(service, er_graph):
    report = service.apply_updates("er", inserts=[(0, 1)], deletes=[])
    assert report.batches == ()
    assert service.graph_version("er") == 1


def test_update_fans_out_to_every_subscription(service):
    g = gen.erdos_renyi(25, 0.25, seed=31)
    service.register_dataset("fan", g)
    subs = [service.subscribe(SubscribeRequest(pattern=p, dataset="fan"))
            for p in ("triangle", "q1", "q6")]
    report = service.apply_updates("fan", deletes=[next(iter(g.edges()))])
    assert len(report.batches) == 3
    for sub in subs:
        batch = sub.poll(timeout=5.0)
        assert batch is not None and batch.seq == report.version
        # no bootstrap: the standing count tracks deltas only, and the
        # batch's net must equal the from-scratch difference
        want_net = (brute_count(service._graphs["fan"], sub.pattern)
                    - brute_count(g, sub.pattern))
        assert batch.net == want_net == sub.count


def test_warm_worker_counts_on_updated_snapshot(er_graph):
    """The one worker caches a simulated cluster per cluster shape; the
    update keeps the dataset name and shape, so only the snapshot check
    in ``Executor._cluster`` stops it from reusing the old graph's."""
    svc = QueryService(datasets={"er": er_graph}, num_workers=1,
                       backoff_base_s=0.01).start()
    try:
        def run():
            h = svc.submit(QueryRequest(pattern="triangle", dataset="er"))
            out = h.result(timeout=30.0)
            assert out.status is QueryStatus.COMPLETED
            return out

        first = run()
        assert first.count == brute_count(er_graph, TRIANGLE) > 0
        # an edge of some triangle: deleting it must move the count
        u, v = next(iter(enumerate_matches(er_graph, TRIANGLE)))[:2]
        svc.apply_updates("er", deletes=[(min(u, v), max(u, v))])
        fresh = run()
        assert fresh.count == brute_count(svc._graphs["er"], TRIANGLE)
        assert fresh.count != first.count
    finally:
        svc.stop()


def test_register_dataset_refuses_a_subscribed_dataset():
    """A wholesale swap under standing subscriptions would deliver no
    delta, leaving their counts on a graph that is gone; the swap is
    refused and updates keep the counts exact."""
    svc = QueryService(datasets={"d": gen.erdos_renyi(60, 0.15, seed=1)},
                       num_workers=1).start()
    try:
        sub = svc.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="d", bootstrap=True))
        assert sub.poll(timeout=5.0) is not None
        with pytest.raises(ValueError, match="apply_updates"):
            svc.register_dataset("d", gen.erdos_renyi(60, 0.15, seed=2))
        assert svc.graph_version("d") == 0
        victim = sorted(svc._graphs["d"].edges())[0]
        svc.apply_updates("d", deletes=[victim])
        assert sub.count == brute_count(svc._graphs["d"], TRIANGLE)
        svc.unsubscribe(sub)
        # without standing subscriptions a swap is allowed again
        svc.register_dataset("d", gen.erdos_renyi(60, 0.15, seed=2))
        assert svc.graph_version("d") == 2
    finally:
        svc.stop()


def test_register_dataset_bumps_version_and_drops_cache(service, er_graph):
    assert service.graph_version("er") == 0
    service.register_dataset("er", er_graph)
    assert service.graph_version("er") == 1
    service.register_dataset("brand-new", er_graph)
    assert service.graph_version("brand-new") == 0


def test_metrics_and_event_surfaces(er_graph):
    registry = MetricsRegistry()
    events = []
    svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                       backoff_base_s=0.01, metrics=registry)
    svc.events.add(lambda kind, seq, f: events.append((kind, seq)))
    svc.start()
    try:
        sub = svc.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="er", bootstrap=True))
        assert sub.poll(timeout=5.0) is not None
        victim = sorted(er_graph.edges())[0]
        svc.apply_updates("er", deletes=[victim])
        assert sub.poll(timeout=5.0) is not None
        svc.unsubscribe(sub)

        snap = registry.snapshot()
        assert snap["repro_stream_updates_total"]["samples"] == [
            {"labels": {"dataset": "er"}, "value": 1.0}]
        assert "repro_stream_deltas_emitted_total" in snap
        assert snap["repro_stream_batch_latency_seconds"]["samples"][0][
            "count"] >= 1
        assert snap["repro_stream_subscriptions"]["samples"] == [
            {"labels": {}, "value": 0.0}]

        kinds = [kind for kind, seq in events if seq == sub.request.seq]
        assert kinds[:2] == ["subscribed", "bootstrapped"]
        assert "delta_batch" in kinds and "delivered" in kinds
        assert kinds[-1] == "unsubscribed"
    finally:
        svc.stop()


def test_stop_closes_active_subscriptions(er_graph):
    svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                       backoff_base_s=0.01).start()
    sub = svc.subscribe(SubscribeRequest(pattern="triangle", dataset="er"))
    svc.stop()
    assert not sub.active
    assert sub.poll(timeout=0.5) is None  # sentinel, no batch


def test_subscribe_rejected_when_not_started(er_graph):
    svc = QueryService(datasets={"er": er_graph}, num_workers=1)
    with pytest.raises(RuntimeError):
        svc.subscribe(SubscribeRequest(pattern="triangle", dataset="er"))
    with pytest.raises(RuntimeError):
        svc.apply_updates("er", inserts=[(0, 1)])


def test_updates_with_process_pool_backend(er_graph):
    svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                       backoff_base_s=0.01, pool="process").start()
    try:
        sub = svc.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="er", bootstrap=True))
        assert sub.poll(timeout=10.0) is not None
        victim = sorted(er_graph.edges())[0]
        svc.apply_updates("er", deletes=[victim])
        batch = sub.poll(timeout=10.0)
        assert batch is not None and batch.error is None
        assert sub.count == brute_count(svc._graphs["er"], TRIANGLE)

        # queries against the updated dataset see the new snapshot
        h = svc.submit(QueryRequest(pattern="triangle", dataset="er"))
        out = h.result(timeout=60.0)
        assert out.status is QueryStatus.COMPLETED
        assert out.count == sub.count
    finally:
        svc.stop()


def test_queries_and_updates_interleave(service, er_graph):
    sub = service.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="er", bootstrap=True))
    assert sub.poll(timeout=5.0) is not None
    edges = sorted(er_graph.edges())
    for i in range(3):
        service.apply_updates("er", deletes=[edges[i]])
        batch = sub.poll(timeout=5.0)
        assert batch is not None
        h = service.submit(QueryRequest(pattern="triangle", dataset="er"))
        out = h.result(timeout=30.0)
        assert out.status is QueryStatus.COMPLETED
        assert out.count == sub.count == brute_count(
            service._graphs["er"], TRIANGLE)
    assert service.stream_stats()["subscriptions_active"] == 1


def test_concurrent_updates_on_one_dataset_lose_nothing(service, er_graph,
                                                        monkeypatch):
    """Two threads updating one dataset must serialise: both inserts
    land in the final snapshot and the subscription sees versions 1, 2.

    Both updaters are parked on a barrier *inside* the snapshot build, so
    without mutual exclusion they provably derive from the same base
    snapshot and the second registration discards the first's edges.
    With the per-dataset lock only one can be inside at a time: it waits
    the barrier out alone and proceeds.
    """
    import threading

    from repro.serve import service as service_module

    build = service_module.graph_apply_updates
    barrier = threading.Barrier(2)

    def parked_build(graph, inserts, deletes):
        try:
            barrier.wait(timeout=1.0)
        except threading.BrokenBarrierError:
            pass
        return build(graph, inserts, deletes)

    monkeypatch.setattr(service_module, "graph_apply_updates", parked_build)
    sub = service.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="er"))
    n = er_graph.num_vertices
    new_edges = [(0, n), (1, n + 1)]  # disjoint, both grow the vertex set
    reports = [None, None]

    def update(i):
        reports[i] = service.apply_updates("er", inserts=[new_edges[i]])

    threads = [threading.Thread(target=update, args=(i,)) for i in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30.0)
        assert not t.is_alive()

    final = set(service._graphs["er"].edges())
    assert set(new_edges) <= final
    assert service.graph_version("er") == 2
    assert sorted(r.version for r in reports) == [1, 2]
    batches = [sub.poll(timeout=5.0), sub.poll(timeout=5.0)]
    assert [b.seq for b in batches] == [1, 2]
    assert sorted(b.inserted for b in batches) == sorted(
        (e,) for e in new_edges)
    assert sub.delivery_violations == 0


def test_superseded_snapshots_are_freed_without_the_cyclic_gc(service,
                                                              er_graph):
    """A finished delta task must not be cyclic garbage: it pins the
    pre- and post-update snapshots, and on a large graph leaving them to
    the cyclic collector nearly doubled the streaming peak RSS."""
    import gc
    import time
    import weakref

    sub = service.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="er"))
    n = er_graph.num_vertices
    gc.collect()
    gc.disable()
    try:
        service.apply_updates("er", inserts=[(0, n)])
        # (Graph has no __weakref__ slot; its CSR arrays die with it)
        superseded = weakref.ref(service._graphs["er"]._indptr)
        service.apply_updates("er", inserts=[(1, n + 1)])
        assert [sub.poll(timeout=5.0).seq for _ in range(2)] == [1, 2]
        # the worker drops its last reference just after reporting done
        deadline = time.monotonic() + 5.0
        while superseded() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert superseded() is None
    finally:
        gc.enable()


def test_an_update_batch_leaves_its_snapshot_without_a_slot_table():
    """a snapshot that lives for one small update batch answers its delta
    passes, and a triangle count read off it, through the composite
    index: on LJ@3, with hub-heavy 8-edge batches and standing triangle
    and q1 subscriptions, no snapshot reaches the slot table's build
    trigger — the compiled extend pass counting the probes or its numpy
    reference"""
    for path in PATHS:
        stream = temporal_edge_stream(load_dataset("LJ", scale=3, seed=7),
                                      96, batch_size=8, delete_fraction=0.35,
                                      seed=1, skew=1.5)
        # a fresh base: the dataset's graph object keeps its probe count
        base = Graph(stream.base.indptr, stream.base.indices)
        svc = QueryService(datasets={"lj": base}, num_workers=2)
        snapshots = [base]
        with bound(path):
            svc.start()
            try:
                subs = [svc.subscribe(SubscribeRequest(p, "lj"))
                        for p in ("triangle", "q1")]
                for i, batch in enumerate(stream.batches):
                    report = svc.apply_updates("lj", batch.inserts,
                                               batch.deletes)
                    assert not report.timed_out
                    assert all(sub.poll(timeout=30).error is None
                               for sub in subs)
                    snapshots.append(svc._graphs["lj"])
                    if i % 4 == 3:
                        out = svc.submit(QueryRequest(
                            "triangle", "lj", num_machines=10,
                            workers_per_machine=4)).result(timeout=60)
                        assert out.status is QueryStatus.COMPLETED
            finally:
                svc.stop()
        # each snapshot but the last served one batch's inserts as the new
        # graph and the next batch's deletes as the old one
        assert all(g._probes for g in snapshots[1:])
        assert [g._arcs is None for g in snapshots] == [True] * len(snapshots)

