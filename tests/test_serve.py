"""Serving-semantics tests for :mod:`repro.serve`.

The contract under test: concurrency, admission control, caching,
deadlines and injected worker crashes never change *what* a query
computes — every served query is bit-identical (count and simulated
metrics) to the same request executed solo — and every submitted request
reaches exactly one terminal state while the admission ledger drains
back to zero.
"""

import threading
import time

import pytest

from repro import enumerate_subgraphs
from repro.core import CancelToken, EngineConfig, QueryCancelledError
from repro.obs import Histogram, MetricsRegistry
from repro.serve import (AdmissionController, FaultInjector, LoadDriver,
                         MultiQueue, PlanCache, Priority, QueryRequest,
                         QueryService, QueryStatus, QueueEntry, WorkloadSpec,
                         estimate_query_bytes, percentile, run_query_solo)
from repro.serve.request import QueryHandle
from repro.testing import check_driver_report, check_service_run


@pytest.fixture()
def service(er_graph):
    """A started 2-worker service over the ER graph (drained on exit)."""
    svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                      backoff_base_s=0.01).start()
    yield svc
    svc.stop()


def req(pattern="triangle", **kw):
    kw.setdefault("dataset", "er")
    kw.setdefault("num_machines", 2)
    kw.setdefault("workers_per_machine", 2)
    return QueryRequest(pattern=pattern, **kw)


class TestBasicServing:
    def test_single_query_matches_direct_run(self, service, er_graph):
        outcome = service.submit(req("triangle")).result(timeout=60)
        assert outcome.status is QueryStatus.COMPLETED
        assert outcome.count == enumerate_subgraphs(
            er_graph, "triangle", num_machines=2).count

    def test_concurrent_queries_bit_identical_to_solo(self, service,
                                                      er_graph):
        """The tentpole invariant: N queries racing on the pool produce
        exactly the counts *and simulated metrics* of their solo runs."""
        requests = [req(p) for p in
                    ("triangle", "q1", "q2", "q3", "triangle", "q1", "q2",
                     "q3")]
        handles = [service.submit(r) for r in requests]
        outcomes = [h.result(timeout=60) for h in handles]
        for r, o in zip(requests, outcomes):
            assert o.status is QueryStatus.COMPLETED
            solo = run_query_solo(er_graph, r)
            assert o.count == solo.count
            assert o.result.report.as_dict() == solo.result.report.as_dict()

    def test_solo_runner_matches_enumerate_subgraphs(self, er_graph):
        """run_query_solo (the service's oracle baseline) agrees with the
        public API, so served == solo == enumerate_subgraphs."""
        for name in ("triangle", "q1", "q2", "q3"):
            assert run_query_solo(er_graph, req(name)).count == \
                enumerate_subgraphs(er_graph, name, num_machines=2,
                                    workers_per_machine=2).count

    def test_unknown_dataset_raises(self, service):
        with pytest.raises(KeyError, match="unknown dataset"):
            service.submit(req(dataset="nope"))

    def test_submit_after_stop_raises(self, er_graph):
        svc = QueryService(datasets={"er": er_graph}, num_workers=1).start()
        svc.stop()
        with pytest.raises(RuntimeError):
            svc.submit(req())

    def test_stats_accounting(self, service):
        handles = [service.submit(req()) for _ in range(4)]
        for h in handles:
            h.result(timeout=60)
        stats = service.stats()
        assert stats.submitted == 4
        assert stats.completed == 4
        assert stats.delivery_violations == 0
        assert stats.reserved_bytes == 0.0


class TestPlanCache:
    def test_isomorphic_requests_hit(self, service, er_graph):
        from repro.query import get_query

        base = get_query("q2")
        relabelled = base.relabel({0: 3, 1: 1, 2: 0, 3: 2})
        o1 = service.submit(req(base)).result(timeout=60)
        o2 = service.submit(req(relabelled)).result(timeout=60)
        assert o1.canonical_key == o2.canonical_key
        assert o2.plan_cache_hit
        assert o1.count == o2.count
        assert service.stats().plan_cache["hits"] >= 1

    def test_cache_shared_across_workers(self, service):
        handles = [service.submit(req("q1")) for _ in range(6)]
        for h in handles:
            assert h.result(timeout=60).status is QueryStatus.COMPLETED
        stats = service.stats().plan_cache
        assert stats["hits"] > 0
        assert stats["hits"] + stats["misses"] == 6

    def test_lru_eviction(self):
        cache = PlanCache(capacity=2)
        for i, key in enumerate(("a", "b", "c")):
            cache.put((key,), i)
        assert cache.get(("a",)) is None
        assert cache.get(("c",)) == 2
        assert cache.stats.evictions == 1


class TestDeadlinesAndCancellation:
    def test_queued_deadline_expiry_releases_everything(self, er_graph):
        """Deadline-exceeded queries are cancelled and their reservation
        never leaks: the ledger drains to zero."""
        svc = QueryService(datasets={"er": er_graph}, num_workers=1).start()
        try:
            blockers = [svc.submit(req("q3")) for _ in range(3)]
            doomed = svc.submit(req("q3", deadline_s=0.001))
            outcome = doomed.result(timeout=60)
            assert outcome.status is QueryStatus.CANCELLED
            assert "deadline" in outcome.error
            for h in blockers:
                assert h.result(timeout=60).status is QueryStatus.COMPLETED
        finally:
            svc.stop()
        assert svc.stats().reserved_bytes == 0.0
        assert svc.admission.stats.underflows == 0

    def test_client_cancel_queued(self, er_graph):
        svc = QueryService(datasets={"er": er_graph}, num_workers=1).start()
        try:
            blocker = svc.submit(req("q3"))
            victim = svc.submit(req("q3"))
            victim.cancel("changed my mind")
            outcome = victim.result(timeout=60)
            assert outcome.status is QueryStatus.CANCELLED
            assert outcome.error == "changed my mind"
            assert blocker.result(timeout=60).status is QueryStatus.COMPLETED
        finally:
            svc.stop()

    def test_cancel_token_deadline(self):
        token = CancelToken(deadline=time.monotonic() - 1.0)
        with pytest.raises(QueryCancelledError, match="deadline"):
            token.check()

    def test_running_query_sees_cancellation(self, er_graph):
        """The engine's scheduler polls the token: a mid-run cancel
        unwinds as CANCELLED, not as a wrong result."""
        svc = QueryService(datasets={"er": er_graph}, num_workers=1).start()
        try:
            handle = svc.submit(req("q3"))
            # cancel as soon as it is actually running
            for _ in range(2000):
                if handle.status is QueryStatus.RUNNING:
                    break
                time.sleep(0.001)
            handle.cancel("mid-run cancel")
            outcome = handle.result(timeout=60)
            # small queries may legitimately win the race and complete
            assert outcome.status in (QueryStatus.CANCELLED,
                                      QueryStatus.COMPLETED)
        finally:
            svc.stop()
        assert svc.stats().reserved_bytes == 0.0


class TestAdmissionControl:
    def test_oversized_request_rejected(self, er_graph):
        svc = QueryService(datasets={"er": er_graph}, num_workers=1,
                           memory_budget_bytes=1.0).start()
        try:
            outcome = svc.submit(req()).result(timeout=60)
            assert outcome.status is QueryStatus.REJECTED
            assert "budget" in outcome.error
        finally:
            svc.stop()

    def test_budget_serialises_but_completes(self, er_graph):
        """A budget that fits one query at a time forces serial dispatch;
        everything still completes and the peak stays within budget."""
        request = req("triangle")
        estimate = estimate_query_bytes(
            3, er_graph, EngineConfig(), request.num_machines)
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           memory_budget_bytes=estimate * 1.5).start()
        try:
            handles = [svc.submit(req("triangle")) for _ in range(4)]
            for h in handles:
                assert h.result(timeout=60).status is QueryStatus.COMPLETED
        finally:
            svc.stop()
        stats = svc.admission.stats
        assert stats.peak_reserved_bytes <= estimate * 1.5
        assert svc.stats().reserved_bytes == 0.0

    def test_controller_ledger(self):
        ctl = AdmissionController(100.0)
        assert ctl.try_reserve(60.0)
        assert not ctl.try_reserve(60.0)
        assert ctl.fits_now(40.0)
        ctl.release(60.0)
        assert ctl.reserved_bytes == 0.0
        ctl.release(1.0)  # double release is observable
        assert ctl.stats.underflows == 1

    def test_estimate_scales_with_pattern_and_machines(self, er_graph):
        cfg = EngineConfig()
        small = estimate_query_bytes(3, er_graph, cfg, 2)
        assert estimate_query_bytes(5, er_graph, cfg, 2) > small
        assert estimate_query_bytes(3, er_graph, cfg, 4) > small


class TestFaultTolerance:
    def test_crashed_query_completes_exactly_once(self, er_graph):
        """A worker killed mid-run is detected; the query retries on a
        fresh worker and completes once — never lost, never duplicated."""
        injector = FaultInjector()
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           injector=injector, backoff_base_s=0.01).start()
        try:
            victim = req("q2")
            injector.crash(victim.seq, attempt=1, after_polls=2)
            others = [svc.submit(req("q2")) for _ in range(2)]
            handle = svc.submit(victim)
            outcome = handle.result(timeout=60)
            assert outcome.status is QueryStatus.COMPLETED
            assert outcome.attempts == 2
            assert outcome.count == run_query_solo(er_graph, victim).count
            for h in others:
                assert h.result(timeout=60).status is QueryStatus.COMPLETED
        finally:
            svc.stop()
        stats = svc.stats()
        assert stats.worker_crashes == 1
        assert stats.retries == 1
        assert stats.delivery_violations == 0
        assert handle.delivery_violations == 0
        assert stats.reserved_bytes == 0.0
        assert injector.injected == 1

    def test_repeated_crashes_exhaust_retries(self, er_graph):
        injector = FaultInjector()
        svc = QueryService(datasets={"er": er_graph}, num_workers=1,
                           injector=injector, max_retries=1,
                           backoff_base_s=0.01).start()
        try:
            victim = req("q1")
            injector.crash(victim.seq, attempt=1, after_polls=2)
            injector.crash(victim.seq, attempt=2, after_polls=2)
            outcome = svc.submit(victim).result(timeout=60)
            assert outcome.status is QueryStatus.FAILED
            assert "crashed" in outcome.error
            assert outcome.attempts == 2
        finally:
            svc.stop()
        assert svc.stats().worker_crashes == 2
        assert svc.stats().reserved_bytes == 0.0

    def test_pool_survives_crash(self, er_graph):
        """After a crash the pool is back to full strength."""
        injector = FaultInjector()
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           injector=injector, backoff_base_s=0.01).start()
        try:
            victim = req()
            injector.crash(victim.seq, attempt=1, after_polls=2)
            svc.submit(victim).result(timeout=60)
            handles = [svc.submit(req()) for _ in range(4)]
            for h in handles:
                assert h.result(timeout=60).status is QueryStatus.COMPLETED
            assert sum(w.is_alive() for w in svc._workers) == 2
        finally:
            svc.stop()


class TestStreaming:
    def test_chunks_reassemble_full_result(self, service, er_graph):
        direct = enumerate_subgraphs(er_graph, "triangle", num_machines=2,
                                     collect=True)
        handle = service.submit(req("triangle", stream=True, chunk_size=4))
        rows = []
        for chunk in handle.chunks(timeout=60):
            assert len(chunk.rows) <= 4
            rows.extend(chunk.rows)
        outcome = handle.result(timeout=60)
        assert outcome.status is QueryStatus.COMPLETED
        assert len(rows) == outcome.count
        assert sorted(rows) == sorted(direct.matches)

    def test_collect_without_stream_returns_matches(self, service, er_graph):
        direct = enumerate_subgraphs(er_graph, "q1", num_machines=2,
                                     collect=True)
        outcome = service.submit(req("q1", collect=True)).result(timeout=60)
        assert sorted(outcome.result.matches) == sorted(direct.matches)

    def test_relabelled_pattern_matches_remapped(self, service, er_graph):
        """Matches come back in the *request's* vertex order even though
        the cached plan ran the canonical form."""
        from repro.query import get_query

        base = get_query("triangle")
        relabelled = base.relabel({0: 2, 1: 0, 2: 1})
        direct = enumerate_subgraphs(er_graph, relabelled, num_machines=2,
                                     collect=True)
        outcome = service.submit(req(relabelled, collect=True)) \
            .result(timeout=60)
        assert sorted(outcome.result.matches) == sorted(direct.matches)


class TestFairScheduling:
    def test_priority_dispatch_order(self):
        q = MultiQueue()
        entries = {}
        for i, prio in enumerate([Priority.LOW, Priority.NORMAL,
                                  Priority.HIGH]):
            r = QueryRequest(pattern="triangle", dataset="d", priority=prio)
            e = QueueEntry(QueryHandle(r), 0.0, 0.0, float("inf"))
            q.push(e)
            entries[prio] = e
        assert q.pop_eligible(1.0, lambda e: True) is entries[Priority.HIGH]

    def test_wrr_prevents_starvation(self):
        """Under saturation LOW still drains: 4:2:1 credits."""
        q = MultiQueue()
        for _ in range(12):
            for prio in (Priority.HIGH, Priority.LOW):
                r = QueryRequest(pattern="t", dataset="d", priority=prio)
                q.push(QueueEntry(QueryHandle(r), 0.0, 0.0, float("inf")))
        first8 = [q.pop_eligible(1.0, lambda e: True).handle.request.priority
                  for _ in range(8)]
        assert Priority.LOW in first8

    def test_edf_within_priority(self):
        q = MultiQueue()
        deadlines = [5.0, 1.0, 3.0]
        for d in deadlines:
            r = QueryRequest(pattern="t", dataset="d")
            q.push(QueueEntry(QueryHandle(r), 0.0, 0.0, d))
        popped = [q.pop_eligible(0.0, lambda e: True).abs_deadline
                  for _ in range(3)]
        assert popped == sorted(deadlines)

    def test_backoff_gate(self):
        q = MultiQueue()
        r = QueryRequest(pattern="t", dataset="d")
        e = QueueEntry(QueryHandle(r), 0.0, 0.0, float("inf"))
        e.not_before = 10.0
        q.push(e)
        assert q.pop_eligible(5.0, lambda e: True) is None
        assert q.pop_eligible(10.0, lambda e: True) is e

    def test_tenant_cap_enforced(self, er_graph):
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           tenant_max_inflight=1).start()
        try:
            # the event stream is totally ordered: replay it to count how
            # many of the tenant's requests hold a dispatch at once
            inflight, seen = set(), []

            def sink(kind, seq, fields):
                if kind == "dispatched":
                    inflight.add(seq)
                    seen.append(len(inflight))
                elif kind == "finished":
                    inflight.discard(seq)

            svc.events.add(sink)
            handles = [svc.submit(req(tenant="a")) for _ in range(4)]
            for h in handles:
                assert h.result(timeout=60).status is QueryStatus.COMPLETED
            assert max(seen) <= 1
        finally:
            svc.stop()


class TestServingOracles:
    def test_oracles_pass_on_mixed_workload(self, er_graph):
        injector = FaultInjector()
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           injector=injector, backoff_base_s=0.01).start()
        requests = [req(p) for p in ("triangle", "q1", "q2", "triangle",
                                     "q1", "q2")]
        injector.crash(requests[0].seq, attempt=1, after_polls=2)
        try:
            handles = [svc.submit(r) for r in requests]
            outcomes = [h.result(timeout=60) for h in handles]
        finally:
            svc.stop()
        failures = check_service_run(svc, requests, outcomes, er_graph,
                                     injected_crashes=1)
        assert failures == []

    def test_driver_verify_and_report_oracles(self, er_graph):
        spec = WorkloadSpec(num_queries=6, dataset="er",
                            patterns=("triangle", "q1"), num_machines=2,
                            workers_per_machine=2, crashes=1,
                            relabel_fraction=0.5)
        driver = LoadDriver(er_graph, spec, num_workers=2)
        report = driver.run(verify=True)
        assert report.verified is True
        assert report.counts_by_status == {"completed": 6}
        assert check_driver_report(report) == []


class TestStatsPrimitives:
    def test_percentile(self):
        vals = [1.0, 2.0, 3.0, 4.0]
        assert percentile(vals, 0) == 1.0
        assert percentile(vals, 100) == 4.0
        assert percentile(vals, 50) == 2.5
        assert percentile([], 50) == 0.0

    def test_percentile_edge_cases(self):
        # single sample: every q returns it
        assert percentile([7.0], 0) == 7.0
        assert percentile([7.0], 100) == 7.0
        # two samples: linear interpolation between them
        assert percentile([1.0, 3.0], 0) == 1.0
        assert percentile([1.0, 3.0], 50) == 2.0
        assert percentile([1.0, 3.0], 100) == 3.0
        assert percentile([1.0, 3.0], 25) == pytest.approx(1.5)

    def test_percentile_rejects_out_of_range_q(self):
        with pytest.raises(ValueError, match="0..100"):
            percentile([1.0], -1)
        with pytest.raises(ValueError, match="0..100"):
            percentile([1.0], 101)

    def test_percentile_rejects_unsorted_input(self):
        with pytest.raises(ValueError, match="ascending"):
            percentile([3.0, 1.0, 2.0], 50)

    def test_latency_recorder(self):
        hist = Histogram("latency_seconds", reservoir=10_000)
        for v in (0.1, 0.2, 0.3):
            hist.observe(v)
        snap = hist.summary()
        assert snap["count"] == 3
        assert snap["p50_s"] == pytest.approx(0.2)
        assert snap["max_s"] == pytest.approx(0.3)

    def test_latency_recorder_snapshot_schema_pinned(self):
        """Regression: ``ServiceStats.as_dict()`` consumers (CLI report,
        benchmarks/perf) read exactly these keys from the latency /
        queue-wait / execute histogram summaries."""
        hist = Histogram("latency_seconds", reservoir=10_000)
        hist.observe(0.5)
        assert set(hist.summary()) == {"count", "mean_s", "p50_s", "p95_s",
                                       "p99_s", "max_s"}
        empty = Histogram("latency_seconds", reservoir=10_000).summary()
        assert empty == {"count": 0, "mean_s": 0.0, "p50_s": 0.0,
                         "p95_s": 0.0, "p99_s": 0.0, "max_s": 0.0}

    def test_latency_recorder_wraparound_deterministic(self):
        """Round-robin overwrite: after capacity wraps, the retained
        window is a pure function of the stream — two identical streams
        retain identical samples."""
        def run() -> Histogram:
            hist = Histogram("latency_seconds", reservoir=8)
            for i in range(20):
                hist.observe(float(i))
            return hist

        a, b = run().summary(), run().summary()
        assert a == b
        assert a["count"] == 20          # count tracks the full stream
        assert a["max_s"] == 19.0        # newest sample retained
        # sample 8 onward landed in slot count % 8 (count after inc), so
        # the window holds exactly the last 8 values 12..19
        assert sorted(run().labels().samples) == [float(v)
                                                  for v in range(12, 20)]

    def test_latency_recorder_over_shared_histogram(self):
        """The service's latency dicts are summaries of its registry's
        histograms: the same samples as the Prometheus exposition."""
        reg = MetricsRegistry()
        hist = reg.histogram("lat_seconds", "latency", time_base="wall",
                             reservoir=16)
        for v in (0.1, 0.2, 0.4):
            hist.observe(v)
        assert hist.summary()["count"] == 3 == hist.count
        assert hist.summary()["p50_s"] == pytest.approx(0.2)
        assert hist.percentile(50) == pytest.approx(0.2)
        assert "repro_lat_seconds_count 3" in reg.expose()

    def test_latency_recorder_rejects_unusable_histogram(self):
        with pytest.raises(ValueError, match="reservoir"):
            Histogram("h").summary()
        with pytest.raises(ValueError, match="labelled"):
            Histogram("h", labelnames=("k",), reservoir=4).summary()


class TestServiceMetrics:
    def test_counters_match_service_stats(self, er_graph):
        """``stats()`` is a read of ``svc.metrics``: the counts agree with
        the exposition, and a sample added to the registry shows up in
        the next snapshot."""
        from repro.obs import check_exposition

        reg = MetricsRegistry()
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           metrics=reg).start()
        assert svc.metrics is reg
        try:
            handles = [svc.submit(req(p, tenant=t))
                       for p, t in (("triangle", "a"), ("q1", "a"),
                                    ("q1", "b"), ("q2", "b"))]
            for h in handles:
                assert h.result(timeout=60).status is QueryStatus.COMPLETED
        finally:
            svc.stop()
        stats = svc.stats()
        sub = reg.get("repro_serve_submitted_total")
        assert sub.get("a") + sub.get("b") == stats.submitted == 4
        comp = reg.get("repro_serve_completed_total")
        assert comp.get("a") + comp.get("b") == stats.completed == 4
        assert reg.get("repro_serve_requests_total").get("completed") == \
            stats.completed
        pc = reg.get("repro_serve_plan_cache_total")
        assert pc.get("hit") == stats.plan_cache["hits"]
        assert pc.get("miss") == stats.plan_cache["misses"]
        assert stats.plan_cache["hits"] + stats.plan_cache["misses"] == 4
        adm = reg.get("repro_serve_admission_total")
        assert adm.get("accept", "fits") == stats.submitted
        # the latency dicts are summaries of the registry's histograms
        lat = reg.get("repro_serve_latency_seconds")
        assert lat.count == stats.completed
        assert stats.latency == lat.summary()
        assert stats.queue_wait == \
            reg.get("repro_serve_queue_wait_seconds").summary()
        assert stats.execute == \
            reg.get("repro_serve_execute_seconds").summary()
        # read, not copied: the registry is the only counter
        retries = reg.get("repro_serve_retries_total")
        retries.inc_child(retries.labels("thread"), 2)
        pc.inc_child(pc.labels("hit"))
        after = svc.stats()
        assert after.retries == stats.retries + 2
        assert after.plan_cache["hits"] == stats.plan_cache["hits"] + 1
        # gauges drain with the service
        assert reg.get("repro_serve_inflight").value == 0
        assert reg.get("repro_serve_reserved_bytes").value == 0
        assert check_exposition(reg.expose()) == []

    def test_stats_same_with_private_or_given_registry(self, er_graph):
        """``metrics=None`` means a private registry, not fewer counters:
        one seeded single-worker workload reports the same counts with
        and without a registry handed in."""
        def run(metrics):
            spec = WorkloadSpec(num_queries=8, dataset="er",
                                patterns=("triangle", "q1", "q2"),
                                num_machines=2, workers_per_machine=2,
                                seed=3, relabel_fraction=0.5,
                                tenants=("a", "b"))
            driver = LoadDriver(er_graph, spec, num_workers=1,
                                metrics=metrics, result_cache_bytes=1e6)
            driver.run()
            assert isinstance(driver.service.metrics, MetricsRegistry)
            stats = driver.service.stats().as_dict()
            return {k: v for k, v in stats.items()
                    if isinstance(v, int) or k in ("plan_cache",
                                                   "result_cache")}

        private, given = run(None), run(MetricsRegistry())
        assert private == given
        assert private["completed"] == 8
        assert private["plan_cache"]["hits"] + \
            private["plan_cache"]["misses"] + \
            private["result_cache"]["hits"] == 8

    def test_reject_and_crash_counters(self, er_graph):
        reg = MetricsRegistry()
        injector = FaultInjector()
        svc = QueryService(datasets={"er": er_graph}, num_workers=1,
                           memory_budget_bytes=1.0, injector=injector,
                           backoff_base_s=0.01, metrics=reg).start()
        try:
            outcome = svc.submit(req()).result(timeout=60)
            assert outcome.status is QueryStatus.REJECTED
        finally:
            svc.stop()
        assert reg.get("repro_serve_admission_total") \
            .get("reject", "memory_bound") == 1
        assert reg.get("repro_serve_requests_total").get("rejected") == 1
        assert svc.stats().rejected == svc.stats().admission["rejected"] == 1

        reg2 = MetricsRegistry()
        injector = FaultInjector()
        svc = QueryService(datasets={"er": er_graph}, num_workers=2,
                           injector=injector, backoff_base_s=0.01,
                           metrics=reg2).start()
        try:
            victim = req("q2")
            injector.crash(victim.seq, attempt=1, after_polls=2)
            outcome = svc.submit(victim).result(timeout=60)
            assert outcome.status is QueryStatus.COMPLETED
        finally:
            svc.stop()
        assert reg2.get("repro_serve_worker_crashes_total").get("thread") == \
            svc.stats().worker_crashes == 1
        assert reg2.get("repro_serve_retries_total").get("thread") == 1

    def test_driver_run_with_metrics_verifies_bit_identical(self, er_graph):
        """LoadDriver integration: a metrics+flight run still passes the
        solo-run bit-identity oracle."""
        from repro.obs import FlightRecorder

        reg = MetricsRegistry()
        flight = FlightRecorder()
        spec = WorkloadSpec(num_queries=6, dataset="er",
                            patterns=("triangle", "q1"), num_machines=2,
                            workers_per_machine=2, relabel_fraction=0.5)
        driver = LoadDriver(er_graph, spec, num_workers=2, metrics=reg,
                            flight=flight)
        report = driver.run(verify=True)
        assert report.verified is True
        assert reg.get("repro_serve_requests_total").get("completed") == 6
        assert flight.stats()["retained"] == 6


class TestWrrCreditCycle:
    """Regression tests for the credit-cycle fixes: replenish keys on
    *non-empty* classes and credits clamp at zero."""

    @staticmethod
    def _backlog(q, counts):
        for prio, n in counts.items():
            for _ in range(n):
                r = QueryRequest(pattern="t", dataset="d", priority=prio)
                q.push(QueueEntry(QueryHandle(r), 0.0, 0.0, float("inf")))

    def test_weighted_ratio_under_full_backlog(self):
        """All classes saturated: pops follow the 4:2:1 weights exactly
        over whole credit cycles (7 pops per cycle)."""
        q = MultiQueue()
        self._backlog(q, {Priority.HIGH: 90, Priority.NORMAL: 50,
                          Priority.LOW: 30})
        popped = [q.pop_eligible(1.0, lambda e: True).handle.request.priority
                  for _ in range(70)]  # 10 full cycles
        counts = {p: popped.count(p) for p in Priority}
        assert counts == {Priority.HIGH: 40, Priority.NORMAL: 20,
                          Priority.LOW: 10}

    def test_idle_credited_class_does_not_stall_the_cycle(self):
        """HIGH holds unspent credits but is empty; NORMAL and LOW must
        keep draining at their 2:1 weights (the starvation bug: the old
        replenish waited for *every* class to exhaust, so an idle HIGH
        froze the cycle and credits went negative)."""
        q = MultiQueue()
        self._backlog(q, {Priority.NORMAL: 40, Priority.LOW: 40})
        popped = []
        for _ in range(60):
            e = q.pop_eligible(1.0, lambda e: True)
            assert e is not None, "cycle stalled with work queued"
            popped.append(e.handle.request.priority)
            assert all(c >= 0 for c in q._credits.values()), \
                "credits must never go negative"
        counts = {p: popped.count(p) for p in Priority}
        assert counts[Priority.NORMAL] == 40
        assert counts[Priority.LOW] == 20

    def test_exhausted_class_pops_do_not_sink_credits(self):
        """Popping from an exhausted class (fallback when credited
        classes have nothing dispatchable) clamps at zero instead of
        going negative and collapsing the weighted ratio."""
        q = MultiQueue()
        self._backlog(q, {Priority.LOW: 20})
        for _ in range(20):
            assert q.pop_eligible(1.0, lambda e: True) is not None
            assert q._credits[Priority.LOW] >= 0


class TestAdmissionEstimateBound:
    def test_estimate_upper_bounds_measured_peak(self, er_graph):
        """Cross-check against the Theorem-5.4 memory oracle: the
        admission estimate (|V_q| tuple width) must still upper-bound
        the engine's measured per-machine peak for every benchmark
        pattern — the old ``deg``-width queue term was an over-charge on
        high-degree graphs, not extra safety."""
        from repro.query import get_query

        cfg = EngineConfig()
        for name in ("triangle", "q1", "q2", "q4", "q5"):
            request = req(name, config=cfg)
            outcome = run_query_solo(er_graph, request)
            assert outcome.status is QueryStatus.COMPLETED
            pattern = get_query(name)
            estimate = estimate_query_bytes(
                pattern.num_vertices, er_graph, cfg, request.num_machines)
            per_machine = estimate / request.num_machines
            peak = outcome.result.report.peak_memory_bytes
            assert per_machine >= peak, (
                f"{name}: estimate {per_machine:.0f}B/machine below "
                f"measured peak {peak:.0f}B")


class TestStatsConcurrency:
    """Torn-snapshot regressions: stats reads race their writers."""

    def test_plan_cache_stats_consistent_under_hammer(self):
        cache = PlanCache(capacity=8)
        stop = threading.Event()

        def writer(tid):
            i = 0
            while not stop.is_set():
                key = ("k", tid, i % 12)
                if cache.get(key) is None:
                    cache.put(key, plan=object())
                i += 1

        threads = [threading.Thread(target=writer, args=(t,))
                   for t in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snap = cache.stats.as_dict()
                # the snapshot is taken under the stats lock: a fresh
                # insert is counted once, and every eviction follows one
                # (a torn read once let the counters drift apart)
                assert 0 <= snap["evictions"] <= snap["inserts"]
                assert snap["inserts"] - snap["evictions"] <= cache.capacity
        finally:
            stop.set()
            for t in threads:
                t.join()
        final = cache.stats.as_dict()
        # every fresh insert adds an entry, every eviction removes one
        assert final["inserts"] - final["evictions"] == len(cache)

    def test_plan_cache_overwrites_counted_separately(self):
        cache = PlanCache(capacity=2)
        cache.put(("a",), plan=object())
        cache.put(("a",), plan=object())  # overwrite, not an insert
        snap = cache.stats.as_dict()
        assert snap["inserts"] == 1
        assert snap["overwrites"] == 1
        cache.put(("b",), plan=object())
        cache.put(("c",), plan=object())  # evicts LRU ("a")
        snap = cache.stats.as_dict()
        assert snap["inserts"] == 3
        assert snap["evictions"] == 1

    def test_admission_snapshot_consistent_under_hammer(self):
        ctrl = AdmissionController(budget_bytes=1e9)
        stop = threading.Event()

        def churn():
            while not stop.is_set():
                if ctrl.try_reserve(1000.0):
                    ctrl.release(1000.0)

        threads = [threading.Thread(target=churn) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            for _ in range(300):
                snap = ctrl.stats_snapshot()
                assert snap["underflows"] == 0
                assert snap["releases"] <= snap["admitted"]
                assert snap["reserved_bytes"] >= 0.0
        finally:
            stop.set()
            for t in threads:
                t.join()
        assert ctrl.stats_snapshot()["admitted"] == \
            ctrl.stats_snapshot()["releases"]
