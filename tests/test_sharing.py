"""Work-sharing tests for :mod:`repro.serve`.

The contract: sharing a plan prefix across concurrently queued requests
must be **observably identical** to running every request solo — same
count, same match multiset, same per-request vertex ordering — while the
admission ledger still drains to zero.
"""

import pytest

from repro.cluster import Cluster
from repro.core import EngineConfig
from repro.core.engine import HugeEngine
from repro.cluster.errors import PlanError
from repro.query import get_query
from repro.core.plan.plans import _greedy_star_decomposition
from repro.query.decompose import SubQuery, join_unit_prefix_keys
from repro.serve import (LoadDriver, QueryRequest, QueryService, QueryStatus,
                         WorkloadSpec, run_query_solo, signature_of_plan)
from repro.testing import check_driver_report, check_service_run


def req(pattern="triangle", **kw):
    kw.setdefault("dataset", "er")
    kw.setdefault("num_machines", 2)
    kw.setdefault("workers_per_machine", 2)
    return QueryRequest(pattern=pattern, **kw)


@pytest.fixture()
def sharing_service(er_graph):
    """A 1-worker sharing service: queued requests pile up behind the
    single dispatch unit, the precondition for share-group formation."""
    svc = QueryService(datasets={"er": er_graph}, num_workers=1,
                       sharing=True,
                       backoff_base_s=0.01).start()
    yield svc
    svc.stop()


def _units_from_order(pattern, order):
    """HUGE-style join units for a connected vertex order: first edge,
    then one back-edge star per further vertex (mirrors ``from_order``)."""
    def norm(u, v):
        return (u, v) if u < v else (v, u)

    units = [SubQuery(frozenset({norm(order[0], order[1])}))]
    for i in range(2, len(order)):
        back = pattern.neighbours(order[i]) & set(order[:i])
        units.append(SubQuery(frozenset(norm(order[i], u) for u in back)))
    return units


class TestPrefixKeys:
    def test_cumulative_prefixes_end_at_full_pattern(self):
        for name in ("q1", "q2", "q4", "q5"):
            pattern = get_query(name)
            units = _greedy_star_decomposition(pattern, matched_roots=False)
            keys = join_unit_prefix_keys(units)
            assert len(keys) == len(units)
            assert keys[-1] == pattern.canonical_key()
            # cumulative unions strictly grow, so every prefix is distinct
            assert len(set(keys)) == len(keys)

    def test_isomorphic_orders_same_prefix_keys(self):
        base = get_query("q4")
        perm = {i: (i + 1) % base.num_vertices
                for i in range(base.num_vertices)}
        relabelled = base.relabel(perm, name="q4~x")
        order = list(range(base.num_vertices))
        mapped = [perm[v] for v in order]
        assert (join_unit_prefix_keys(_units_from_order(base, order))
                == join_unit_prefix_keys(_units_from_order(relabelled,
                                                           mapped)))


class TestSignatures:
    def _plan(self, er_graph, name, machines=2):
        cluster = Cluster(er_graph, num_machines=machines,
                          workers_per_machine=2, seed=0)
        engine = HugeEngine(cluster, EngineConfig())
        return engine.plan(get_query(name).canonical_form()[0])

    def test_identical_patterns_identical_signatures(self, er_graph):
        a = signature_of_plan(self._plan(er_graph, "triangle"))
        b = signature_of_plan(self._plan(er_graph, "triangle"))
        assert a is not None and a == b


class TestRunShared:
    def _engine(self, er_graph):
        cluster = Cluster(er_graph, num_machines=2,
                          workers_per_machine=2, seed=0)
        return HugeEngine(cluster, EngineConfig(collect_results=True))

    def _solo(self, er_graph, name):
        engine = self._engine(er_graph)
        return engine.run(get_query(name).canonical_form()[0])

    @pytest.mark.parametrize("names", [
        ("triangle", "triangle"),           # full dedup: empty suffixes
        ("triangle", "q4"),                 # shared scan, distinct suffixes
        ("q4", "triangle"),                 # … the longer plan first
        ("triangle", "q4", "triangle"),
    ])
    def test_bit_identical_to_solo(self, er_graph, names):
        engine = self._engine(er_graph)
        plans = [engine.plan(get_query(n).canonical_form()[0])
                 for n in names]
        try:
            shared = engine.run_group(plans, collects=[True] * len(names))
        except PlanError:
            pytest.skip("patterns share no plan prefix on this graph")
        for name, res in zip(names, shared):
            solo = self._solo(er_graph, name)
            assert res.count == solo.count
            assert sorted(res.matches) == sorted(solo.matches)

    def test_count_only_members(self, er_graph):
        engine = self._engine(er_graph)
        plans = [engine.plan(get_query(n).canonical_form()[0])
                 for n in ("triangle", "triangle")]
        collected, counted = engine.run_group(plans, collects=[True, False])
        assert collected.count == counted.count
        assert collected.matches is not None and counted.matches is None

    def test_shared_report_is_single_ledger(self, er_graph):
        engine = self._engine(er_graph)
        plans = [engine.plan(get_query("triangle").canonical_form()[0])
                 for _ in range(3)]
        results = engine.run_group(plans)
        assert results[0].report is results[1].report is results[2].report

    def test_empty_group_rejected(self, er_graph):
        with pytest.raises(ValueError):
            self._engine(er_graph).run_group([])


class TestServiceSharing:
    def test_grouped_requests_bit_identical_to_solo(self, sharing_service,
                                                    er_graph):
        svc = sharing_service
        names = ["triangle", "triangle", "q4", "triangle", "q2"]
        requests = [req(n, collect=True) for n in names]
        handles = [svc.submit(r) for r in requests]
        outcomes = [h.result(timeout=120) for h in handles]
        assert all(o.status is QueryStatus.COMPLETED for o in outcomes)
        # the backlogged triangles must actually have grouped
        assert svc.stats().shared_groups >= 1
        assert max(o.shared_group for o in outcomes) > 1
        for r, o in zip(requests, outcomes):
            solo = run_query_solo(er_graph, r)
            assert o.count == solo.count
            assert sorted(o.result.matches) == sorted(solo.result.matches)

    def test_oracles_pass_with_sharing(self, sharing_service, er_graph):
        svc = sharing_service
        requests = [req("triangle", collect=(i % 2 == 0)) for i in range(6)]
        handles = [svc.submit(r) for r in requests]
        outcomes = [h.result(timeout=120) for h in handles]
        svc.stop()
        failures = check_service_run(svc, requests, outcomes, er_graph)
        assert not failures, failures

    def test_stream_requests_never_group(self, sharing_service):
        svc = sharing_service
        handles = [svc.submit(req("triangle", stream=True))
                   for _ in range(3)]
        for h in handles:
            rows = [row for chunk in h.chunks(timeout=120)
                    for row in chunk.rows]
            o = h.result(timeout=120)
            assert o.status is QueryStatus.COMPLETED
            assert o.shared_group == 1
            assert len(rows) == o.count

    def test_member_cancel_spares_the_group(self, er_graph):
        svc = QueryService(datasets={"er": er_graph}, num_workers=1,
                           sharing=True, backoff_base_s=0.01).start()
        try:
            handles = [svc.submit(req("q4", collect=True))
                       for _ in range(4)]
            handles[-1].cancel("client changed its mind")
            outcomes = [h.result(timeout=120) for h in handles]
            statuses = [o.status for o in outcomes]
            assert statuses.count(QueryStatus.COMPLETED) >= 3
            solo = run_query_solo(er_graph, req("q4", collect=True))
            for o in outcomes:
                if o.status is QueryStatus.COMPLETED:
                    assert o.count == solo.count
        finally:
            svc.stop()


class TestDriverSharing:
    def test_zipf_spec_is_deterministic_and_skewed(self):
        spec = WorkloadSpec(num_queries=64, patterns=("triangle", "q1",
                                                      "q2", "q3", "q4"),
                            seed=7, zipf_s=1.5, relabel_fraction=0.0)
        names = [r.pattern for r in spec.build()]
        assert names == [r.pattern for r in spec.build()]
        counts = {n: names.count(n) for n in set(names)}
        assert counts.get("triangle", 0) == max(counts.values())

    def test_shared_run_verifies_bit_identical(self, er_graph):
        spec = WorkloadSpec(num_queries=10, dataset="er", seed=3,
                            num_machines=2, workers_per_machine=2,
                            relabel_fraction=0.25, collect_fraction=0.5,
                            zipf_s=1.2, tenants=("a", "b"))
        driver = LoadDriver(er_graph, spec, num_workers=2, sharing=True)
        report = driver.run(verify=True)
        assert report.verified, report.verify_failures
        assert not check_driver_report(report)
        assert report.counts_by_status.get("completed") == 10
