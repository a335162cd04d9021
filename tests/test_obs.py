"""Tests for the observability layer (repro.obs): span semantics, the
zero-cost-when-disabled guarantee, aggregation, export, and the
satellite invariants (unified cache hit rate, underflow counting,
JSON-ready result dicts)."""

from __future__ import annotations

import json

import pytest

from repro.cluster import Cluster, CostModel
from repro.cluster.metrics import Metrics
from repro.core import EngineConfig, HugeEngine
from repro.core.plan import (bidirectional_path_plan, translate,
                             vertex_order_plan)
from repro.obs import (ENGINE, NULL_TRACER, Trace, Tracer,
                       check_span_nesting)
from repro.obs.analyze import analyze
from repro.query import get_query

# close to exact: the only slack is float addition order
_TOL = 1e-9


def traced_run(cluster, pattern="triangle", config=None):
    tracer = Tracer()
    engine = HugeEngine(cluster, config)
    result = engine.run(get_query(pattern), tracer=tracer)
    return result, result.trace


def built_plan(kind):
    """Plug-in plans, run as built whatever the estimator says.  ``wco``:
    the house along one vertex order — a single scan + extend chain.
    ``push-join``: the bidirectional 5-path — two chains into a
    PUSH-JOIN, three segments."""
    if kind == "wco":
        return vertex_order_plan(get_query("q4"), [0, 1, 2, 3, 4])
    return bidirectional_path_plan(get_query("q6"))


# -- unit: Trace / Tracer ------------------------------------------------------


class TestTraceUnit:
    def test_covered_time_merges_overlaps(self):
        tr = Trace(num_machines=1)
        t = Tracer()
        t.trace = tr
        t.complete("a", 0, 0.0, 2.0)
        t.complete("b", 0, 1.0, 3.0)   # overlaps a
        t.complete("c", 0, 5.0, 6.0)   # disjoint
        assert tr.covered_time(0) == pytest.approx(4.0)
        assert tr.coverage(4.0, (4.0,)) == pytest.approx(1.0)

    def test_coverage_uses_critical_machine(self):
        tr = Trace(num_machines=2)
        t = Tracer()
        t.trace = tr
        t.complete("a", 0, 0.0, 1.0)
        t.complete("b", 1, 0.0, 8.0)
        # machine 1 defines the 8s total; machine 0's short span is ignored
        assert tr.coverage(8.0, (1.0, 8.0)) == pytest.approx(1.0)
        assert tr.coverage(8.0, (8.0, 1.0)) == pytest.approx(1.0 / 8.0)

    def test_nesting_checker_flags_partial_overlap(self):
        tr = Trace(num_machines=1)
        t = Tracer()
        t.trace = tr
        t.complete("outer", 0, 0.0, 2.0)
        t.complete("inner", 0, 1.0, 3.0)
        violations = check_span_nesting(tr)
        assert len(violations) == 1
        assert "partially overlaps" in violations[0]

    def test_nesting_checker_accepts_contained_and_shared_endpoints(self):
        tr = Trace(num_machines=2)
        t = Tracer()
        t.trace = tr
        t.complete("outer", 0, 0.0, 4.0)
        t.complete("inner", 0, 0.0, 2.0)   # shared start
        t.complete("inner2", 0, 2.0, 4.0)  # shared end, adjacent
        t.complete("other", 1, 1.0, 3.0)   # different machine: independent
        assert check_span_nesting(tr) == []

    def test_per_operator_splits_stage_and_batch_spans(self):
        tr = Trace(num_machines=1)
        t = Tracer()
        t.trace = tr
        t.declare_operator("s0.1", "PULL-EXTEND", (0, 1, 2))
        t.complete("fetch", 0, 0.0, 1.0,
                   {"op": "s0.1", "hits": 3, "misses": 1})
        t.complete("intersect", 0, 1.0, 1.5, {"op": "s0.1"})
        t.complete("PULL-EXTEND", 0, 0.0, 1.5,
                   {"op": "s0.1", "in": 10, "out": 20, "bytes": 64})
        st = tr.per_operator()["s0.1"]
        assert st.kind == "PULL-EXTEND"
        assert st.fetch_time_s == pytest.approx(1.0)
        assert st.intersect_time_s == pytest.approx(0.5)
        assert st.time_s == pytest.approx(1.5)   # batch span only
        assert st.batches == 1
        assert st.tuples_in == 10 and st.tuples_out == 20 and st.bytes == 64
        assert st.cache_hits == 3 and st.cache_misses == 1
        assert st.cache_hit_rate == pytest.approx(0.75)

    def test_null_tracer_is_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        assert NULL_TRACER.trace is None
        # every recording call is a no-op, not an error
        NULL_TRACER.bind(None)
        NULL_TRACER.complete("x", 0, 0.0, 1.0)
        NULL_TRACER.instant("x", 0)
        NULL_TRACER.counter("x", 0, {"v": 1})
        NULL_TRACER.declare_operator("s0.0", "SCAN", (0, 1))
        assert NULL_TRACER.now(0) == 0.0

    def test_tracer_clock_reads_metrics(self):
        metrics = Metrics(2, 1, CostModel())
        t = Tracer()
        t.bind(metrics)
        metrics.charge_ops(1, 10 ** 9)
        assert t.now(1) == pytest.approx(metrics.machine_time(1))
        assert t.now(0) == 0.0
        assert t.now(ENGINE) == pytest.approx(metrics.elapsed())
        assert t.now_all() == [t.now(0), t.now(1)]


# -- run-level semantics -------------------------------------------------------


class TestRunTraceSemantics:
    @pytest.fixture(scope="class")
    def run(self, er_graph):
        cluster = Cluster(er_graph, num_machines=4, workers_per_machine=4,
                          seed=1)
        result, trace = traced_run(cluster, "q1")
        return result, trace

    def test_spans_strictly_nest(self, run):
        _, trace = run
        assert check_span_nesting(trace) == []

    def test_timestamps_monotone_and_bounded(self, run):
        result, trace = run
        total = result.report.total_time_s
        for s in trace.spans:
            assert 0.0 <= s.t0 <= s.t1
            assert s.t1 <= total + _TOL
        for i in trace.instants:
            assert 0.0 <= i.ts <= total + _TOL

    def test_every_declared_operator_has_spans(self, run):
        _, trace = run
        assert trace.operators  # declarations happened
        spanned = {s.arg("op") for s in trace.spans}
        for opid in trace.operators:
            assert opid in spanned

    def test_fetch_plus_intersect_accounts_for_batch_time(self, run):
        """The two stages tile each extend's batch spans (its ``emit``
        spans — the send side of a PUSH-JOIN shuffle — come after)."""
        _, trace = run
        batch_s: dict = {}
        for s in trace.spans:
            if s.name in ("PULL-EXTEND", "VERIFY"):
                batch_s[s.arg("op")] = batch_s.get(s.arg("op"), 0.0) \
                    + s.duration_s
        checked = 0
        for st in trace.per_operator().values():
            if st.fetch_time_s == 0.0:
                continue  # scans and joins have no fetch stage
            checked += 1
            assert (st.fetch_time_s + st.intersect_time_s
                    == pytest.approx(batch_s[st.opid], rel=1e-9, abs=1e-12))
        assert checked > 0

    def test_coverage_exceeds_95_percent(self, run):
        result, trace = run
        cov = trace.coverage(result.report.total_time_s,
                             result.report.per_machine_time_s)
        assert cov > 0.95

    def test_phase_spans_present(self, run):
        _, trace = run
        names = {s.name for s in trace.spans}
        assert {"plan", "translate", "execute"} <= names
        engine_spans = trace.machine_spans(ENGINE)
        assert any(s.name == "execute" for s in engine_spans)

    def test_chrome_export_is_valid(self, run, tmp_path):
        _, trace = run
        path = tmp_path / "t.json"
        trace.save(str(path))
        data = json.loads(path.read_text())
        assert data["displayTimeUnit"] == "ms"
        events = data["traceEvents"]
        assert events
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"}
        assert "engine" in names and "machine 0" in names
        for e in events:
            assert {"ph", "name", "pid", "tid"} <= e.keys()
            if e["ph"] == "X":
                assert e["ts"] >= 0 and e["dur"] >= 0
            elif e["ph"] in ("i", "C"):
                assert e["ts"] >= 0

    def test_queue_and_cache_counters_sampled(self, run):
        _, trace = run
        counter_names = {c.name for c in trace.counters}
        assert any(n.startswith("queue ") for n in counter_names)
        assert "cache occupancy" in counter_names


class TestPlanTraceSemantics(TestRunTraceSemantics):
    """A plan run as built is traced by the same declarations and spans
    as a planned query: every check above, on a single chain and on a
    PUSH-JOIN tree, plus the operator table against the trace."""

    @pytest.fixture(scope="class", params=["wco", "push-join"])
    def run(self, request, er_graph):
        cluster = Cluster(er_graph, num_machines=4, workers_per_machine=4,
                          seed=1)
        engine = HugeEngine(cluster, EngineConfig(collect_results=True))
        result = engine.run(plan=built_plan(request.param), tracer=Tracer())
        return result, result.trace

    def test_operator_ids_unique_and_declared_in_table_order(self, run):
        result, trace = run
        table = [op for ops in translate(result.plan).operator_table()
                 for op in ops]
        assert len({op.opid for op in table}) == len(table)
        assert list(trace.operators) == [op.opid for op in table]
        for op in table:
            assert trace.operators[op.opid]["kind"] == op.kind

    def test_per_operator_series_do_not_merge(self, run):
        """Along every chain an operator takes in exactly what the one
        before it put out, and the root chain ends in the result."""
        result, trace = run
        stats = trace.per_operator()
        table = translate(result.plan).operator_table()
        for ops in table:
            for before, op in zip(ops, ops[1:]):
                assert stats[op.opid].tuples_in == stats[before.opid].tuples_out
        assert stats[table[-1][-1].opid].tuples_out == result.count > 0


class TestZeroCostWhenDisabled:
    def test_traced_run_bit_identical_to_untraced(self, er_graph):
        def go(tracer, plan):
            cluster = Cluster(er_graph, num_machines=3,
                              workers_per_machine=4, seed=2)
            engine = HugeEngine(cluster, EngineConfig(collect_results=True))
            return engine.run(get_query("q1"), plan=plan, tracer=tracer)

        for plan in (None, built_plan("wco"), built_plan("push-join")):
            plain, traced = go(None, plan), go(Tracer(), plan)
            assert plain.trace is None
            assert traced.trace is not None
            assert plain.count == traced.count
            assert sorted(plain.matches) == sorted(traced.matches)
            assert plain.report.as_dict() == traced.report.as_dict()
            assert plain.cache_hit_rate == traced.cache_hit_rate
            assert plain.fetch_time_s == traced.fetch_time_s


# -- satellites ----------------------------------------------------------------


class TestCacheHitRateUnification:
    def test_result_and_report_hit_rates_agree(self, cluster):
        engine = HugeEngine(cluster)
        res = engine.run(get_query("q1"))
        assert res.cache_hit_rate == res.report.cache_hit_rate
        metrics = cluster.metrics
        assert (metrics.cache_hits + metrics.cache_misses).sum() > 0  # the square query does fetch remotely

    @pytest.mark.parametrize("variant", ["lrbu", "lru-inf", "cncr-lru"])
    def test_fetch_spans_report_every_cache_access(self, er_graph, variant):
        """one fetch stage for every cache class: its spans' hits/misses
        sum to the ledger's, and the spans still nest (the per-access
        stage once emitted none)"""
        cluster = Cluster(er_graph, num_machines=4, workers_per_machine=2,
                          seed=1)
        config = EngineConfig(cache_variant=variant, batch_size=8)
        res = HugeEngine(cluster, config).run(get_query("q1"),
                                              tracer=Tracer())
        fetches = [s for s in res.trace.spans if s.name == "fetch"]
        hits = int(cluster.metrics.cache_hits.sum())
        misses = int(cluster.metrics.cache_misses.sum())
        assert fetches and hits > 0 and misses > 0
        assert sum(s.arg("hits") for s in fetches) == hits
        assert sum(s.arg("misses") for s in fetches) == misses
        assert res.cache_hit_rate == hits / (hits + misses)
        assert check_span_nesting(res.trace) == []


class TestMemUnderflows:
    def test_free_underflow_is_counted_and_clamped(self):
        metrics = Metrics(2, 1, CostModel())
        metrics.alloc(0, 100)
        metrics.free(0, 100)
        assert metrics.report().mem_underflows == 0
        metrics.alloc(1, 50)
        metrics.free(1, 80)  # frees more than was ever allocated
        rep = metrics.report()
        assert rep.mem_underflows == 1
        assert metrics.cur_mem_bytes[1] == 0

    def test_engine_run_has_no_underflows(self, cluster):
        engine = HugeEngine(cluster)
        res = engine.run(get_query("q1"))
        assert res.report.mem_underflows == 0

    def test_memory_oracle_flags_underflows(self):
        from repro.testing.configs import smoke_matrix
        from repro.testing.oracles import CaseOutcome, _check_memory_bound
        from repro.testing.workloads import random_workload

        workload = random_workload(0, max_vertices=8)
        spec = smoke_matrix()[0]
        metrics = Metrics(1, 1, CostModel())
        metrics.free(0, 64)
        outcome = CaseOutcome(spec_name=spec.name, report=metrics.report())
        failure = _check_memory_bound(workload, spec, outcome)
        assert failure is not None
        assert failure.oracle == "memory-bound"
        assert "underflow" in failure.message


class TestAsDict:
    def test_enumeration_result_round_trips_json(self, cluster):
        engine = HugeEngine(cluster, EngineConfig(collect_results=True))
        res = engine.run(get_query("triangle"))
        data = json.loads(json.dumps(res.as_dict()))
        assert data["count"] == res.count
        assert data["report"]["total_time_s"] == res.report.total_time_s
        assert data["report"]["mem_underflows"] == 0
        assert len(data["report"]["per_machine_time_s"]) == \
            cluster.num_machines
        assert "ExecutionPlan" in data["plan"]

    def test_baseline_result_round_trips_json(self, cluster):
        from repro.baselines import BigJoinEngine

        res = BigJoinEngine(cluster).run(get_query("triangle"))
        data = json.loads(json.dumps(res.as_dict()))
        assert data["engine"] == "BiGJoin"
        assert data["count"] == res.count
        assert data["report"]["mem_underflows"] == 0


# -- bounded traces ------------------------------------------------------------


class TestTraceEventCap:
    def test_oldest_events_drop_first_deterministically(self):
        tr = Trace(num_machines=1, max_events=4)
        t = Tracer()
        t.trace = tr
        for i in range(6):
            t.complete(f"s{i}", 0, float(i), float(i) + 0.5)
        assert len(tr.spans) == 4
        assert [s.name for s in tr.spans] == ["s2", "s3", "s4", "s5"]
        assert tr.dropped_events == 2

    def test_cap_interleaves_streams_in_append_order(self):
        """The cap is global across spans/instants/counters: whichever
        event was appended first drops first, regardless of stream."""
        from repro.obs.trace import CounterEvent, InstantEvent, SpanEvent

        tr = Trace(num_machines=1, max_events=3)
        tr.add_span(SpanEvent("span0", 0, 0.0, 1.0))   # oldest → dropped
        tr.add_instant(InstantEvent("inst0", 0, 0.5))  # second → dropped
        tr.add_counter(CounterEvent("cnt0", 0, 0.6, {"v": 1}))
        tr.add_span(SpanEvent("span1", 0, 1.0, 2.0))
        tr.add_instant(InstantEvent("inst1", 0, 2.0))
        assert [c.name for c in tr.counters] == ["cnt0"]
        assert [s.name for s in tr.spans] == ["span1"]
        assert [i.name for i in tr.instants] == ["inst1"]
        assert tr.dropped_events == 2

    def test_dropped_count_exported_in_chrome_metadata(self):
        tr = Trace(num_machines=1, max_events=1)
        t = Tracer(max_events=1)
        t.trace = tr
        t.complete("a", 0, 0.0, 1.0)
        t.complete("b", 0, 1.0, 2.0)
        data = tr.to_chrome()
        assert data["otherData"]["dropped_events"] == 1

    def test_uncapped_trace_never_drops(self):
        tr = Trace(num_machines=1)
        t = Tracer()
        t.trace = tr
        for i in range(100):
            t.complete(f"s{i}", 0, float(i), float(i) + 0.5)
        assert len(tr.spans) == 100
        assert tr.dropped_events == 0
        assert tr.to_chrome()["otherData"]["dropped_events"] == 0

    def test_capped_tracer_run_stays_bit_identical(self, er_graph):
        """Dropping old events must not perturb the simulation."""
        def go(tracer):
            cluster = Cluster(er_graph, num_machines=3,
                              workers_per_machine=4, seed=2)
            return HugeEngine(cluster).run(get_query("q1"), tracer=tracer)

        plain = go(None)
        capped = go(Tracer(max_events=50))
        assert len(capped.trace.spans) <= 50
        assert capped.trace.dropped_events > 0
        assert plain.count == capped.count
        assert plain.report.as_dict() == capped.report.as_dict()


# -- explain --analyze ---------------------------------------------------------


class TestAnalyze:
    def test_rows_cover_plan_and_coverage_is_high(self, cluster):
        engine = HugeEngine(cluster)
        report = analyze(engine, get_query("q1"))
        assert len(report.rows) == len(list(report.result.plan.nodes()))
        matched = [r for r in report.rows if r.opid is not None]
        assert matched  # at least the root operator materialises
        assert report.coverage > 0.95
        text = report.render()
        assert "analyze (estimate vs traced run)" in text
        assert "est |R|" in text
        assert "matches:" in text

    def test_q_error_per_node_and_max(self, cluster):
        engine = HugeEngine(cluster)
        report = analyze(engine, get_query("q4"))
        for row in report.rows:
            if row.opid is None:
                assert row.q_error is None
                continue
            est = max(row.est_cardinality, 1.0)
            actual = max(row.stats.tuples_out, 1)
            assert row.q_error == max(est / actual, actual / est) >= 1.0
        materialised = [r.q_error for r in report.rows if r.opid is not None]
        assert report.max_q_error == max(materialised)
        text = report.render()
        assert "q-error = " in text
        assert f"max q-error: {report.max_q_error:.3g}" in text
        view = report.as_dict()
        assert view["max_q_error"] == report.max_q_error
        assert [n["q_error"] for n in view["nodes"]] == [
            r.q_error for r in report.rows]
        assert all({"label", "est_cardinality", "actual"} <= set(n)
                   for n in view["nodes"])

    def test_fused_star_does_not_borrow_its_joins_actuals(self, cluster):
        # the star side of a pulling join shares its vertex set with the
        # join's output whenever the star adds no new vertex; it is never
        # materialised alone, so it must not show the join's tuple count
        report = analyze(HugeEngine(cluster), get_query("q4"))
        by_node = dict(zip(report.result.plan.nodes(), report.rows))
        pulled = [j.operands[1] for j in report.result.plan.joins()
                  if j.setting.comm.value == "pulling"]
        assert pulled
        assert all(by_node[star].opid is None for star in pulled)
