"""Tests for the HUGE engine: correctness, configuration, scheduler modes."""

import pytest

from repro.baselines import count_matches
from repro.cluster import Cluster, CostModel
from repro.core import CACHE_VARIANTS, EngineConfig, HugeEngine
from repro.core.plan import (benu_plan, rads_plan, seed_plan, starjoin_plan,
                             wco_plan)
from repro.graph import generators as gen
from repro.query import ExactEstimator, get_query

ALL_QUERIES = ["triangle", "q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8"]


class TestCorrectness:
    @pytest.mark.parametrize("name", ALL_QUERIES)
    def test_counts_match_reference_er(self, name, cluster, er_graph):
        q = get_query(name)
        result = HugeEngine(cluster).run(q)
        assert result.count == count_matches(er_graph, q)

    @pytest.mark.parametrize("name", ["triangle", "q1", "q2", "q4"])
    def test_counts_match_reference_ba(self, name, ba_cluster, ba_graph):
        q = get_query(name)
        result = HugeEngine(ba_cluster).run(q)
        assert result.count == count_matches(ba_graph, q)

    def test_collected_matches_are_exact(self, cluster, er_graph):
        from repro.baselines import enumerate_matches

        q = get_query("q1")
        engine = HugeEngine(cluster, EngineConfig(collect_results=True))
        result = engine.run(q)
        assert sorted(result.matches) == sorted(enumerate_matches(er_graph, q))

    def test_matches_are_real_embeddings(self, cluster, er_graph):
        q = get_query("q2")
        result = HugeEngine(
            cluster, EngineConfig(collect_results=True)).run(q)
        for f in result.matches:
            assert len(set(f)) == q.num_vertices
            for (u, v) in q.edges:
                assert er_graph.has_edge(f[u], f[v])

    def test_single_machine_cluster(self, er_graph):
        cl = Cluster(er_graph, num_machines=1, workers_per_machine=1)
        q = get_query("q1")
        assert HugeEngine(cl).run(q).count == count_matches(er_graph, q)

    def test_many_machines(self, er_graph):
        cl = Cluster(er_graph, num_machines=16, workers_per_machine=2)
        q = get_query("triangle")
        assert HugeEngine(cl).run(q).count == count_matches(er_graph, q)

    def test_empty_result(self):
        g = gen.path_graph(10)  # no triangles
        cl = Cluster(g, num_machines=2)
        assert HugeEngine(cl).run(get_query("triangle")).count == 0

    def test_star_query(self, cluster, er_graph):
        from repro.query import QueryGraph

        star = QueryGraph(4, [(0, 1), (0, 2), (0, 3)])
        result = HugeEngine(cluster).run(star)
        assert result.count == count_matches(er_graph, star)

    def test_single_edge_query(self, cluster, er_graph):
        from repro.query import QueryGraph

        edge = QueryGraph(2, [(0, 1)])
        result = HugeEngine(cluster).run(edge)
        assert result.count == er_graph.num_edges


class TestPluginMode:
    """Remark 3.2: existing logical plans run unchanged inside HUGE."""

    @pytest.mark.parametrize("builder", [wco_plan, benu_plan, rads_plan,
                                         starjoin_plan])
    @pytest.mark.parametrize("name", ["q1", "q2", "q4", "q7"])
    def test_plugin_plan_counts(self, builder, name, cluster, er_graph):
        q = get_query(name)
        result = HugeEngine(cluster).run(plan=builder(q))
        assert result.count == count_matches(er_graph, q)

    def test_seed_plan_plugin(self, cluster, er_graph):
        q = get_query("q6")
        plan = seed_plan(q, ExactEstimator(er_graph))
        result = HugeEngine(cluster).run(plan=plan)
        assert result.count == count_matches(er_graph, q)

    def test_run_needs_query_or_plan(self, cluster):
        with pytest.raises(ValueError):
            HugeEngine(cluster).run()


class TestConfiguration:
    def test_cache_variants_all_correct(self, cluster, er_graph):
        from repro.core import CACHE_VARIANTS

        q = get_query("q1")
        expect = count_matches(er_graph, q)
        for variant in CACHE_VARIANTS:
            cfg = EngineConfig(cache_variant=variant)
            assert HugeEngine(cluster, cfg).run(q).count == expect

    def test_stealing_modes_all_correct(self, cluster, er_graph):
        q = get_query("q2")
        expect = count_matches(er_graph, q)
        for mode in ("full", "none", "region-group"):
            cfg = EngineConfig(stealing=mode)
            assert HugeEngine(cluster, cfg).run(q).count == expect

    def test_tiny_queue_still_correct(self, cluster, er_graph):
        """DFS-style scheduling (queue ≈ 0) must not lose results"""
        q = get_query("q1")
        cfg = EngineConfig(output_queue_capacity=1)
        assert HugeEngine(cluster, cfg).run(q).count == \
            count_matches(er_graph, q)

    def test_infinite_queue_still_correct(self, cluster, er_graph):
        """BFS-style scheduling"""
        q = get_query("q1")
        cfg = EngineConfig(output_queue_capacity=float("inf"))
        assert HugeEngine(cluster, cfg).run(q).count == \
            count_matches(er_graph, q)

    def test_tiny_batches_still_correct(self, cluster, er_graph):
        q = get_query("q2")
        cfg = EngineConfig(batch_size=2, scan_pivot_chunk=1)
        assert HugeEngine(cluster, cfg).run(q).count == \
            count_matches(er_graph, q)

    def test_tiny_cache_still_correct(self, cluster, er_graph):
        q = get_query("q1")
        cfg = EngineConfig(cache_capacity_ids=8)
        assert HugeEngine(cluster, cfg).run(q).count == \
            count_matches(er_graph, q)

    def test_invalid_cache_variant(self):
        with pytest.raises(ValueError):
            EngineConfig(cache_variant="bogus")

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            EngineConfig(cache_capacity_fraction=2.0)

    @pytest.mark.parametrize("variant", CACHE_VARIANTS)
    def test_negative_cache_capacity_refused(self, variant):
        """a negative capacity is refused when the config is made, for
        every variant: before planning, before an ``LRUCache`` evicts
        everything on it and before the serving tier's admission ledger
        books it as a negative reservation"""
        with pytest.raises(ValueError, match="cache_capacity_ids"):
            EngineConfig(cache_variant=variant, cache_capacity_ids=-5)
        assert EngineConfig(cache_variant=variant,
                            cache_capacity_ids=0).cache_capacity_ids == 0

    def test_invalid_stealing(self):
        with pytest.raises(ValueError):
            EngineConfig(stealing="sometimes")

    def test_invalid_batch(self):
        with pytest.raises(ValueError):
            EngineConfig(batch_size=0)

    def test_option_surface_is_pinned(self):
        """Every independently settable option, as literals: a new knob is
        a reviewed diff of this table (each one doubles the configurations
        tests and benchmarks must cover), not a side effect."""
        import dataclasses
        import inspect

        import argparse

        from repro.__main__ import build_parser
        from repro.apps import motif_census
        from repro.core.cache import make_cache
        from repro.core.operators import ExecContext
        from repro.serve import (LoadDriver, QueryOutcome, QueryService,
                                 WorkloadSpec)
        from repro.testing.configs import EngineSpec

        def fields(cls):
            return [f.name for f in dataclasses.fields(cls)]

        def params(fn):
            return [p for p in inspect.signature(fn).parameters
                    if p != "self"]

        # SchedulerConfig's seven, then EngineConfig's four
        assert fields(EngineConfig) == [
            "batch_size", "output_queue_capacity", "scan_pivot_chunk",
            "stealing", "join_buffer_tuples", "steal_threshold",
            "cancellation",
            "cache_variant", "cache_capacity_fraction", "cache_capacity_ids",
            "collect_results"]
        assert fields(EngineSpec) == [
            "name", "engine", "plan", "cache_variant", "cache_capacity_ids",
            "stealing", "output_queue_capacity", "batch_size",
            "scan_pivot_chunk", "disable_symmetry", "census_k",
            "delta_schedule", "delta_batches"]
        assert params(ExecContext.__init__) == [
            "cluster", "cache", "tracer"]
        assert params(make_cache) == [
            "variant", "capacity_ids", "cost", "workers"]
        assert params(QueryService.__init__) == [
            "datasets", "num_workers", "memory_budget_bytes",
            "default_config", "cost", "tenant_max_inflight", "max_retries",
            "backoff_base_s", "injector", "trace", "metrics", "pool"]
        assert params(LoadDriver.__init__) == [
            "graph", "spec", "num_workers", "memory_budget_bytes",
            "default_config", "tenant_max_inflight", "trace", "metrics",
            "pool"]
        assert fields(WorkloadSpec) == [
            "num_queries", "dataset", "patterns", "num_machines",
            "workers_per_machine", "seed", "relabel_fraction",
            "deadline_fraction", "deadline_s", "tenants", "collect_fraction",
            "crashes"]
        # the CLI's observers: a span trace per run; the service's
        # registry travels in the --json payload, with no option of its own
        parser = build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        observers = {name: sorted(o for a in p._actions
                                  for o in a.option_strings
                                  if o in ("--trace", "--metrics", "--check"))
                     for name, p in sub.choices.items()}
        assert {k: v for k, v in observers.items() if v} == {
            "query": ["--trace"], "explain": ["--trace"],
            "serve": ["--trace"], "stream": ["--trace"]}
        assert sorted(sub.choices) == [
            "census", "conformance", "datasets", "explain", "motifs", "plan",
            "query", "serve", "stream"]
        # a query is a QueryGraph: no text front end beside --pattern
        assert [o for a in sub.choices["query"]._actions
                for o in a.option_strings if o.startswith("--")] == [
            "--help", "--data", "--machines", "--workers", "--scale",
            "--seed", "--pattern", "--show", "--trace", "--json"]
        # one request, one engine run: no work-sharing or skew knobs
        assert [o for a in sub.choices["serve"]._actions
                for o in a.option_strings if o.startswith("--")] == [
            "--help", "--data", "--machines", "--workers", "--scale",
            "--seed", "--queries", "--patterns", "--pool",
            "--service-workers", "--budget-mb", "--relabel-fraction",
            "--deadline-fraction", "--deadline", "--tenants", "--tenant-cap",
            "--crash", "--verify", "--trace", "--json", "--smoke"]
        # one answer path: collected matches are ``result.matches``
        assert fields(QueryOutcome) == [
            "status", "count", "result", "error", "attempts",
            "plan_cache_hit", "canonical_key",
            "queue_wait_s", "plan_s", "execute_s", "total_s"]
        assert params(motif_census) == ["cluster", "k"]
        # the plan package: one tree, one plan class, one Equation 3, one
        # planning entry — a second of any is a reviewed diff
        import repro.core.plan as plan_pkg

        assert plan_pkg.__all__ == [
            "PlanNode", "CommMode", "ExecutionPlan", "JoinAlgorithm",
            "PhysicalSetting", "configure_join", "COST_STRATEGIES",
            "Optimiser", "benu_plan", "bidirectional_path_plan",
            "dfs_order", "greedy_order", "emptyheaded_plan",
            "graphflow_plan", "rads_plan", "seed_plan", "starjoin_plan",
            "vertex_order_plan", "wco_plan", "translate", "order_chain"]
        assert params(HugeEngine.run) == ["query", "plan", "tracer"]
        assert params(plan_pkg.Optimiser.__init__) == [
            "estimator", "num_machines", "num_graph_edges", "cost_strategy",
            "avg_degree"]


class TestMetricsOutput:
    def test_report_is_populated(self, cluster):
        result = HugeEngine(cluster).run(get_query("q1"))
        rep = result.report
        assert rep.total_time_s > 0
        assert rep.compute_time_s > 0
        assert rep.peak_memory_bytes > 0
        assert result.throughput_per_s > 0

    def test_bigger_cache_fewer_misses(self, ba_graph):
        q = get_query("q1")
        rates = []
        for ids in (64, 100000):
            cl = Cluster(ba_graph, num_machines=4, seed=1)
            cfg = EngineConfig(cache_capacity_ids=ids)
            rates.append(HugeEngine(cl, cfg).run(q).cache_hit_rate)
        assert rates[1] >= rates[0]

    def test_memory_bound_theorem(self, ba_graph):
        """Theorem 5.4: queue memory stays O(|Vq|² · D_G) per machine."""
        q = get_query("q3")
        cl = Cluster(ba_graph, num_machines=4, seed=1)
        cfg = EngineConfig(output_queue_capacity=64, cache_capacity_ids=1,
                           batch_size=16)
        result = HugeEngine(cl, cfg).run(q)
        bound_tuples = (q.num_vertices ** 2) * ba_graph.max_degree \
            * (64 + 16 * ba_graph.max_degree)
        # queue contents measured in ids × 8 bytes, plus constant slack
        assert result.report.peak_memory_bytes <= bound_tuples * 8

    def test_fetch_time_reported(self, cluster):
        result = HugeEngine(cluster).run(get_query("q1"))
        assert result.fetch_time_s >= 0
        assert result.fetch_time_s < result.report.total_time_s
