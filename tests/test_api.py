"""Tests for the top-level convenience API (repro.api)."""

import pytest

import repro
from repro import (count_subgraphs, enumerate_subgraphs, get_query,
                   make_cluster)
from repro.baselines import count_matches


class TestEnumerateSubgraphs:
    def test_by_name(self, er_graph):
        result = enumerate_subgraphs(er_graph, "triangle")
        assert result.count == count_matches(er_graph, get_query("triangle"))

    def test_by_pattern_object(self, er_graph):
        q = get_query("q1")
        assert enumerate_subgraphs(er_graph, q).count == \
            count_matches(er_graph, q)

    def test_collect_flag(self, er_graph):
        result = enumerate_subgraphs(er_graph, "triangle", collect=True)
        assert result.matches is not None
        assert len(result.matches) == result.count

    def test_no_collect_no_matches(self, er_graph):
        assert enumerate_subgraphs(er_graph, "triangle").matches is None

    def test_custom_config(self, er_graph):
        from repro import EngineConfig

        cfg = EngineConfig(batch_size=32)
        result = enumerate_subgraphs(er_graph, "q1", config=cfg)
        assert result.count == count_matches(er_graph, get_query("q1"))

    def test_custom_config_plus_collect(self, er_graph):
        from repro import EngineConfig

        cfg = EngineConfig()
        result = enumerate_subgraphs(er_graph, "triangle", config=cfg,
                                     collect=True)
        assert result.matches is not None

    def test_collect_does_not_mutate_caller_config(self, er_graph):
        from repro import EngineConfig

        from repro import Cluster
        from repro.apps.cypher import execute_cypher

        cfg = EngineConfig()
        enumerate_subgraphs(er_graph, "triangle", config=cfg, collect=True)
        assert cfg.collect_results is False
        rows = execute_cypher(Cluster(er_graph, num_machines=2),
                              "MATCH (a)--(b) RETURN a, b", config=cfg).rows
        assert rows and cfg.collect_results is False
        # and the caller's choice is respected on a later run
        assert enumerate_subgraphs(er_graph, "triangle",
                                   config=cfg).matches is None

    def test_machine_count_invariance(self, er_graph):
        expect = count_matches(er_graph, get_query("q2"))
        for k in (1, 2, 8):
            assert enumerate_subgraphs(er_graph, "q2",
                                       num_machines=k).count == expect

    def test_unknown_query_name(self, er_graph):
        with pytest.raises(KeyError):
            enumerate_subgraphs(er_graph, "q42")


class TestCountSubgraphs:
    def test_count(self, er_graph):
        assert count_subgraphs(er_graph, "triangle") == \
            count_matches(er_graph, get_query("triangle"))

    def test_kwargs_passthrough(self, er_graph):
        assert count_subgraphs(er_graph, "triangle", seed=5) == \
            count_subgraphs(er_graph, "triangle", seed=9)


class TestMakeCluster:
    def test_shape(self, er_graph):
        cl = make_cluster(er_graph, num_machines=3, workers_per_machine=2)
        assert cl.num_machines == 3
        assert cl.workers_per_machine == 2

    def test_version_exposed(self):
        assert repro.__version__
