"""Unit tests for query patterns (repro.query.pattern)."""

import pytest

from repro.query import QUERIES, QueryGraph, get_query


class TestQueryGraph:
    def test_basic(self):
        q = QueryGraph(3, [(0, 1), (1, 2)])
        assert q.num_vertices == 3
        assert q.num_edges == 2
        assert q.neighbours(1) == frozenset({0, 2})

    def test_edges_normalised(self):
        q = QueryGraph(3, [(2, 0)])
        assert (0, 2) in q.edges

    def test_duplicate_edges_collapse(self):
        q = QueryGraph(2, [(0, 1), (1, 0)])
        assert q.num_edges == 1

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            QueryGraph(2, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            QueryGraph(2, [(0, 2)])

    def test_has_edge_symmetric(self):
        q = QueryGraph(3, [(0, 2)])
        assert q.has_edge(0, 2) and q.has_edge(2, 0)

    def test_degree(self):
        q = get_query("q2")
        assert sorted(q.degree(v) for v in q.vertices()) == [2, 2, 3, 3]

    def test_equality_and_hash(self):
        a = QueryGraph(3, [(0, 1), (1, 2)], name="x")
        b = QueryGraph(3, [(1, 2), (0, 1)], name="y")
        assert a == b
        assert hash(a) == hash(b)

    def test_name_default(self):
        assert "pattern" in QueryGraph(2, [(0, 1)]).name

    def test_iter(self):
        assert list(QueryGraph(3, [(0, 1), (1, 2)])) == [0, 1, 2]


class TestStructure:
    def test_connected(self):
        assert get_query("q1").is_connected()

    def test_disconnected(self):
        assert not QueryGraph(4, [(0, 1), (2, 3)]).is_connected()

    def test_is_star_edge(self):
        assert QueryGraph(2, [(0, 1)]).is_star()

    def test_is_star_proper(self):
        q = QueryGraph(4, [(0, 1), (0, 2), (0, 3)])
        assert q.is_star()
        assert q.star_root() == 0

    def test_triangle_not_star(self):
        assert not get_query("triangle").is_star()

    def test_path_not_star(self):
        assert not get_query("q6").is_star()

    def test_star_root_requires_star(self):
        with pytest.raises(ValueError):
            get_query("triangle").star_root()

    def test_is_clique(self):
        assert get_query("q3").is_clique()
        assert get_query("triangle").is_clique()
        assert not get_query("q1").is_clique()

    def test_relabel(self):
        q = get_query("triangle").relabel({0: 2, 1: 0, 2: 1})
        assert q.is_clique()


class TestBenchmarkQueries:
    def test_all_queries_present(self):
        for name in ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8",
                     "triangle"):
            assert name in QUERIES

    def test_q1_is_square(self):
        q = get_query("q1")
        assert q.num_vertices == 4 and q.num_edges == 4
        assert all(q.degree(v) == 2 for v in q.vertices())

    def test_q2_is_diamond(self):
        q = get_query("q2")
        assert q.num_vertices == 4 and q.num_edges == 5

    def test_q3_is_4clique(self):
        q = get_query("q3")
        assert q.num_vertices == 4 and q.is_clique()

    def test_q4_is_house(self):
        q = get_query("q4")
        assert q.num_vertices == 5 and q.num_edges == 6

    def test_q5_is_double_square(self):
        q = get_query("q5")
        assert q.num_vertices == 6 and q.num_edges == 7

    def test_q6_is_5path(self):
        q = get_query("q6")
        assert q.num_vertices == 5 and q.num_edges == 4
        assert sorted(q.degree(v) for v in q.vertices()) == [1, 1, 2, 2, 2]

    def test_q7_is_5cycle(self):
        q = get_query("q7")
        assert q.num_vertices == 5 and q.num_edges == 5
        assert all(q.degree(v) == 2 for v in q.vertices())

    def test_q8_is_6cycle(self):
        q = get_query("q8")
        assert q.num_vertices == 6 and q.num_edges == 6
        assert all(q.degree(v) == 2 for v in q.vertices())

    def test_unknown_query(self):
        with pytest.raises(KeyError):
            get_query("q99")

    def test_lookup_case_insensitive(self):
        assert get_query("Q1") == get_query("q1")

    def test_a_query_graph_is_its_own_lookup(self):
        """the one resolver for a name or a pattern: a ``QueryGraph``
        comes back unchanged"""
        q = QueryGraph(3, [(0, 1), (1, 2)])
        assert get_query(q) is q
