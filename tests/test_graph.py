"""Unit tests for the CSR graph (repro.graph.graph)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import Graph, GraphBuilder, apply_updates
from repro.graph import generators as gen


def reference_csr(edges, n):
    """Set-based CSR construction: what ``from_edges`` must equal."""
    arcs = {(u, v) for a, b in edges if a != b for u, v in ((a, b), (b, a))}
    rows = [sorted(v for u, v in arcs if u == w) for w in range(n)]
    indptr = np.cumsum([0] + [len(r) for r in rows])
    return Graph(indptr, np.asarray(sum(rows, []), dtype=np.int64))


edge_lists = st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)),
                      max_size=40)


class TestConstruction:
    def test_from_edges_basic(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.num_vertices == 3
        assert g.num_edges == 2

    def test_from_edges_dedups(self):
        g = Graph.from_edges([(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_from_edges_drops_self_loops(self):
        g = Graph.from_edges([(0, 0), (0, 1)])
        assert g.num_edges == 1
        assert not g.has_edge(0, 0)

    def test_from_edges_num_vertices_override(self):
        g = Graph.from_edges([(0, 1)], num_vertices=10)
        assert g.num_vertices == 10
        assert g.degree(9) == 0

    def test_from_edges_num_vertices_too_small(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 5)], num_vertices=3)

    @given(edges=edge_lists, extra=st.integers(0, 3))
    def test_from_edges_equals_set_based_reference(self, edges, extra):
        n = max((max(e) for e in edges), default=-1) + 1 + extra
        want = reference_csr(edges, n)
        for given_as in (edges, set(edges), iter(edges),
                         np.asarray(edges, dtype=np.int64).reshape(-1, 2)):
            assert Graph.from_edges(given_as, num_vertices=n) == want
        # |V| inferred: max id + 1 over the edges that are kept
        inferred = max((max(e) for e in edges if e[0] != e[1]), default=-1) + 1
        assert Graph.from_edges(edges) == reference_csr(edges, inferred)

    def test_from_edges_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 1), (-1, 2)])

    def test_empty(self):
        g = Graph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0

    def test_empty_zero(self):
        g = Graph.empty()
        assert g.num_vertices == 0
        assert list(g.edges()) == []

    def test_malformed_csr_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2]), np.array([1]))

    def test_non_monotone_indptr_rejected(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 2, 1, 3]), np.array([1, 2, 0]))


class TestAccessors:
    def test_neighbours_sorted(self):
        g = Graph.from_edges([(2, 0), (2, 4), (2, 1)])
        assert list(g.neighbours(2)) == [0, 1, 4]

    def test_neighbours_readonly(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            g.neighbours(0)[0] = 5

    def test_degree(self):
        g = gen.star_graph(6)
        assert g.degree(0) == 6
        assert all(g.degree(v) == 1 for v in range(1, 7))

    def test_has_edge(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_has_edge_out_of_range(self):
        g = Graph.from_edges([(0, 1)])
        assert not g.has_edge(0, 99)
        assert not g.has_edge(-1, 0)

    def test_edges_iterates_once(self):
        g = gen.cycle_graph(5)
        edges = list(g.edges())
        assert len(edges) == 5
        assert all(u < v for u, v in edges)

    def test_edge_array_is_the_sorted_edge_listing(self, er_graph):
        edges = list(er_graph.edges())
        assert edges == sorted(
            (u, int(v)) for u in er_graph.vertices()
            for v in er_graph.neighbours(u) if u < v)
        assert er_graph.edge_array().tolist() == [list(e) for e in edges]
        assert Graph.empty(3).edge_array().shape == (0, 2)

    def test_has_edges_is_vectorised_has_edge(self, er_graph):
        n = er_graph.num_vertices
        src, dst = np.meshgrid(np.arange(-1, n + 2), np.arange(-1, n + 2))
        src, dst = src.ravel(), dst.ravel()
        assert er_graph.has_edges(src, dst).tolist() == [
            er_graph.has_edge(int(u), int(v)) for u, v in zip(src, dst)]
        assert not Graph.empty(0).has_edges(np.array([0]), np.array([1]))[0]

    def test_composite_index_positions_are_arc_positions(self, er_graph):
        comp = er_graph.composite_index()
        assert comp is er_graph.composite_index(), "cached on the snapshot"
        assert not comp.flags.writeable
        n = er_graph.num_vertices
        assert np.array_equal(comp % n, er_graph.indices)
        assert np.array_equal(np.bincount(comp // n, minlength=n),
                              er_graph.degrees())

    def test_len_is_vertices(self):
        assert len(gen.complete_graph(4)) == 4


class TestStatistics:
    def test_max_degree(self, ba_graph):
        assert ba_graph.max_degree == int(max(ba_graph.degrees()))

    def test_avg_degree(self):
        g = gen.cycle_graph(10)
        assert g.avg_degree == pytest.approx(2.0)

    def test_degrees_sum_is_twice_edges(self, er_graph):
        assert int(er_graph.degrees().sum()) == 2 * er_graph.num_edges

    def test_empty_graph_stats(self):
        g = Graph.empty(0)
        assert g.max_degree == 0
        assert g.avg_degree == 0.0


class TestEquality:
    def test_equal_graphs(self):
        a = Graph.from_edges([(0, 1), (1, 2)])
        b = Graph.from_edges([(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)

    def test_unequal_graphs(self):
        assert Graph.from_edges([(0, 1)]) != Graph.from_edges([(0, 1), (1, 2)])

    def test_eq_other_type(self):
        assert Graph.from_edges([(0, 1)]) != "graph"


class TestBuilder:
    def test_relabelling(self):
        b = GraphBuilder()
        b.add_edge("alice", "bob").add_edge("bob", "carol")
        g = b.build()
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert b.vertex_ids["alice"] == 0

    def test_integer_mode(self):
        b = GraphBuilder(relabel=False)
        b.add_edge(3, 7)
        g = b.build()
        assert g.num_vertices == 8
        assert g.has_edge(3, 7)

    def test_integer_mode_rejects_negative(self):
        with pytest.raises(ValueError):
            GraphBuilder(relabel=False).add_edge(-1, 2)

    def test_self_loop_ignored(self):
        b = GraphBuilder()
        b.add_edge("x", "x")
        assert b.num_edges == 0

    def test_add_vertex_isolated(self):
        b = GraphBuilder(relabel=False)
        b.add_vertex(4)
        g = b.build()
        assert g.num_vertices == 5
        assert g.num_edges == 0

    def test_add_edges_bulk(self):
        g = GraphBuilder(relabel=False).add_edges(
            [(0, 1), (1, 2), (2, 0)]).build()
        assert g.num_edges == 3


# -- apply_updates: the CSR splice ------------------------------------------


@st.composite
def update_runs(draw):
    """A small start graph (possibly empty) and the seed of its batches."""
    n = draw(st.integers(0, 8))
    ids = st.integers(0, max(n - 1, 0))
    start = draw(st.lists(st.tuples(ids, ids), max_size=16 if n else 0))
    return n, start, draw(st.integers(0, 2**32 - 1))


def random_batch(rng, graph, present):
    """Random pairs over ids up to three beyond |V| — duplicates,
    self-loops, both orientations, delete-absent and inserts growing |V|
    by several ids come with the draw — plus one planted shape."""
    hi = max(1, graph.num_vertices + int(rng.integers(0, 4)))

    def pairs(most):
        return [tuple(int(x) for x in rng.integers(0, hi, 2))
                for _ in range(int(rng.integers(0, most)))]
    ins, dels = pairs(7), pairs(5)
    present = sorted(present)
    pick = present[int(rng.integers(len(present)))] if present else (0, 1)
    shape = int(rng.integers(0, 5))
    if shape == 0:      # a delete that empties a row
        dels += [e for e in present if pick[0] in e]
    elif shape == 1:    # insert-present, twice and reversed
        ins += [pick, pick[::-1], pick]
    elif shape == 2:    # insert-then-delete in one batch: deletes win
        dels += [e[::-1] for e in ins[:1]]
    elif shape == 3:    # a no-op batch
        ins, dels = ([pick] if present else []), [(hi + 1, hi + 2)]
    return ins, dels


def normalised(edges):
    return {(min(e), max(e)) for e in edges if e[0] != e[1]}


class TestSplice:
    @given(run=update_runs())
    def test_fifty_batches_equal_rebuild_of_folded_edge_set(self, run):
        n, start, seed = run
        rng = np.random.default_rng(seed)
        graph = Graph.from_edges(start, num_vertices=n)
        present = set(graph.edges())
        for _ in range(50):
            ins, dels = random_batch(rng, graph, present)
            before = graph.indptr.copy(), graph.indices.copy()
            new, delta = apply_updates(graph, ins, dels)
            want = (present | normalised(ins)) - normalised(dels)
            grown = max([graph.num_vertices]
                        + [v + 1 for _, v in want - present])
            assert new == Graph.from_edges(sorted(want), num_vertices=grown)
            assert delta.inserted == tuple(sorted(want - present))
            assert delta.deleted == tuple(sorted(present - want))
            assert (new is graph) == (want == present)
            # the parent snapshot is untouched, the new one as immutable
            assert np.array_equal(before[0], graph.indptr)
            assert np.array_equal(before[1], graph.indices)
            for arr in (graph.indptr, graph.indices, new.indptr,
                        new.indices):
                assert not arr.flags.writeable
            graph, present = new, want

    def test_apply_updates_never_rebuilds(self, er_graph, monkeypatch):
        edges = list(er_graph.edges())
        n = er_graph.num_vertices

        def rebuild(*args, **kwargs):
            raise AssertionError("apply_updates reached Graph.from_edges")
        monkeypatch.setattr(Graph, "from_edges", rebuild)
        new, delta = apply_updates(
            er_graph, inserts=[(0, n + 2), (n + 1, n + 2), edges[0]],
            deletes=edges[3:9] + [(n + 5, n + 6)])
        assert new.num_vertices == n + 3
        assert delta.size == 8
        assert set(new.edges()) == (
            set(edges) - set(edges[3:9])) | {(0, n + 2), (n + 1, n + 2)}
