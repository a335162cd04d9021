"""Tests for the §6 applications, validated against networkx."""

import networkx as nx
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.apps import (connected_patterns, count_st_paths,
                        enumerate_st_paths, frequent_patterns, motif_census,
                        motif_counts, shortest_path, shortest_path_lengths)
from repro.cluster import Cluster
from repro.graph import generators as gen
from repro.graph import load_dataset
from repro.testing.strategies import degenerate_graphs, graphs


@pytest.fixture(scope="module")
def graph():
    return gen.barabasi_albert(100, 3, seed=6)


@pytest.fixture(scope="module")
def nxg(graph):
    return nx.Graph(list(graph.edges()))


@pytest.fixture()
def app_cluster(graph):
    return Cluster(graph, num_machines=4, workers_per_machine=2, seed=2)


class TestShortestPath:
    def test_matches_networkx_lengths(self, app_cluster, nxg):
        for target in (10, 50, 99):
            path = shortest_path(app_cluster, 0, target)
            assert len(path) - 1 == nx.shortest_path_length(nxg, 0, target)

    def test_path_is_valid_walk(self, app_cluster, graph):
        path = shortest_path(app_cluster, 3, 77)
        for a, b in zip(path, path[1:]):
            assert graph.has_edge(a, b)

    def test_trivial_path(self, app_cluster):
        assert shortest_path(app_cluster, 5, 5) == [5]

    def test_unreachable_within_hops(self, app_cluster, nxg):
        far = max(nx.single_source_shortest_path_length(nxg, 0).items(),
                  key=lambda kv: kv[1])
        if far[1] >= 2:
            assert shortest_path(app_cluster, 0, far[0],
                                 max_hops=far[1] - 1) is None

    def test_disconnected_returns_none(self):
        from repro.graph import Graph

        g = Graph.from_edges([(0, 1), (2, 3)])
        cl = Cluster(g, num_machines=2)
        assert shortest_path(cl, 0, 3) is None

    def test_out_of_range(self, app_cluster):
        with pytest.raises(ValueError):
            shortest_path(app_cluster, 0, 10_000)

    def test_lengths_match_networkx(self, app_cluster, nxg):
        ours = shortest_path_lengths(app_cluster, 0)
        theirs = dict(nx.single_source_shortest_path_length(nxg, 0))
        assert ours == theirs

    def test_charges_communication(self, app_cluster):
        shortest_path_lengths(app_cluster, 0)
        assert app_cluster.metrics.bytes_sent.sum() > 0

    def test_ledger_pinned_on_example_cluster(self):
        """The BFS charges what the per-vertex loop it replaced charged
        (literals captured at cb67e72 on the road-network example's
        cluster): one aggregated GetNbrs per owner per round, a scan tick
        per neighbour read, all on the source's owner — discovered
        vertices stay with their discoverer."""
        eu = load_dataset("EU")
        cl = Cluster(eu, num_machines=6, workers_per_machine=2, seed=3)
        dist = shortest_path_lengths(cl, 0)
        m = cl.metrics
        assert (len(dist), max(dist.values())) == (1764, 32)
        assert m.compute_ops.tolist() == [0, 0, 0, 0, 434372608, 0]
        assert m.rpc_requests.sum() == 130
        assert m.bytes_sent.sum() == 76048
        assert m.messages_sent.sum() == 260
        assert not m.worker_ops.any() and not m.cache_misses.any()
        # the example's sequence: the s-t search first, on the same ledger
        cl.reset_metrics()
        assert len(shortest_path(cl, 0, eu.num_vertices - 1)) == 24
        shortest_path_lengths(cl, 0)
        m = cl.metrics
        assert m.rpc_requests.sum() == 220
        assert m.bytes_sent.sum() == 126816


def _dfs_paths(graph, s, t, hops):
    """Brute force: every simple s-t path of at most ``hops`` edges."""
    if s == t:
        return [(s,)]
    out, stack = [], [(s,)]
    while stack:
        p = stack.pop()
        if len(p) > hops:
            continue
        for u in graph.neighbours(p[-1]).tolist():
            if u == t:
                out.append(p + (u,))
            elif u not in p:
                stack.append(p + (u,))
    return sorted(out)


class TestHopConstrainedPaths:
    @given(g=st.one_of(graphs(), degenerate_graphs()), data=st.data(),
           hops=st.integers(min_value=0, max_value=5),
           machines=st.sampled_from([1, 3, 16]))
    def test_matches_brute_force(self, g, data, hops, machines):
        """Arbitrary endpoints — equal, isolated, in different
        components — and more machines than vertices."""
        ends = st.integers(min_value=0, max_value=g.num_vertices - 1)
        s, t = data.draw(ends), data.draw(ends)
        cl = Cluster(g, num_machines=machines, workers_per_machine=2, seed=1)
        want = _dfs_paths(g, s, t, hops)
        assert enumerate_st_paths(cl, s, t, hops) == want
        assert count_st_paths(cl, s, t, hops) == len(want)

    def test_charges_communication(self, app_cluster):
        enumerate_st_paths(app_cluster, 0, 9, 4)
        m = app_cluster.metrics
        assert m.bytes_sent.sum() > 0
        assert m.rpc_requests.sum() > 0

    @pytest.mark.parametrize("hops", [1, 2, 3, 4])
    def test_matches_networkx(self, app_cluster, nxg, hops):
        ours = enumerate_st_paths(app_cluster, 0, 9, hops)
        theirs = sorted(tuple(p)
                        for p in nx.all_simple_paths(nxg, 0, 9, cutoff=hops))
        assert ours == theirs

    def test_count(self, app_cluster, nxg):
        assert count_st_paths(app_cluster, 2, 8, 3) == len(
            list(nx.all_simple_paths(nxg, 2, 8, cutoff=3)))

    def test_zero_hops(self, app_cluster):
        assert enumerate_st_paths(app_cluster, 1, 2, 0) == []

    def test_same_endpoints(self, app_cluster):
        assert enumerate_st_paths(app_cluster, 4, 4, 3) == [(4,)]

    def test_paths_are_simple(self, app_cluster):
        for p in enumerate_st_paths(app_cluster, 0, 20, 4):
            assert len(set(p)) == len(p)

    def test_invalid_args(self, app_cluster):
        with pytest.raises(ValueError):
            enumerate_st_paths(app_cluster, 0, 1, -1)
        with pytest.raises(ValueError):
            enumerate_st_paths(app_cluster, 0, 99999, 2)


class TestMining:
    def test_connected_patterns_size2(self):
        assert len(connected_patterns(2)) == 1  # the single edge

    def test_connected_patterns_size3(self):
        pats = connected_patterns(3)
        assert len(pats) == 2  # wedge + triangle

    def test_connected_patterns_size4(self):
        assert len(connected_patterns(4)) == 6

    def test_connected_patterns_size5(self):
        assert len(connected_patterns(5)) == 21

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            connected_patterns(1)
        with pytest.raises(ValueError):
            connected_patterns(6)

    def test_motif_counts_match_reference(self, app_cluster, graph):
        from repro.baselines import count_matches

        counts = motif_counts(app_cluster, 3)
        pats = {p.name: p for p in connected_patterns(3)}
        for name, count in counts.items():
            assert count == count_matches(graph, pats[name])

    def test_frequent_patterns_threshold(self, app_cluster):
        found = frequent_patterns(app_cluster, max_size=3, min_support=1)
        assert all(count >= 1 for _, count in found)
        # the single edge pattern is always found on a non-empty graph
        assert any(p.num_vertices == 2 for p, _ in found)

    def test_frequent_patterns_high_threshold_empty_tail(self, app_cluster):
        found = frequent_patterns(app_cluster, max_size=4,
                                  min_support=10 ** 9)
        assert found == []

    def test_frequent_patterns_count_is_not_anti_monotone(self):
        """The star K₁,₅ has 5 edges but 10 wedges and 10 three-stars: an
        empty level must not stop the mining."""
        from repro.graph import Graph

        star = Graph.from_edges([(0, leaf) for leaf in range(1, 6)])
        found = frequent_patterns(Cluster(star, num_machines=2), 4,
                                  min_support=6)
        assert sorted((p.num_vertices, p.num_edges, count)
                      for p, count in found) == [(3, 2, 10), (4, 3, 10)]

    def test_motif_counts_ledger_is_the_sum_of_its_runs(self, app_cluster,
                                                        graph):
        """The caller's ledger carries the whole loop, not the last run."""
        from repro.core import HugeEngine

        motif_counts(app_cluster, 3)
        solo = []
        for pattern in connected_patterns(3):
            cl = Cluster(graph, num_machines=4, workers_per_machine=2, seed=2)
            HugeEngine(cl).run(pattern)
            solo.append(cl.metrics)
        got = app_cluster.metrics
        for field in ("bytes_sent", "rpc_requests", "compute_ops",
                      "worker_ops"):
            assert getattr(got, field).tolist() == \
                sum(getattr(run, field) for run in solo).tolist()

    def test_frequent_invalid_size(self, app_cluster):
        with pytest.raises(ValueError):
            frequent_patterns(app_cluster, max_size=1, min_support=1)

    def test_census_triangles_match_networkx(self, app_cluster, nxg):
        res = motif_census(app_cluster, 3)
        triangles = sum(nx.triangles(nxg).values()) // 3
        by_key = {res.class_keys[n]: c for n, c in res.counts.items()}
        from repro.query import QueryGraph

        tri_key = QueryGraph(3, [(0, 1), (1, 2), (2, 0)]).canonical_key()
        assert by_key[tri_key] == triangles
        # non-induced wedge embeddings = induced wedges + 3 per triangle
        wedge_key = QueryGraph(3, [(0, 1), (1, 2)]).canonical_key()
        wedges = sum(d * (d - 1) // 2 for _, d in nxg.degree())
        assert by_key[wedge_key] == wedges - 3 * triangles

    def test_census_vs_motif_counts_relationship(self, app_cluster):
        """Engine motif counts are non-induced: triangles agree with the
        census exactly; wedges exceed the induced census count."""
        census = motif_census(app_cluster, 3)
        engine = motif_counts(app_cluster, 3)
        by_name = {n: (census.counts[n], engine[n]) for n in engine}
        pats = {p.name: p for p in connected_patterns(3)}
        for name, (induced, non_induced) in by_name.items():
            if pats[name].num_edges == 3:  # triangle: closed, so equal
                assert induced == non_induced
            else:
                assert non_induced >= induced
