"""Tests for the size-k motif census: engine counts solved through the
spanning-subgraph matrix, and the census conformance family.

The ground truth here is a third, test-local implementation (an
``itertools.combinations`` sweep classified by the lexicographically
minimal relabelling), independent of both the census under test and
the conformance oracles' own reference.
"""

from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.mining import (connected_patterns, motif_census,
                               spanning_copies)
from repro.cluster import Cluster
from repro.graph import Graph, load_dataset
from repro.graph import generators as gen
from repro.query import QueryGraph, automorphism_count
from repro.testing import census_matrix, check_census_case, \
    compute_census_reference, default_matrix, run_case
from repro.testing.oracles import CaseOutcome
from repro.testing.strategies import graphs
from repro.testing.workloads import Workload, random_workload

# -- test-local brute force ----------------------------------------------------


def _min_edges(k, edges):
    """Lexicographically smallest relabelling of a local edge list."""
    best = None
    for perm in permutations(range(k)):
        mapped = tuple(sorted(tuple(sorted((perm[a], perm[b])))
                              for a, b in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def _brute_census(graph, k):
    """Class (min-edge-list) → count over all connected k-subsets."""
    adj = [set(int(x) for x in graph.neighbours(u))
           for u in range(graph.num_vertices)]
    counts = {}
    for combo in combinations(range(graph.num_vertices), k):
        edges = [(i, j) for i, j in combinations(range(k), 2)
                 if combo[j] in adj[combo[i]]]
        reach, stack = {0}, [0]
        while stack:
            u = stack.pop()
            for a, b in edges:
                for x, y in ((a, b), (b, a)):
                    if x == u and y not in reach:
                        reach.add(y)
                        stack.append(y)
        if len(reach) != k:
            continue
        key = _min_edges(k, edges)
        counts[key] = counts.get(key, 0) + 1
    return counts


def _census_by_key(result):
    """CensusResult per-class counts re-keyed by canonical key."""
    return {result.class_keys[name]: count
            for name, count in result.counts.items()}


def _cluster(graph, machines=3, workers=2, seed=5):
    return Cluster(graph, num_machines=machines,
                   workers_per_machine=workers, seed=seed)


def _workload_for(graph, seed=0):
    """Wrap a bare graph as a (pattern-irrelevant) census workload."""
    return Workload(num_vertices=graph.num_vertices,
                    edges=tuple(graph.edges()), labels=None,
                    pattern_name="triangle", pattern_num_vertices=3,
                    pattern_edges=((0, 1), (1, 2), (2, 0)),
                    pattern_labels=None, seed=seed)


# -- the spanning-subgraph matrix ----------------------------------------------


class TestSpanningCopies:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_unit_upper_triangular_in_edge_count_order(self, k):
        patterns = connected_patterns(k)
        copies = spanning_copies(k)
        order = sorted(range(len(patterns)),
                       key=lambda i: patterns[i].num_edges)
        for row, i in enumerate(order):
            assert copies[i][i] == 1
            for j in order[:row]:  # no more edges than i, and not i
                assert copies[i][j] == 0
        # every class spans the clique at least once
        clique = order[-1]
        assert all(copies[i][clique] >= 1 for i in order)

    def test_wedge_in_triangle(self):
        by_edges = {p.num_edges: i
                    for i, p in enumerate(connected_patterns(3))}
        assert spanning_copies(3)[by_edges[2]][by_edges[3]] == 3


# -- census correctness --------------------------------------------------------


class TestCensusCorrectness:
    @pytest.fixture(scope="class")
    def graph(self):
        return gen.barabasi_albert(48, 3, seed=9)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_brute_force_per_class(self, graph, k):
        brute = _brute_census(graph, k)
        res = motif_census(_cluster(graph), k)
        assert res.total_subgraphs == sum(brute.values())
        got = _census_by_key(res)
        for rep, count in brute.items():
            key = QueryGraph(k, list(rep)).canonical_key()
            assert got[key] == count
        assert sum(got.values()) == res.total_subgraphs

    def test_k5_total_and_class_sum(self):
        g = gen.barabasi_albert(24, 2, seed=4)
        brute = _brute_census(g, 5)
        res = motif_census(_cluster(g), 5)
        assert res.total_subgraphs == sum(brute.values())
        assert sum(res.counts.values()) == res.total_subgraphs
        assert len([c for c in res.counts.values() if c]) == len(brute)

    @pytest.mark.parametrize("k", [3, 4])
    def test_automorphism_identity(self, k):
        """Brute labelled-embedding counts divide by |Aut| exactly:
        labelled(class) == census(class) × automorphism_count(class)."""
        g = gen.barabasi_albert(12, 2, seed=8)
        adj = [set(int(x) for x in g.neighbours(u))
               for u in range(g.num_vertices)]
        res = motif_census(_cluster(g), k)
        for name, count in res.counts.items():
            pattern = next(p for p in connected_patterns(k)
                           if p.name == name)
            eset = {frozenset(e) for e in pattern.edges}
            labelled = 0
            for image in permutations(range(g.num_vertices), k):
                if all((image[b] in adj[image[a]]) == (
                        frozenset((a, b)) in eset)
                       for a, b in combinations(range(k), 2)):
                    labelled += 1
            aut = automorphism_count(pattern)
            assert labelled == count * aut
            assert labelled % aut == 0

    def test_every_class_reported_even_when_absent(self):
        g = Graph.from_edges([(0, 1), (1, 2), (2, 3)])  # a bare path
        res = motif_census(_cluster(g, machines=2), 4)
        assert len(res.counts) == 6
        assert sorted(res.counts.values()) == [0, 0, 0, 0, 0, 1]
        path_key = QueryGraph(4, [(0, 1), (1, 2), (2, 3)]).canonical_key()
        (hit,) = [name for name, c in res.counts.items() if c == 1]
        assert res.class_keys[hit] == path_key  # the path itself

    def test_graph_smaller_than_k(self):
        g = Graph.from_edges([(0, 1), (1, 2)])
        res = motif_census(_cluster(g, machines=2), 5)
        assert res.total_subgraphs == 0
        assert set(res.counts.values()) == {0}

    def test_invalid_k(self):
        g = Graph.from_edges([(0, 1)])
        with pytest.raises(ValueError):
            motif_census(_cluster(g, machines=1), 1)
        with pytest.raises(ValueError):
            motif_census(_cluster(g, machines=1), 6)

    def test_partitioning_invariance(self):
        """The census is a property of the graph, not the cluster shape."""
        g = gen.barabasi_albert(40, 2, seed=3)
        a = motif_census(_cluster(g, machines=2, workers=1, seed=1), 3)
        b = motif_census(_cluster(g, machines=5, workers=3, seed=13), 3)
        assert a.counts == b.counts
        assert a.total_subgraphs == b.total_subgraphs

    def test_simulated_report_is_populated(self):
        g = gen.barabasi_albert(40, 2, seed=3)
        res = motif_census(_cluster(g), 3)
        assert res.report.total_time_s > 0
        assert res.report.bytes_transferred > 0  # remote rows were pulled
        assert res.report.mem_underflows == 0

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_property_census_matches_brute(self, data):
        g = data.draw(graphs(min_vertices=4, max_vertices=10, min_edges=3))
        k = data.draw(st.integers(min_value=2, max_value=4))
        brute = _brute_census(g, k)
        res = motif_census(_cluster(g, machines=2), k)
        assert res.total_subgraphs == sum(brute.values())
        got = _census_by_key(res)
        assert {QueryGraph(k, list(rep)).canonical_key(): c
                for rep, c in brute.items()} == \
            {key: c for key, c in got.items() if c}


# -- the walker's last word ----------------------------------------------------

#: per-class counts of the recursive ESU walker this census replaced,
#: recorded at its last commit on the benchmark clusters (10 × 4,
#: ``REPRO_BENCH_SEED=1``: dataset seed 7, partition seed 1); LJ k = 4
#: was a 78 s run there
_WALKER_COUNTS = {
    ("GO", 3): [21432, 132],
    ("GO", 4): [292287, 157167, 9925, 963, 172, 0],
    ("LJ", 4): [15817185, 5286372, 475132, 39758, 10941, 97],
}


def _bench_cluster(dataset):
    return Cluster(load_dataset(dataset, seed=7), num_machines=10,
                   workers_per_machine=4, seed=1)


class TestPinnedCounts:
    @pytest.mark.parametrize("dataset,k", list(_WALKER_COUNTS))
    def test_counts_equal_the_walkers(self, dataset, k):
        res = motif_census(_bench_cluster(dataset), k)
        want = _WALKER_COUNTS[dataset, k]
        assert res.counts == {f"motif{k}-{i}": c
                              for i, c in enumerate(want)}
        assert res.total_subgraphs == sum(want)

    def test_two_fresh_runs_bit_identical(self):
        a = motif_census(_bench_cluster("GO"), 4).as_dict()
        b = motif_census(_bench_cluster("GO"), 4).as_dict()
        assert a == b
        assert a["report"]["peak_memory_bytes"] > 0  # the queues' memory


# -- the conformance family ----------------------------------------------------


class TestCensusConformance:
    def test_family_in_full_matrix(self):
        names = {s.name for s in default_matrix()}
        assert {"census-k3", "census-k4", "census-k5"} <= names

    @pytest.mark.parametrize("spec", census_matrix(),
                             ids=lambda s: s.name)
    def test_specs_pass_on_random_workloads(self, spec):
        for seed in (11, 12):
            outcome = run_case(random_workload(seed, max_vertices=11), spec)
            assert outcome.ok, [str(f) for f in outcome.failures]
            assert outcome.census_counts is not None

    def test_reference_matches_census(self):
        g = gen.barabasi_albert(20, 2, seed=6)
        w = _workload_for(g)
        ref = compute_census_reference(w, 3)
        res = motif_census(_cluster(g), 3)
        assert ref.total == res.total_subgraphs
        assert ref.labelled_counts is not None

    def test_reference_budget_gates_labelled_sweep(self):
        g = gen.barabasi_albert(60, 2, seed=6)  # C(60,5)·5! >> budget
        ref = compute_census_reference(_workload_for(g), 5)
        assert ref.labelled_counts is None
        assert ref.total > 0

    def _good_outcome(self, workload, spec):
        outcome = run_case(workload, spec)
        assert outcome.ok
        return outcome

    def test_oracle_catches_wrong_total(self):
        w = random_workload(21, max_vertices=10)
        spec = census_matrix()[0]
        outcome = self._good_outcome(w, spec)
        outcome.census_total += 1
        bad = check_census_case(w, spec, outcome)
        assert any(f.oracle == "census-total" for f in bad)

    def test_oracle_catches_wrong_class_count(self):
        w = random_workload(21, max_vertices=10)
        spec = census_matrix()[0]
        outcome = self._good_outcome(w, spec)
        name = max(outcome.census_counts, key=outcome.census_counts.get)
        outcome.census_counts[name] -= 1
        outcome.census_total -= 1
        bad = check_census_case(w, spec, outcome)
        assert any(f.oracle == "census-classes" for f in bad)

    def test_oracle_reports_crash_first(self):
        w = random_workload(21, max_vertices=10)
        spec = census_matrix()[0]
        outcome = CaseOutcome(spec_name=spec.name, error="Boom: crashed")
        bad = check_census_case(w, spec, outcome)
        assert [f.oracle for f in bad] == ["error"]
