"""Property-based tests (hypothesis) for core invariants.

Strategy: generate random small graphs and exercise the full pipeline —
all engines must agree with the brute-force reference; symmetry breaking
must keep exactly one embedding per instance; the LRBU cache must honour
its sealing/overflow contract under arbitrary operation sequences.

Strategies are shared with the conformance harness
(:mod:`repro.testing.strategies`), so the property tests and the fuzzer
explore structurally identical inputs — including labelled graphs and the
degenerate shapes (isolated vertices, multi-component graphs) real
datasets never contain.  Example counts follow the hypothesis profile
selected in ``conftest.py``: 25 by default, 200 under ``--slow``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import (BenuEngine, BigJoinEngine, RadsEngine,
                             SeedEngine, count_matches,
                             count_ordered_embeddings)
from repro.cluster import Cluster, CostModel, Metrics
from repro.core import HugeEngine
from repro.query import (automorphism_count, get_query, symmetry_break)
from repro.testing.strategies import (degenerate_graphs, graphs,
                                      labelled_graphs, labelled_patterns,
                                      patterns)

from .reference_cache import ReferenceLRBU
from .reference_ledger import columns

# -- properties ------------------------------------------------------------------


class TestEngineAgreement:
    @given(g=graphs(), seed=st.integers(min_value=0, max_value=3))
    def test_huge_matches_reference(self, g, seed):
        q = get_query("triangle")
        cl = Cluster(g, num_machines=3, workers_per_machine=2, seed=seed)
        assert HugeEngine(cl).run(q).count == count_matches(g, q)

    @given(g=graphs(max_vertices=12))
    def test_all_engines_agree_on_square(self, g):
        q = get_query("q1")
        cl = Cluster(g, num_machines=2, workers_per_machine=2, seed=1)
        expect = count_matches(g, q)
        assert HugeEngine(cl).run(q).count == expect
        assert SeedEngine(cl).run(q).count == expect
        assert BigJoinEngine(cl).run(q).count == expect
        assert BenuEngine(cl).run(q).count == expect
        assert RadsEngine(cl).run(q).count == expect

    @given(g=graphs(max_vertices=10), q=patterns())
    def test_huge_on_random_patterns(self, g, q):
        cl = Cluster(g, num_machines=2, workers_per_machine=2, seed=0)
        assert HugeEngine(cl).run(q).count == count_matches(g, q)

    @given(g=degenerate_graphs(), q=patterns())
    def test_huge_on_degenerate_graphs(self, g, q):
        """Isolated vertices and multi-component graphs: counts (often 0)
        still agree with the reference."""
        cl = Cluster(g, num_machines=2, workers_per_machine=2, seed=0)
        assert HugeEngine(cl).run(q).count == count_matches(g, q)

    @given(g=degenerate_graphs(max_vertices=10))
    def test_baselines_on_degenerate_graphs(self, g):
        q = get_query("triangle")
        cl = Cluster(g, num_machines=2, workers_per_machine=2, seed=1)
        expect = count_matches(g, q)
        assert BigJoinEngine(cl).run(q).count == expect
        assert BenuEngine(cl).run(q).count == expect

    @given(gl=labelled_graphs(max_vertices=10), q=labelled_patterns())
    def test_huge_on_labelled_graphs(self, gl, q):
        g, labels = gl
        cl = Cluster(g, num_machines=2, workers_per_machine=2, seed=0,
                     labels=labels)
        assert HugeEngine(cl).run(q).count == count_matches(
            g, q, labels=labels)

    @pytest.mark.slow
    @given(g=graphs(max_vertices=11), q=patterns())
    @settings(max_examples=100)
    def test_all_engines_agree_on_random_patterns(self, g, q):
        """Soak: the full engine set on arbitrary connected patterns."""
        cl = Cluster(g, num_machines=3, workers_per_machine=2, seed=2)
        expect = count_matches(g, q)
        assert HugeEngine(cl).run(q).count == expect
        assert SeedEngine(cl).run(q).count == expect
        assert BigJoinEngine(cl).run(q).count == expect
        assert BenuEngine(cl).run(q).count == expect
        assert RadsEngine(cl).run(q).count == expect


class TestSymmetryProperties:
    @given(g=graphs(max_vertices=10), q=patterns())
    def test_aut_divides_ordered_count(self, g, q):
        ordered = count_ordered_embeddings(g, q)
        assert ordered % automorphism_count(q) == 0

    @given(g=graphs(max_vertices=10), q=patterns())
    def test_symmetry_break_keeps_exactly_one(self, g, q):
        ordered = count_ordered_embeddings(g, q)
        matched = count_matches(g, q)
        assert matched * automorphism_count(q) == ordered

    @given(gl=labelled_graphs(max_vertices=10), q=labelled_patterns())
    def test_labelled_symmetry_break_keeps_exactly_one(self, gl, q):
        g, labels = gl
        ordered = count_ordered_embeddings(g, q, labels=labels)
        matched = count_matches(g, q, labels=labels)
        assert matched * automorphism_count(q) == ordered

    @given(q=patterns())
    @settings(max_examples=50)
    def test_conditions_reference_valid_vertices(self, q):
        for (u, v) in symmetry_break(q):
            assert 0 <= u < q.num_vertices
            assert 0 <= v < q.num_vertices
            assert u != v


class TestCacheProperties:
    @given(ops=st.lists(
        st.tuples(st.sampled_from(["insert", "seal", "release"]),
                  st.integers(min_value=0, max_value=20)),
        max_size=120), capacity=st.integers(min_value=2, max_value=30))
    @settings(max_examples=100)
    def test_lrbu_invariants_under_random_ops(self, ops, capacity):
        cache = ReferenceLRBU(capacity, CostModel())
        sealed_since_release: set[int] = set()
        for op, vid in ops:
            if op == "insert":
                cache.insert(vid, np.asarray([vid], dtype=np.int64))
                sealed_since_release.add(vid)  # insert pins the entry
                # at insert time, overflow is bounded by the footprint of
                # the pinned (sealed) entries — the §4.4 invariant
                if cache.size_ids > capacity:
                    pinned_ids = 2 * len(sealed_since_release)
                    assert cache.size_ids - capacity <= pinned_ids
            elif op == "seal":
                cache.seal(vid)
                if cache.contains(vid):
                    sealed_since_release.add(vid)
            else:
                cache.release()
                sealed_since_release.clear()
            # sealed entries are never evicted
            for v in sealed_since_release:
                assert cache.contains(v)

    @given(vids=st.lists(st.integers(min_value=0, max_value=1000),
                         min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_lrbu_never_loses_unsealed_data_silently(self, vids):
        """whatever is reported contained must be retrievable"""
        cache = ReferenceLRBU(16, CostModel())
        for v in vids:
            cache.insert(v, np.asarray([v], dtype=np.int64))
            if cache.contains(v):
                assert cache.get(v)[0] == v


_lengths = st.lists(st.integers(min_value=0, max_value=400),
                    min_size=1, max_size=3)
_machine = st.integers(min_value=0, max_value=2)
_ledger_calls = st.lists(st.one_of(
    st.tuples(st.just("ops"), _machine, _lengths),
    st.tuples(st.just("workers"), _machine,
              st.lists(_lengths, min_size=2, max_size=2)),
    st.tuples(st.just("send"), _machine, _machine,
              st.integers(min_value=0, max_value=10 ** 6),
              st.integers(min_value=1, max_value=9)),
    st.tuples(st.just("mem"), _machine,
              st.integers(min_value=0, max_value=10 ** 6)),
), min_size=2, max_size=40)


class TestLedgerProperties:
    @staticmethod
    def _replay(calls):
        # off-grid weight: 0.1 op has no finite binary expansion
        cost = CostModel(intersect_op=0.1)
        metrics = Metrics(3, 2, cost)
        for call in calls:
            kind, machine = call[0], call[1]
            if kind == "ops":
                metrics.charge_ops(machine, cost.intersection_ops(call[2]))
            elif kind == "workers":
                metrics.charge_worker_ops(
                    machine, [cost.intersection_ops(l) for l in call[2]])
            elif kind == "send":
                metrics.send(machine, call[2], call[3], messages=call[4])
            else:  # a buffer's whole life: allocated, then released
                metrics.alloc(machine, call[2])
                metrics.free(machine, call[2])
        return metrics

    @given(data=st.data(), calls=_ledger_calls)
    @settings(max_examples=200)
    def test_report_is_independent_of_charge_order(self, data, calls):
        """one multiset of charges, any arrival order, one report —
        bit for bit, because no ledger state is a float"""
        shuffled = data.draw(st.permutations(calls))
        a, b = self._replay(calls), self._replay(shuffled)
        assert a.report() == b.report()
        assert columns(a) == columns(b)


class TestGraphProperties:
    @given(g=graphs())
    @settings(max_examples=50)
    def test_degree_sum(self, g):
        assert int(g.degrees().sum()) == 2 * g.num_edges

    @given(g=graphs())
    @settings(max_examples=50)
    def test_neighbours_symmetric(self, g):
        for u, v in g.edges():
            assert g.has_edge(v, u)

    @given(g=degenerate_graphs())
    @settings(max_examples=50)
    def test_degenerate_isolated_vertices_have_no_neighbours(self, g):
        degs = g.degrees()
        assert (degs == 0).any()  # the strategy guarantees isolation
        for v in g.vertices():
            assert len(g.neighbours(v)) == g.degree(v)

    @given(g=graphs(), k=st.integers(min_value=1, max_value=5))
    @settings(max_examples=30)
    def test_partition_is_a_partition(self, g, k):
        from repro.graph import PartitionedGraph

        pg = PartitionedGraph(g, k, seed=0)
        seen = []
        for p in range(k):
            seen.extend(int(v) for v in pg.local_vertices(p))
        assert sorted(seen) == list(g.vertices())

    @given(g=degenerate_graphs(), k=st.integers(min_value=1, max_value=4))
    @settings(max_examples=30)
    def test_partition_covers_isolated_vertices(self, g, k):
        from repro.graph import PartitionedGraph

        pg = PartitionedGraph(g, k, seed=1)
        seen = []
        for p in range(k):
            seen.extend(int(v) for v in pg.local_vertices(p))
        assert sorted(seen) == list(g.vertices())
