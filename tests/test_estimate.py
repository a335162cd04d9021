"""Tests for cardinality estimation (repro.query.estimate)."""

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, strategies as st

import repro
from repro.graph import Graph, generators as gen
from repro.query import (QUERIES, ExactEstimator, RandomGraphEstimator,
                         SamplingEstimator, connected_subqueries, get_query,
                         star_count)


class TestStarCount:
    def test_single_leaf_counts_directed_edges(self, er_graph):
        assert star_count(er_graph, 1) == 2 * er_graph.num_edges

    def test_two_leaves_counts_wedges(self):
        g = gen.star_graph(5)  # centre degree 5
        assert star_count(g, 2) == 10  # C(5,2)

    def test_complete_graph(self):
        g = gen.complete_graph(5)  # all degrees 4
        assert star_count(g, 3) == 5 * 4  # 5 · C(4,3)

    def test_invalid_leaves(self, er_graph):
        with pytest.raises(ValueError):
            star_count(er_graph, 0)


class TestExactEstimator:
    def test_matches_reference(self, er_graph):
        from repro.baselines import count_matches

        est = ExactEstimator(er_graph)
        for name in ("triangle", "q1"):
            q = get_query(name)
            assert est.estimate(q) == count_matches(er_graph, q)

    def test_star_shortcut_exact(self, er_graph):
        est = ExactEstimator(er_graph)
        from repro.query import QueryGraph

        wedge = QueryGraph(3, [(0, 1), (0, 2)])
        assert est.estimate(wedge) == pytest.approx(
            star_count(er_graph, 2))

    def test_caching(self, er_graph):
        est = ExactEstimator(er_graph)
        q = get_query("triangle")
        assert est.estimate(q) == est.estimate(q)


class TestSamplingEstimator:
    @pytest.mark.parametrize("name", ["triangle", "q1", "q2"])
    def test_within_factor_of_exact(self, name, er_graph):
        q = get_query(name)
        exact = ExactEstimator(er_graph).estimate(q)
        est = SamplingEstimator(er_graph, trials=3000, seed=7).estimate(q)
        assert exact / 2 <= est <= exact * 2

    def test_deterministic_given_seed(self, er_graph):
        q = get_query("q1")
        a = SamplingEstimator(er_graph, trials=100, seed=5).estimate(q)
        b = SamplingEstimator(er_graph, trials=100, seed=5).estimate(q)
        assert a == b

    def test_invalid_trials(self, er_graph):
        with pytest.raises(ValueError):
            SamplingEstimator(er_graph, trials=0)

    def test_empty_graph(self):
        # nothing to start a walk from
        est = SamplingEstimator(Graph.empty(0))
        assert est.estimate(get_query("triangle")) == 1.0

    @pytest.mark.parametrize("graph", [
        Graph.empty(3),          # vertices but no edge to extend along
        gen.path_graph(3),       # fewer vertices than the pattern
    ], ids=["edgeless", "too-small"])
    def test_degenerate_graphs_floor_at_one(self, graph):
        est = SamplingEstimator(graph)
        assert est.estimate(get_query("q1")) == 1.0

    def test_floor_at_one(self):
        # estimates are floored at 1 so optimiser costs never hit zero:
        # a path has no triangle, so every walk dies
        g = gen.path_graph(4)
        est = SamplingEstimator(g, trials=50, seed=1)
        assert est.estimate(get_query("triangle")) == 1.0

    @pytest.mark.parametrize("name", ["triangle", "q1", "q2"])
    @pytest.mark.parametrize("fixture", ["er_graph", "plc_graph"])
    def test_unbiased_over_seeds(self, name, fixture, request):
        # Horvitz–Thompson is unbiased: at the default 400 trials the
        # mean over 40 seeds sits within 3 standard errors of the exact
        # count, on a flat graph and on a skewed one (plc: max degree 39
        # of 70 vertices)
        g = request.getfixturevalue(fixture)
        q = get_query(name)
        exact = ExactEstimator(g).estimate(q)
        ests = np.array([SamplingEstimator(g, seed=s).estimate(q)
                         for s in range(40)])
        stderr = ests.std(ddof=1) / np.sqrt(len(ests))
        assert abs(ests.mean() - exact) <= 3 * stderr

    @given(name=st.sampled_from(sorted(QUERIES)), data=st.data())
    def test_relabelling_gives_identical_estimate(self, name, data, ba_graph):
        q = get_query(name)
        perm = data.draw(st.permutations(range(q.num_vertices)))
        relabelled = q.relabel(dict(enumerate(perm)))
        est = SamplingEstimator(ba_graph, trials=50)
        assert est.estimate(relabelled) == est.estimate(q)
        fresh = SamplingEstimator(ba_graph, trials=50)
        assert fresh.estimate(relabelled) == est.estimate(q)

    def test_one_walk_per_isomorphism_class(self, ba_graph):
        # the memo is keyed by class: the DP's non-star sub-queries of q3
        # are 35 distinct graphs but 6 shapes, and stars never sample
        calls = []

        class Counting(SamplingEstimator):
            def _estimate(self, pattern):
                calls.append(pattern)
                return super()._estimate(pattern)

        est = Counting(ba_graph, trials=20)
        subs = [sub.to_query_graph()[0]
                for sub in connected_subqueries(get_query("q3"))]
        for pattern in subs:
            est.estimate(pattern)
        classes = {p.canonical_key() for p in subs if not p.is_star()}
        assert len(calls) == len(classes) < len(subs)
        assert all(p == p.canonical_form()[0] for p in calls)


def test_estimator_imports_before_the_engine():
    # layering: query.estimate runs on core.kernels, and the engine imports
    # query.estimate — importing the estimator first (the package facade
    # bypassed, since ``import repro`` itself loads the engine first) must
    # work and must not drag the engine in
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('repro')\n"
        f"pkg.__path__ = [{os.path.join(src, 'repro')!r}]\n"
        "sys.modules['repro'] = pkg\n"
        "import repro.query.estimate\n"
        "assert 'repro.core.engine' not in sys.modules\n"
        "from repro.core import HugeEngine, plan\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


class TestRandomGraphEstimator:
    def test_order_of_magnitude_on_er(self):
        # the ER formula is asymptotically right on an actual ER graph
        g = gen.erdos_renyi(60, 0.25, seed=9)
        q = get_query("triangle")
        exact = ExactEstimator(g).estimate(q)
        est = RandomGraphEstimator(g).estimate(q)
        assert exact / 4 <= est <= exact * 4

    def test_tiny_graph(self):
        g = gen.path_graph(2)
        est = RandomGraphEstimator(g)
        assert est.estimate(get_query("triangle")) >= 0

    def test_ranking_consistency(self, er_graph):
        # denser patterns must not be estimated as more frequent
        est = RandomGraphEstimator(er_graph)
        assert est.estimate(get_query("q1")) >= est.estimate(get_query("q3"))
