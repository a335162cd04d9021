"""Tests for the plan tree, its Equation 3 view, the builders and the
optimiser."""

import json
import os
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from repro.baselines import RadsEngine, SeedEngine, count_matches
from repro.cluster import Cluster, PlanError
from repro.core import HugeEngine
from repro.core.dataflow import plan_signature
from repro.core.plan import (CommMode, ExecutionPlan, JoinAlgorithm,
                             Optimiser, PlanNode, benu_plan,
                             bidirectional_path_plan, configure_join,
                             dfs_order, emptyheaded_plan, graphflow_plan,
                             greedy_order, rads_plan, seed_plan,
                             starjoin_plan, translate, vertex_order_plan,
                             wco_plan)
from repro.graph import generators as gen
from repro.query import (QUERIES, ExactEstimator, SamplingEstimator, SubQuery,
                         full_subquery, get_query)
from repro.testing.goldens import PLAN_GOLDEN_DATASETS, capture_plan_goldens


def sq(*edges):
    return SubQuery(frozenset(tuple(sorted(e)) for e in edges))


class TestPlanNode:
    def test_leaf(self):
        node = PlanNode(sq((0, 1)))
        assert node.is_leaf
        assert node.setting is None

    def test_join_validation_edge_overlap(self):
        with pytest.raises(PlanError):
            PlanNode(sq((0, 1), (1, 2)),
                     PlanNode(sq((0, 1))), PlanNode(sq((0, 1), (1, 2))))

    def test_join_validation_coverage(self):
        with pytest.raises(PlanError):
            PlanNode(sq((0, 1), (1, 2), (2, 3)),
                     PlanNode(sq((0, 1))), PlanNode(sq((1, 2))))

    def test_join_validation_disconnected(self):
        with pytest.raises(PlanError):
            PlanNode(sq((0, 1), (2, 3)),
                     PlanNode(sq((0, 1))), PlanNode(sq((2, 3))))

    def test_one_child_rejected(self):
        with pytest.raises(PlanError):
            PlanNode(sq((0, 1), (1, 2)), PlanNode(sq((0, 1))), None)

    def test_traversal_order(self):
        left = PlanNode(sq((0, 1)))
        right = PlanNode(sq((1, 2)))
        root = PlanNode(sq((0, 1), (1, 2)), left, right)
        assert [n.is_leaf for n in root.nodes()] == [True, True, False]
        assert root.is_left_deep()


class TestExecutionPlan:
    def test_validates_root_coverage(self):
        q = get_query("triangle")
        with pytest.raises(PlanError):
            ExecutionPlan(q, PlanNode(sq((0, 1))))

    def test_validates_star_units(self):
        q = get_query("triangle")
        # triangle "unit" is not a star
        with pytest.raises(PlanError):
            ExecutionPlan(q, PlanNode(full_subquery(q)))

    def test_describe_mentions_joins(self):
        plan = wco_plan(get_query("q1"))
        text = plan.describe()
        assert "J1" in text and "J2" in text


class TestEquationThree:
    def test_complete_star_join_is_wco_pulling(self):
        left = sq((0, 1), (1, 2))
        right = sq((0, 3), (2, 3))
        setting, swapped = configure_join(left, right)
        assert setting.algorithm is JoinAlgorithm.WCO
        assert setting.comm is CommMode.PULLING
        assert setting.star_root == 3
        assert not swapped

    def test_star_with_matched_root_is_hash_pulling(self):
        left = sq((0, 1), (1, 2))
        right = sq((0, 3), (0, 4))  # root 0 matched, leaves new
        setting, _ = configure_join(left, right)
        assert setting.algorithm is JoinAlgorithm.HASH
        assert setting.comm is CommMode.PULLING
        assert setting.star_root == 0

    def test_otherwise_hash_pushing(self):
        left = sq((0, 1), (1, 2))        # path
        right = sq((2, 3), (3, 4))       # path sharing vertex 2
        setting, _ = configure_join(left, right)
        assert setting.algorithm is JoinAlgorithm.HASH
        assert setting.comm is CommMode.PUSHING
        assert setting.star_root is None

    def test_wedge_right_is_also_a_star(self):
        # a wedge is a 2-star, so either orientation qualifies; the
        # un-swapped one is preferred
        left = sq((0, 3), (2, 3))
        right = sq((0, 1), (1, 2))
        setting, swapped = configure_join(left, right)
        assert not swapped
        assert setting.comm is CommMode.PULLING
        assert setting.star_root == 1

    def test_swapped_when_star_on_left(self):
        # right is a 3-path (not a star); left is the star → swap
        left = sq((0, 3), (2, 3))
        right = sq((0, 1), (1, 2), (2, 4))
        setting, swapped = configure_join(left, right)
        assert swapped
        assert setting.comm is CommMode.PULLING
        assert setting.star_root == 3

    def test_operands_name_the_star_side(self):
        from repro.query import QueryGraph

        q = QueryGraph(5, [(0, 1), (1, 2), (2, 4), (0, 3), (2, 3)])
        star = sq((0, 3), (2, 3))
        path = sq((0, 1), (1, 2), (2, 4))  # not a star
        path_node = PlanNode(path, PlanNode(sq((0, 1), (1, 2))),
                             PlanNode(sq((2, 4))))
        plan = ExecutionPlan(q, PlanNode(
            full_subquery(q), PlanNode(star), path_node))
        join = list(plan.joins())[-1]  # post-order: root join is last
        assert join is plan.root
        assert join.left.sub == star   # the tree stays as built …
        assert join.operands[1].sub == star  # … and q'_r is the star
        assert [n.sub for n in plan.nodes()][-2] == star


class TestOptimiser:
    @pytest.fixture()
    def estimator(self, er_graph):
        return ExactEstimator(er_graph)

    @pytest.mark.parametrize("name", ["triangle", "q1", "q2", "q3", "q4",
                                      "q6", "q7", "q8"])
    def test_produces_valid_plan(self, name, estimator, er_graph):
        plan = Optimiser(estimator, 4, er_graph.num_edges).run(
            get_query(name))
        assert plan.root.sub == full_subquery(get_query(name))
        assert plan.estimated_cost > 0

    def test_star_query_is_single_unit(self, estimator, er_graph):
        from repro.query import QueryGraph

        star = QueryGraph(4, [(0, 1), (0, 2), (0, 3)])
        plan = Optimiser(estimator, 4, er_graph.num_edges).run(star)
        assert plan.root.is_leaf

    def test_disconnected_query_rejected(self, estimator, er_graph):
        from repro.query import QueryGraph

        with pytest.raises(PlanError):
            Optimiser(estimator, 4, er_graph.num_edges).run(
                QueryGraph(4, [(0, 1), (2, 3)]))

    def test_unknown_strategy_rejected(self, estimator):
        with pytest.raises(ValueError):
            Optimiser(estimator, 4, 100, cost_strategy="bogus")

    def test_pull_cost_scales_with_machines(self, estimator, er_graph):
        # more machines make pulling k·|E| more expensive; cost must not
        # decrease with k for the same query
        q = get_query("q1")
        cost_small = Optimiser(estimator, 2, er_graph.num_edges).run(q)
        cost_large = Optimiser(estimator, 64, er_graph.num_edges).run(q)
        assert cost_large.estimated_cost >= cost_small.estimated_cost

    def test_compute_strategies_ignore_communication(self, estimator,
                                                     er_graph):
        q = get_query("q7")
        mat = Optimiser(estimator, 10, er_graph.num_edges,
                        cost_strategy="compute-mat")
        cost = mat.run(q).estimated_cost
        # same DP with a huge cluster must give the identical cost since
        # communication is ignored
        mat2 = Optimiser(estimator, 10_000, er_graph.num_edges,
                         cost_strategy="compute-mat")
        assert cost == mat2.run(q).estimated_cost

    @given(name=st.sampled_from(sorted(set(QUERIES) - {"q5", "q8"})),
           data=st.data())
    def test_relabelled_query_gets_identical_cost(self, name, data,
                                                  ba_graph):
        # estimates are per isomorphism class, so which of several
        # automorphic splits the DP prefers is no longer sampling noise:
        # renumbering the query's vertices cannot move the plan's cost
        q = get_query(name)
        perm = data.draw(st.permutations(range(q.num_vertices)))

        def cost(query):
            est = SamplingEstimator(ba_graph, trials=50)
            return Optimiser(est, 4, ba_graph.num_edges,
                             avg_degree=ba_graph.avg_degree
                             ).run(query).estimated_cost

        assert cost(q.relabel(dict(enumerate(perm)))) == cost(q)


class TestEqualCostPlans:
    """Estimates are per isomorphism class, so every automorphic image of
    the chosen plan costs exactly the same.  The DP must pick, among
    them, the plan that filters on the symmetry-breaking order earliest
    and then the one that pulls adjacency from the fewest remote sources
    — checked here against the images themselves, with the pulled
    sources read off the translated dataflow rather than the optimiser's
    own bookkeeping."""

    @staticmethod
    def _image(node, perm):
        sub = sq(*((perm[u], perm[v]) for u, v in node.sub.edges))
        if node.is_leaf:
            return PlanNode(sub)
        return PlanNode(sub, TestEqualCostPlans._image(node.left, perm),
                        TestEqualCostPlans._image(node.right, perm))

    @staticmethod
    def _pruned(root, order):
        return sum(1 for node in root.nodes() for u, v in order
                   if u in node.sub.vertices and v in node.sub.vertices)

    @staticmethod
    def _pulled(query, root):
        """Query vertices whose adjacency the dataflow reads on a machine
        that does not own them (everything but the scan's pivot; after a
        PUSH-JOIN, everything)."""
        from repro.core.dataflow import ScanSpec

        pulled = set()
        for seg in translate(ExecutionPlan(query, root)).all_segments():
            scan = isinstance(seg.source, ScanSpec)
            schema = seg.source.schema if scan else seg.source.out_schema
            local = {schema[0]} if scan else set()
            for spec in seg.extends:
                pulled |= {schema[p] for p in spec.ext} - local
                schema = spec.out_schema
        return pulled

    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q7", "q8"])
    def test_chosen_plan_beats_its_automorphic_images(self, name, ba_graph):
        from repro.query import automorphisms, symmetry_break

        query = get_query(name)
        opt = Optimiser(SamplingEstimator(ba_graph, trials=50), 4,
                        ba_graph.num_edges, avg_degree=ba_graph.avg_degree)
        chosen = opt.run(query).root
        order = symmetry_break(query)
        rank = (-self._pruned(chosen, order),
                len(self._pulled(query, chosen)))
        images = [self._image(chosen, perm) for perm in automorphisms(query)]
        assert len(images) > 1
        for image in images:
            assert rank <= (-self._pruned(image, order),
                            len(self._pulled(query, image)))


class TestPlanGoldens:
    """Plan structure for q1–q8 on GO / LJ / EU at k=10 is pinned; see
    :mod:`repro.testing.goldens` for when and how to regenerate."""

    @pytest.fixture(scope="class")
    def goldens(self):
        path = os.path.join(os.path.dirname(__file__), "golden", "plans.json")
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    @pytest.fixture(scope="class")
    def current(self):
        return capture_plan_goldens()

    @pytest.mark.parametrize("data", PLAN_GOLDEN_DATASETS)
    def test_plan_structure_matches_golden(self, goldens, current, data):
        moved = {q: (goldens[data].get(q), plan)
                 for q, plan in current[data].items()
                 if goldens[data].get(q) != plan}
        assert not moved and set(goldens[data]) == set(current[data]), (
            f"{data}: plans moved (golden, current): {moved} — if the "
            f"estimator changed on purpose, regenerate tests/golden/"
            f"plans.json and list each moved plan in EXPERIMENTS.md")


class TestPluginPlans:
    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q4", "q6", "q7"])
    def test_wco_plan_is_left_deep_extensions(self, name):
        q = get_query(name)
        plan = wco_plan(q)
        assert plan.root.is_left_deep()
        # every join is a complete star join (vertex extension)
        from repro.query import is_complete_star_join

        for node in plan.joins():
            assert node.operands == (node.left, node.right)
            assert is_complete_star_join(node.left.sub, node.right.sub)

    def test_wco_order_is_connected(self):
        q = get_query("q5")
        order = greedy_order(q)
        seen = {order[0]}
        for v in order[1:]:
            assert q.neighbours(v) & seen
            seen.add(v)

    def test_greedy_order_is_the_parent_commits(self):
        """literal table captured before ``start`` was added"""
        want = {"triangle": [0, 1, 2], "q1": [0, 1, 2, 3],
                "q2": [0, 2, 1, 3], "q3": [0, 1, 2, 3],
                "q4": [1, 4, 0, 2, 3], "q5": [2, 3, 0, 1, 4, 5],
                "q6": [1, 2, 3, 0, 4], "q7": [0, 1, 2, 3, 4],
                "q8": [0, 1, 2, 3, 4, 5]}
        assert {name: greedy_order(q) for name, q in QUERIES.items()} == want

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_greedy_order_from_a_start_edge(self, name):
        q = get_query(name)
        for a, b in sorted(q.edges):
            for start in ((a, b), (b, a)):
                order = greedy_order(q, start=start)
                assert tuple(order[:2]) == start
                assert sorted(order) == list(q.vertices())
                for i in range(2, len(order)):
                    # most placed neighbours, then degree, then lowest id
                    def rank(v):
                        return (len(q.neighbours(v) & set(order[:i])),
                                q.degree(v), -v)
                    assert rank(order[i]) == max(
                        rank(v) for v in q.vertices() if v not in order[:i])
                    assert rank(order[i])[0] > 0

    def test_dfs_order_starts_at_zero(self):
        assert dfs_order(get_query("q4"))[0] == 0

    def test_benu_plan_valid(self):
        plan = benu_plan(get_query("q2"))
        assert plan.root.is_left_deep()

    def test_vertex_order_plan_rejects_bad_order(self):
        q = get_query("q1")
        with pytest.raises(PlanError):
            vertex_order_plan(q, [0, 2, 1, 3])  # 0-2 not an edge

    def test_vertex_order_plan_rejects_non_permutation(self):
        with pytest.raises(PlanError):
            vertex_order_plan(get_query("q1"), [0, 1, 2])

    def test_rads_plan_roots_matched(self):
        q = get_query("q1")
        plan = rads_plan(q)
        matched: set[int] = set()
        for leaf in plan.root.leaves():
            star = leaf.sub
            if matched:
                assert star.star_root() in matched or (
                    star.num_vertices == 2
                    and star.vertices & matched)
            matched |= star.vertices

    @pytest.mark.parametrize("hops", range(1, 8))
    def test_bidirectional_path_plan_joins_in_the_middle(self, hops):
        """two left-deep arms of single edges meeting at ⌊L/2⌋; Equation 3
        pulls every arm step and pushes the middle join once both arms
        have two edges (L ≥ 4)"""
        from repro.query import QueryGraph

        q = QueryGraph(hops + 1, [(i, i + 1) for i in range(hops)])
        plan = bidirectional_path_plan(q)
        assert all(leaf.sub.num_edges == 1 for leaf in plan.root.leaves())
        if hops >= 2:
            fwd, bwd = plan.root.left, plan.root.right
            assert fwd.is_left_deep() and bwd.is_left_deep()
            assert fwd.sub.vertices == set(range(hops // 2 + 1))
            assert bwd.sub.vertices == set(range(hops // 2, hops + 1))
        assert plan.num_push_joins() == (hops >= 4)

    def test_bidirectional_path_plan_rejects_non_paths(self):
        from repro.query import QueryGraph

        # a cycle; a path whose vertices are not numbered 0-1-…-L
        for q in (get_query("q1"), QueryGraph(3, [(0, 2), (2, 1)])):
            with pytest.raises(PlanError):
                bidirectional_path_plan(q)

    def test_starjoin_plan_covers_query(self):
        q = get_query("q4")
        plan = starjoin_plan(q)
        assert plan.root.sub == full_subquery(q)

    def test_seed_plan_valid(self, er_graph):
        plan = seed_plan(get_query("q1"), ExactEstimator(er_graph))
        assert plan.root.sub == full_subquery(get_query("q1"))

    def test_sequential_hybrid_plans(self, er_graph):
        est = ExactEstimator(er_graph)
        q = get_query("q7")
        eh = emptyheaded_plan(q, est)
        gf = graphflow_plan(q, est, er_graph.avg_degree)
        assert eh.root.sub == full_subquery(q)
        assert gf.root.sub == full_subquery(q)

    def test_q7_best_plan_joins_paths(self, er_graph):
        """Exp-9: the 5-cycle's plan should join a 3-path with a 2-path
        (in the compute-only/sequential setting) rather than extend a
        4-path one vertex at a time."""
        est = ExactEstimator(er_graph)
        plan = emptyheaded_plan(get_query("q7"), est)
        root_join = list(plan.joins())[-1]
        sizes = sorted([root_join.left.sub.num_edges,
                        root_join.right.sub.num_edges])
        assert sizes == [2, 3]


# -- a built plan runs as built (Remark 3.2) ------------------------------------

_BUILDERS = {
    "wco": lambda q, g: wco_plan(q),
    "benu": lambda q, g: benu_plan(q),
    "vertex-order": lambda q, g: vertex_order_plan(
        q, greedy_order(q, start=max(q.edges))),
    "starjoin": lambda q, g: starjoin_plan(q),
    "rads": lambda q, g: rads_plan(q),
    "seed": lambda q, g: seed_plan(q, SamplingEstimator(g, trials=60, seed=7)),
    "emptyheaded": lambda q, g: emptyheaded_plan(
        q, SamplingEstimator(g, trials=60, seed=7)),
    "graphflow": lambda q, g: graphflow_plan(
        q, SamplingEstimator(g, trials=60, seed=7), g.avg_degree),
    "bidirectional-path": lambda q, g: bidirectional_path_plan(q),
}
_PAPER_QUERIES = ("q1", "q2", "q3", "q4", "q5", "q6", "q7", "q8")
_BUILT = [(b, name) for b in _BUILDERS for name in _PAPER_QUERIES
          if b != "bidirectional-path" or name == "q6"]


def _derived(plan):
    """Which of the plan's nodes carry a computed Equation 3 view."""
    return [n for n in plan.root.nodes() if "_equation3" in vars(n)]


class TestBuiltPlans:
    """Every builder of ``plans.py`` returns the object every engine takes:
    no configure step between Algorithm 1 (or a plug-in builder) and
    Algorithm 2."""

    @pytest.fixture(scope="class")
    def graph(self):
        return gen.erdos_renyi(20, 0.35, seed=6)

    @pytest.fixture(scope="class")
    def reference(self, graph):
        return {name: (count_matches(graph, get_query(name)),
                       count_matches(graph, get_query(name), frozenset()))
                for name in _PAPER_QUERIES}

    @pytest.mark.parametrize("builder,name", _BUILT)
    def test_runs_as_built_on_every_engine_that_takes_it(
            self, builder, name, graph, reference):
        q = get_query(name)
        plan = _BUILDERS[builder](q, graph)
        cluster = Cluster(graph, num_machines=3, workers_per_machine=2,
                          seed=1)
        result = HugeEngine(cluster).run(plan=plan)
        assert result.plan is plan
        assert result.count == reference[name][0]
        # the originals read the same object, children as built
        if builder == "seed":
            assert SeedEngine(cluster).run(q, plan=plan).count == \
                reference[name][0]
        if builder == "rads":
            assert RadsEngine(cluster).run(q, plan=plan).count == \
                reference[name][0]
        # the harness's -nosym variant: same tree, no conditions, nothing
        # carried over but the fields
        bare = replace(plan, conditions=frozenset())
        assert bare.root is plan.root and bare.conditions == frozenset()
        assert set(vars(bare)) == set(vars(plan)) == {
            "query", "root", "conditions", "name", "estimated_cost"}
        assert bare.structure() == plan.structure()
        assert HugeEngine(cluster).run(plan=bare).count == reference[name][1]

    @pytest.mark.parametrize("builder,name", _BUILT)
    def test_pickles_with_the_view_derived_or_not(self, builder, name,
                                                  graph):
        plan = _BUILDERS[builder](get_query(name), graph)
        assert not _derived(plan)          # building derives nothing
        cold = pickle.dumps(plan)
        want = plan.structure()
        assert len(_derived(plan)) == len(list(plan.joins()))
        for blob in (cold, pickle.dumps(plan)):
            clone = pickle.loads(blob)
            assert clone.root == plan.root and clone.structure() == want
            assert clone.conditions == plan.conditions

    @pytest.mark.parametrize("builder,name", _BUILT)
    def test_translates_identically_after_a_pickle_round_trip(
            self, builder, name, graph):
        """A pickled plan (plan cache, process workers) must translate to
        the same specs as the original: a share group of the two would
        otherwise split at the first extend whose conditions differ in
        order."""
        plan = _BUILDERS[builder](get_query(name), graph)
        clone = pickle.loads(pickle.dumps(plan))
        assert translate(clone) == translate(plan)
        assert plan_signature(translate(clone)) == \
            plan_signature(translate(plan))

    @pytest.mark.parametrize("strategy", ["hybrid", "push-only",
                                          "compute-mat", "compute-icost"])
    def test_dp_evaluates_equation3_once_per_split(self, strategy, graph,
                                                   monkeypatch):
        from collections import Counter

        from repro.core.plan import optimiser

        calls = Counter()

        def counted(left, right):
            calls[left, right] += 1
            return configure_join(left, right)

        monkeypatch.setattr(optimiser, "configure_join", counted)
        for name in ("q4", "q5", "q8"):
            calls.clear()
            Optimiser(SamplingEstimator(graph, trials=60, seed=7), 4,
                      graph.num_edges, cost_strategy=strategy,
                      avg_degree=graph.avg_degree).run(get_query(name))
            assert calls and set(calls.values()) == {1}
