"""Tests for Algorithm 2 translation and the §5.2 rewrites."""

import pytest
from hypothesis import given, strategies as st

from repro.cluster import PlanError
from repro.core.dataflow import ExtendSpec, JoinSpec, ScanSpec, Segment
from repro.core.plan import (Optimiser, dfs_order, greedy_order, order_chain,
                             rads_plan, seed_plan, translate,
                             vertex_order_plan, wco_plan)
from repro.query import QUERIES, ExactEstimator, get_query, symmetry_break
from repro.testing.strategies import patterns


def translate_query(name, plan_builder=wco_plan, **kwargs):
    q = get_query(name)
    return translate(plan_builder(q, **kwargs))


class TestSpecs:
    def test_scan_spec_validation(self):
        with pytest.raises(ValueError):
            ScanSpec(schema=(0, 1), order="sideways")

    def test_extend_spec_needs_mode(self):
        with pytest.raises(ValueError):
            ExtendSpec(ext=(0,), out_schema=(0, 1))  # neither new nor verify
        with pytest.raises(ValueError):
            ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1,
                       verify_pos=0)  # both

    def test_extend_spec_needs_ext(self):
        with pytest.raises(ValueError):
            ExtendSpec(ext=(), out_schema=(0, 1), new_vertex=1)

    def test_join_spec_key_validation(self):
        with pytest.raises(ValueError):
            JoinSpec(left_key=(), right_key=(), right_carry=(),
                     out_schema=(0,))
        with pytest.raises(ValueError):
            JoinSpec(left_key=(0,), right_key=(0, 1), right_carry=(),
                     out_schema=(0,))

    def test_segment_out_schema_defaults(self):
        seg = Segment(source=ScanSpec(schema=(0, 1)))
        assert seg.out_schema == (0, 1)


class TestWcoTranslation:
    def test_square_is_scan_plus_two_extends(self):
        seg = translate_query("q1")
        assert isinstance(seg.source, ScanSpec)
        assert len(seg.extends) == 2
        assert seg.left is None and seg.right is None

    def test_clique_translation_schema_covers_query(self):
        seg = translate_query("q3")
        assert set(seg.out_schema) == {0, 1, 2, 3}

    def test_final_extend_of_square_intersects_two(self):
        seg = translate_query("q1")
        last = seg.extends[-1]
        assert len(last.ext) == 2
        assert last.new_vertex is not None

    def test_conditions_attached_somewhere(self):
        seg = translate_query("q3")  # clique: 6 conditions
        n_scan = 1 if seg.source.order else 0
        n_ext = sum(len(e.candidate_lt) + len(e.candidate_gt)
                    for e in seg.extends)
        assert n_scan + n_ext == 6

    def test_operator_count(self):
        seg = translate_query("q1")
        assert seg.num_operators == 3
        assert len(seg.out_schema) == 4


class TestStarScanRewrite:
    def test_star_query_becomes_edge_scan_plus_extends(self):
        """§5.2: SCAN(star with L leaves) → edge scan + (|L|-1) extends"""
        from repro.query import QueryGraph
        from repro.query import ExactEstimator
        from repro.graph import generators as gen

        g = gen.erdos_renyi(20, 0.3, seed=1)
        star = QueryGraph(4, [(0, 1), (0, 2), (0, 3)])
        plan = Optimiser(ExactEstimator(g), 4, g.num_edges).run(star)
        seg = translate(plan)
        assert isinstance(seg.source, ScanSpec)
        assert len(seg.extends) == 2
        # all extends grow from the root's position
        for e in seg.extends:
            assert e.ext == (seg.out_schema.index(0),)


class TestPullingHashJoinRewrite:
    def test_rads_plan_translates_without_push_join(self):
        """RADS' star-expansions all have matched roots → pure extends"""
        seg = translate_query("q1", rads_plan)
        assert isinstance(seg.source, ScanSpec)
        assert seg.left is None

    def test_verify_extend_present_for_closing_edge(self):
        # the square via RADS ends with a verification of the closing edge
        seg = translate_query("q1", rads_plan)
        assert any(e.is_verify for e in seg.extends)

    def test_verify_extend_keeps_schema(self):
        seg = translate_query("q1", rads_plan)
        v = next(e for e in seg.extends if e.is_verify)
        assert v.out_schema == seg.extends[
            seg.extends.index(v) - 1].out_schema if seg.extends.index(v) else True


class TestPushJoinTranslation:
    def test_seed_plan_on_path_query_uses_push_join(self, er_graph):
        est = ExactEstimator(er_graph)
        seg = translate_query("q6", seed_plan, estimator=est)
        # the 5-path splits into two wedges joined on pushing
        assert isinstance(seg.source, JoinSpec)
        assert seg.left is not None and seg.right is not None

    def test_join_keys_align(self, er_graph):
        est = ExactEstimator(er_graph)
        seg = translate_query("q6", seed_plan, estimator=est)
        spec = seg.source
        lsch, rsch = seg.left.out_schema, seg.right.out_schema
        left_key_verts = [lsch[p] for p in spec.left_key]
        right_key_verts = [rsch[p] for p in spec.right_key]
        assert left_key_verts == right_key_verts

    def test_out_schema_covers_query(self, er_graph):
        est = ExactEstimator(er_graph)
        seg = translate_query("q6", seed_plan, estimator=est)
        assert set(seg.out_schema) == {0, 1, 2, 3, 4}

    def test_cross_distinct_pairs_disjoint_sides(self, er_graph):
        est = ExactEstimator(er_graph)
        seg = translate_query("q6", seed_plan, estimator=est)
        spec = seg.source
        for (i, j) in spec.cross_distinct:
            assert i != j
            assert spec.out_schema[i] != spec.out_schema[j]


# -- the vertex-order chain ----------------------------------------------------


@st.composite
def connected_orders(draw, query):
    """A matching order of ``query``: every vertex after the first has an
    earlier pattern neighbour."""
    order = [draw(st.sampled_from(sorted(query.vertices())))]
    while len(order) < query.num_vertices:
        frontier = sorted(v for v in query.vertices() if v not in order
                          and query.neighbours(v) & set(order))
        order.append(draw(st.sampled_from(frontier)))
    return order


def check_order_chain(q, order):
    conditions = symmetry_break(q)
    scan, extends = order_chain(q, order, conditions)
    # column i matches order[i]
    assert scan.schema == tuple(order[:2])
    assert [e.new_vertex for e in extends] == list(order[2:])
    assert all(e.out_schema == tuple(order[:i + 3])
               for i, e in enumerate(extends))
    assert scan.labels == (q.label(order[0]), q.label(order[1]))
    # ext: every earlier pattern neighbour, ascending column position
    for i, e in enumerate(extends, 2):
        assert list(e.ext) == [p for p in range(i)
                               if order[p] in q.neighbours(order[i])]
        assert e.new_label == q.label(order[i]) and not e.is_verify
    # every condition exactly once, where its later endpoint is placed
    a, b = scan.schema
    applied = {"lt": [(a, b)], "gt": [(b, a)], None: []}[scan.order]
    for i, e in enumerate(extends, 2):
        assert all(p < i for p in e.candidate_lt + e.candidate_gt)
        applied += [(order[i], order[p]) for p in e.candidate_lt]
        applied += [(order[p], order[i]) for p in e.candidate_gt]
    assert sorted(applied) == sorted(conditions)
    # operator by operator what Algorithm 2 makes of the same order (its
    # scan may come out as (order[1], order[0]), so compare by vertex)
    seg = translate(vertex_order_plan(q, list(order)))
    assert set(seg.source.schema) == set(scan.schema)
    assert len(seg.extends) == len(extends)
    for ours, theirs in zip(extends, seg.extends):
        assert ours.new_vertex == theirs.new_vertex
        for field in ("ext", "candidate_lt", "candidate_gt"):
            assert ({ours.out_schema[p] for p in getattr(ours, field)}
                    == {theirs.out_schema[p] for p in getattr(theirs, field)})
        if seg.source.schema == scan.schema:
            assert ours.out_schema == theirs.out_schema


class TestOrderChain:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_paper_queries_along_their_baseline_orders(self, name):
        q = get_query(name)
        check_order_chain(q, greedy_order(q))
        check_order_chain(q, dfs_order(q))
        for edge in sorted(q.edges):
            check_order_chain(q, greedy_order(q, start=edge))
            check_order_chain(q, greedy_order(q, start=edge[::-1]))

    @given(data=st.data(), q=patterns(min_vertices=2, max_vertices=5))
    def test_any_connected_order(self, data, q):
        check_order_chain(q, data.draw(connected_orders(q)))

    def test_rejects_orders_that_are_not_matching_orders(self):
        q = get_query("q6")         # the 5-path 0-1-2-3-4
        for bad in ([0, 1, 2, 3], [0, 1, 2, 3, 3], [0, 2, 1, 3, 4],
                    [0, 1, 3, 2, 4], [0]):
            with pytest.raises(PlanError):
                order_chain(q, bad, symmetry_break(q))
