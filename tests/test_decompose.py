"""Tests for sub-query decomposition (repro.query.decompose)."""

import pytest

from repro.apps.mining import connected_patterns
from repro.query import (QUERIES, QueryGraph, SubQuery, SubQueryMasks,
                         complete_star_root, full_subquery, get_query,
                         mask_splits)


def sq(*edges):
    return SubQuery(frozenset(tuple(sorted(e)) for e in edges))


def connected_subs(q):
    masks = SubQueryMasks(q)
    return [masks.subquery(m) for m in masks.by_size()]


def splits(q, sub):
    """``sub``'s splits as sub-query pairs, in :func:`mask_splits` order."""
    masks = SubQueryMasks(q)
    mask = sum(1 << i for i, e in enumerate(masks.edges) if e in sub.edges)
    return [(masks.subquery(l), masks.subquery(r))
            for l, r in mask_splits(mask, masks.connected)]


def is_complete_star_join(left, right):
    return complete_star_root(left, right) is not None


def is_connected(sub):
    """Reference: a search over the sub-query's edges."""
    seen = set(min(sub.edges))
    grown = True
    while grown:
        grown = False
        for u, v in sub.edges:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                grown = True
    return seen == sub.vertices


_PATTERNS = [*QUERIES.values(), *(p for k in (4, 5)
                                  for p in connected_patterns(k))]


class TestSubQuery:
    def test_vertices(self):
        s = sq((0, 1), (1, 2))
        assert s.vertices == frozenset({0, 1, 2})

    def test_degree_and_neighbours(self):
        s = sq((0, 1), (1, 2), (1, 3))
        assert s.degree(1) == 3
        assert s.neighbours(1) == frozenset({0, 2, 3})

    def test_connectivity(self):
        path = SubQueryMasks(QueryGraph(3, [(0, 1), (1, 2)]))
        assert path.connected[path.full]
        pair = SubQueryMasks(QueryGraph(4, [(0, 1), (2, 3)]))
        assert not pair.connected[pair.full]

    def test_single_edge_is_star(self):
        s = sq((3, 7))
        assert s.is_star()
        assert s.star_root() == 3  # smaller endpoint by convention
        assert s.star_leaves() == frozenset({7})

    def test_proper_star(self):
        s = sq((1, 0), (1, 2), (1, 5))
        assert s.is_star()
        assert s.star_root() == 1
        assert s.star_leaves() == frozenset({0, 2, 5})

    def test_path_not_star(self):
        assert not sq((0, 1), (1, 2), (2, 3)).is_star()

    def test_triangle_not_star(self):
        assert not sq((0, 1), (1, 2), (0, 2)).is_star()

    def test_star_root_raises_for_non_star(self):
        with pytest.raises(ValueError):
            sq((0, 1), (1, 2), (0, 2)).star_root()

    def test_union(self):
        s = sq((0, 1)).union(sq((1, 2)))
        assert s == sq((0, 1), (1, 2))

    def test_to_query_graph_relabels(self):
        s = sq((2, 5), (5, 9))
        pattern, schema = s.to_query_graph()
        assert schema == [2, 5, 9]
        assert pattern.has_edge(0, 1) and pattern.has_edge(1, 2)
        assert not pattern.has_edge(0, 2)


class TestEnumeration:
    def test_star_subqueries_of_square(self):
        stars = [s for s in connected_subs(get_query("q1")) if s.is_star()]
        # 4 edges + 4 wedges (one per centre)
        assert len(stars) == 8

    def test_star_subqueries_of_clique(self):
        stars = [s for s in connected_subs(get_query("q3")) if s.is_star()]
        # per vertex: C(3,1)+C(3,2)+C(3,3) = 7 → 28 total, but single
        # edges are shared between their two endpoints: 6 dups
        assert len(stars) == 22

    def test_connected_subqueries_of_triangle(self):
        subs = connected_subs(get_query("triangle"))
        # 3 edges + 3 wedges + 1 triangle
        assert len(subs) == 7
        assert all(is_connected(s) for s in subs)

    def test_connected_subqueries_sorted_by_size(self):
        sizes = [s.num_edges for s in connected_subs(get_query("q2"))]
        assert sizes == sorted(sizes)

    def test_full_subquery(self):
        q = get_query("q1")
        assert full_subquery(q).edges == q.edges

    def test_connected_subqueries_include_full(self):
        q = get_query("q4")
        masks = SubQueryMasks(q)
        assert masks.by_size()[-1] == masks.full
        assert masks.subquery(masks.full) == full_subquery(q)


class TestMaskTables:
    """The bit tables agree with the sub-query they index, mask by mask,
    on q1–q8 and every connected pattern on four and five vertices."""

    @pytest.mark.parametrize("q", _PATTERNS, ids=lambda q: q.name)
    def test_tables_match_the_edge_sets(self, q):
        masks = SubQueryMasks(q)
        assert masks.edges == sorted(q.edges)
        for m in range(1, masks.full + 1):
            sub = masks.subquery(m)
            assert sub.num_edges == m.bit_count()
            assert masks.vmask[m] == sub.vmask == sum(
                1 << v for v in sub.vertices)
            assert masks.connected[m] == is_connected(sub)
            assert masks.star[m] == sub.star_mask
            assert bool(masks.star[m]) == (
                is_connected(sub) and sub.to_query_graph()[0].is_star())

    @pytest.mark.parametrize("q", _PATTERNS, ids=lambda q: q.name)
    def test_splits_in_the_edge_list_order(self, q):
        """``mask_splits`` yields what the edge-list enumeration did, in
        its order: lowest edge fixed on the left, the left's other edges
        counting up in binary over the rest, larger side first."""
        masks = SubQueryMasks(q)
        for m in masks.by_size():
            edges = [e for i, e in enumerate(masks.edges) if m >> i & 1]
            want = []
            for t in range(1 << (len(edges) - 1)):
                left = {edges[0]} | {e for i, e in enumerate(edges[1:])
                                     if t >> i & 1}
                right = set(edges) - left
                if not right:
                    continue
                l, r = sq(*left), sq(*right)
                if is_connected(l) and is_connected(r):
                    want.append((l, r) if len(left) >= len(right) else (r, l))
            assert [(masks.subquery(l), masks.subquery(r))
                    for l, r in mask_splits(m, masks.connected)] == want


class TestSplits:
    def test_square_splits(self):
        q = get_query("q1")
        got = splits(q, full_subquery(q))
        # the square decomposes into edge+path3 (4 ways) and wedge+wedge
        # (2 ways) = 6 connected splits
        assert len(got) == 6
        for left, right in got:
            assert left.edges | right.edges == set(get_query("q1").edges)
            assert not (left.edges & right.edges)
            assert is_connected(left) and is_connected(right)
            assert left.num_edges >= right.num_edges

    def test_single_edge_has_no_splits(self):
        assert splits(QueryGraph(2, [(0, 1)]), sq((0, 1))) == []

    def test_no_mirrored_duplicates(self):
        seen = set()
        q = get_query("q2")
        for left, right in splits(q, full_subquery(q)):
            key = frozenset((left.edges, right.edges))
            assert key not in seen
            seen.add(key)


class TestCompleteStarJoin:
    def test_vertex_extension(self):
        # extending a wedge {0-1,1-2} by vertex 3 connected to 0 and 2
        left = sq((0, 1), (1, 2))
        right = sq((0, 3), (2, 3))
        assert is_complete_star_join(left, right)
        assert complete_star_root(left, right) == 3

    def test_single_edge_extension(self):
        left = sq((0, 1))
        right = sq((1, 2))
        assert is_complete_star_join(left, right)
        assert complete_star_root(left, right) == 2  # the new vertex

    def test_not_complete_when_leaf_new(self):
        left = sq((0, 1))
        right = sq((2, 3))  # disconnected from left entirely
        assert not is_complete_star_join(left, right)

    def test_not_complete_when_some_leaves_new(self):
        left = sq((0, 1))
        # star rooted at 0 with leaves {1 (matched), 2 (new)}
        right = sq((0, 2))
        # leaves of (0;2) are {2} ⊄ {0,1}; but root choice 2 gives leaf 0 ✓
        assert is_complete_star_join(left, right)
        assert complete_star_root(left, right) == 2

    def test_non_star_right(self):
        left = sq((0, 1))
        right = sq((1, 2), (2, 3), (3, 1))
        assert not is_complete_star_join(left, right)

    def test_fully_covered_star(self):
        # verification case: root and all leaves already matched
        left = sq((0, 1), (1, 2))
        right = sq((0, 2))
        root = complete_star_root(left, right)
        assert root in (0, 2)
