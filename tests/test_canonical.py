"""Canonical-form tests for ``QueryGraph`` (the plan-cache key).

The canonical key must be a complete isomorphism invariant on the
pattern sizes the system plans: isomorphic patterns (any relabelling,
labels permuted along) share the key; non-isomorphic patterns never
collide; and the canonical form itself is a relabelling of the input
(same counts, round-trips through its own canonicalisation).
"""

import itertools

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.query import QUERIES, QueryGraph, get_query
from repro.testing.strategies import labelled_patterns, patterns


def brute_isomorphic(a: QueryGraph, b: QueryGraph) -> bool:
    """Ground truth by permutation search (tiny patterns only)."""
    if (a.num_vertices != b.num_vertices
            or len(a.edges) != len(b.edges)):
        return False
    ea = {tuple(sorted(e)) for e in a.edges}
    # perm maps b's vertex v onto a's vertex perm[v], labels included
    for perm in itertools.permutations(range(b.num_vertices)):
        eb = {tuple(sorted((perm[u], perm[v]))) for u, v in b.edges}
        if ea == eb and all(a.label(perm[v]) == b.label(v)
                            for v in range(b.num_vertices)):
            return True
    return False


def random_relabelling(q: QueryGraph, seed: int) -> QueryGraph:
    import random

    perm = list(range(q.num_vertices))
    random.Random(seed).shuffle(perm)
    return q.relabel(dict(enumerate(perm)))


class TestCanonicalForm:
    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_round_trip(self, name):
        """Canonicalising a canonical form is the identity mapping."""
        q = get_query(name)
        canon, mapping = q.canonical_form()
        assert sorted(mapping) == list(range(q.num_vertices))
        canon2, mapping2 = canon.canonical_form()
        assert mapping2 == tuple(range(canon.num_vertices))
        assert canon2.canonical_key() == canon.canonical_key()

    @pytest.mark.parametrize("name", sorted(QUERIES))
    def test_canonical_form_is_isomorphic(self, name):
        q = get_query(name)
        canon, mapping = q.canonical_form()
        # mapping really is the isomorphism q -> canon
        assert {tuple(sorted((mapping[u], mapping[v])))
                for u, v in q.edges} == \
            {tuple(sorted(e)) for e in canon.edges}

    @pytest.mark.parametrize("name", sorted(QUERIES))
    @pytest.mark.parametrize("seed", range(5))
    def test_benchmark_queries_key_stable(self, name, seed):
        """q1..q8: every relabelling lands on the same key."""
        q = get_query(name)
        assert random_relabelling(q, seed).canonical_key() == \
            q.canonical_key()

    def test_distinct_benchmark_queries_distinct_keys(self):
        keys = {name: get_query(name).canonical_key()
                for name in sorted(QUERIES)}
        assert len(set(keys.values())) == len(keys)


class TestCanonicalKeyProperties:
    @given(q=patterns(), seed=st.integers(min_value=0, max_value=999))
    def test_isomorphic_share_key(self, q, seed):
        assert random_relabelling(q, seed).canonical_key() == \
            q.canonical_key()

    @given(q=labelled_patterns(), seed=st.integers(min_value=0,
                                                   max_value=999))
    def test_labelled_isomorphic_share_key(self, q, seed):
        assert random_relabelling(q, seed).canonical_key() == \
            q.canonical_key()

    @given(a=patterns(max_vertices=4), b=patterns(max_vertices=4))
    def test_key_equality_iff_isomorphic(self, a, b):
        """Completeness: equal keys <=> actually isomorphic."""
        assert (a.canonical_key() == b.canonical_key()) == \
            brute_isomorphic(a, b)

    @given(a=labelled_patterns(), b=labelled_patterns())
    # not isomorphic: the labelled vertex has degree 2 in a, 3 in b (an
    # oracle comparing labels the wrong way round called them isomorphic)
    @example(a=QueryGraph(4, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)],
                          labels=(None, None, None, 0)),
             b=QueryGraph(4, [(0, 1), (0, 3), (1, 2), (1, 3), (2, 3)],
                          labels=(None, 0, None, None)))
    def test_labelled_key_equality_iff_isomorphic(self, a, b):
        assert (a.canonical_key() == b.canonical_key()) == \
            brute_isomorphic(a, b)
