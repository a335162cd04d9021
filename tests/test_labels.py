"""Tests for labelled-graph support (paper §2 footnote 3)."""

import numpy as np
import pytest

from repro.baselines import BenuEngine, count_matches
from repro.cluster import Cluster
from repro.core import EngineConfig, HugeEngine
from repro.graph import generators as gen
from repro.query import QueryGraph, automorphism_count, symmetry_break


@pytest.fixture(scope="module")
def lgraph():
    return gen.erdos_renyi(40, 0.25, seed=9)


@pytest.fixture(scope="module")
def vlabels(lgraph):
    rng = np.random.default_rng(4)
    return rng.integers(0, 3, lgraph.num_vertices)


@pytest.fixture()
def lcluster(lgraph, vlabels):
    return Cluster(lgraph, num_machines=4, labels=vlabels, seed=1)


class TestLabelledPatterns:
    def test_labels_default_to_wildcards(self):
        q = QueryGraph(3, [(0, 1), (1, 2)])
        assert q.labels == (None, None, None)
        assert not q.is_labelled

    def test_labels_length_checked(self):
        with pytest.raises(ValueError):
            QueryGraph(3, [(0, 1), (1, 2)], labels=[0])

    def test_labels_in_equality(self):
        a = QueryGraph(2, [(0, 1)], labels=[0, 1])
        b = QueryGraph(2, [(0, 1)], labels=[1, 0])
        c = QueryGraph(2, [(0, 1)])
        assert a != b and a != c
        assert hash(a) != hash(c) or a != c

    def test_relabel_carries_labels(self):
        q = QueryGraph(3, [(0, 1), (1, 2)], labels=[5, None, 7])
        r = q.relabel({0: 2, 1: 1, 2: 0})
        assert r.labels == (7, None, 5)

    def test_labels_break_symmetry(self):
        # an unlabelled edge has Aut order 2; distinct labels kill it
        plain = QueryGraph(2, [(0, 1)])
        tagged = QueryGraph(2, [(0, 1)], labels=[0, 1])
        assert automorphism_count(plain) == 2
        assert automorphism_count(tagged) == 1
        assert symmetry_break(tagged) == frozenset()

    def test_same_labels_keep_symmetry(self):
        tagged = QueryGraph(2, [(0, 1)], labels=[3, 3])
        assert automorphism_count(tagged) == 2


class TestLabelledReference:
    def test_labelled_needs_label_array(self, lgraph):
        q = QueryGraph(2, [(0, 1)], labels=[0, 1])
        with pytest.raises(ValueError):
            count_matches(lgraph, q)

    def test_label_filtering(self, lgraph, vlabels):
        q = QueryGraph(2, [(0, 1)], labels=[0, 1])
        count = count_matches(lgraph, q, labels=vlabels)
        expect = sum(1 for u, v in lgraph.edges()
                     if {vlabels[u], vlabels[v]} == {0, 1})
        assert count == expect

    def test_wildcards_match_everything(self, lgraph, vlabels):
        q = QueryGraph(2, [(0, 1)])
        assert count_matches(lgraph, q, labels=vlabels) == lgraph.num_edges


class TestLabelledEngine:
    @pytest.mark.parametrize("labels", [
        (0, 1, 2), (0, 0, 1), (None, 1, None), (2, 2, 2),
    ])
    def test_labelled_triangles(self, lcluster, lgraph, vlabels, labels):
        q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels=labels)
        result = HugeEngine(lcluster).run(q)
        assert result.count == count_matches(lgraph, q, labels=vlabels)

    def test_labelled_square(self, lcluster, lgraph, vlabels):
        q = QueryGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)],
                       labels=(0, None, 1, None))
        result = HugeEngine(lcluster).run(q)
        assert result.count == count_matches(lgraph, q, labels=vlabels)

    def test_collected_matches_respect_labels(self, lcluster, vlabels):
        q = QueryGraph(3, [(0, 1), (1, 2)], labels=(2, None, 0))
        cfg = EngineConfig(collect_results=True)
        result = HugeEngine(lcluster, cfg).run(q)
        for f in result.matches:
            assert vlabels[f[0]] == 2 and vlabels[f[2]] == 0

    def test_unlabelled_cluster_ignores_constraints_check(self, lgraph):
        # a labelled query on an unlabelled cluster: the engine has no
        # label array, so constraints cannot be applied — vertices match
        # everything (documented wildcard fallback)
        cl = Cluster(lgraph, num_machines=2, seed=1)
        q = QueryGraph(2, [(0, 1)], labels=[0, 1])
        assert HugeEngine(cl).run(q).count > 0

    def test_cluster_label_validation(self, lgraph):
        with pytest.raises(ValueError):
            Cluster(lgraph, num_machines=2, labels=np.zeros(3))

    def test_baselines_reject_labelled(self, lcluster):
        q = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], labels=(0, 1, 2))
        with pytest.raises(NotImplementedError):
            BenuEngine(lcluster).run(q)


class TestCypher:
    from repro.apps import CypherError, parse_cypher

    LABELS = {"User": 0, "Item": 1, "Tag": 2}

    def test_parse_triangle(self):
        from repro.apps import parse_cypher

        q = parse_cypher("MATCH (a)--(b)--(c), (c)--(a) RETURN count(*)")
        assert q.pattern.num_vertices == 3
        assert q.pattern.num_edges == 3
        assert q.returns is None

    def test_parse_labels(self):
        from repro.apps import parse_cypher

        q = parse_cypher("MATCH (a:User)--(b:Item) RETURN a",
                         label_ids=self.LABELS)
        assert q.pattern.labels == (0, 1)
        assert q.returns == ("a",)

    def test_directions_and_types_accepted(self):
        from repro.apps import parse_cypher

        q = parse_cypher(
            "MATCH (a)-[:KNOWS]->(b)<--(c), (a)-[]-(c) RETURN count(*)")
        assert q.pattern.num_edges == 3

    def test_unknown_label_rejected(self):
        from repro.apps import CypherError, parse_cypher

        with pytest.raises(CypherError):
            parse_cypher("MATCH (a:Ghost)--(b) RETURN count(*)",
                         label_ids=self.LABELS)

    def test_conflicting_labels_rejected(self):
        from repro.apps import CypherError, parse_cypher

        with pytest.raises(CypherError):
            parse_cypher("MATCH (a:User)--(b), (a:Item)--(b) "
                         "RETURN count(*)", label_ids=self.LABELS)

    def test_unbound_return_rejected(self):
        from repro.apps import CypherError, parse_cypher

        with pytest.raises(CypherError):
            parse_cypher("MATCH (a)--(b) RETURN z")

    def test_missing_match_rejected(self):
        from repro.apps import CypherError, parse_cypher

        with pytest.raises(CypherError):
            parse_cypher("SELECT * FROM graphs")

    def test_self_relationship_rejected(self):
        from repro.apps import CypherError, parse_cypher

        with pytest.raises(CypherError):
            parse_cypher("MATCH (a)--(a) RETURN count(*)")

    def test_disconnected_rejected(self):
        from repro.apps import CypherError, parse_cypher

        with pytest.raises(CypherError):
            parse_cypher("MATCH (a)--(b), (c)--(d) RETURN count(*)")

    def test_execute_count(self, lcluster, lgraph):
        from repro.apps import execute_cypher
        from repro.query import get_query

        r = execute_cypher(
            lcluster, "MATCH (a)--(b)--(c), (c)--(a) RETURN count(*)")
        assert r.count == count_matches(lgraph, get_query("triangle"))

    def test_execute_projection(self, lcluster, lgraph, vlabels):
        from repro.apps import execute_cypher

        r = execute_cypher(lcluster,
                           "MATCH (x:User)--(y:Item) RETURN y, x",
                           label_ids=self.LABELS)
        assert r.columns == ("y", "x")
        assert len(r.rows) == r.count
        for y, x in r.rows:
            assert vlabels[x] == 0 and vlabels[y] == 1
            assert lgraph.has_edge(x, y)
