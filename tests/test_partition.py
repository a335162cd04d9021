"""Unit tests for graph partitioning (repro.graph.partition)."""

import numpy as np
import pytest

from repro.graph import PartitionedGraph, hash_partition
from repro.graph import generators as gen


class TestHashPartition:
    def test_range(self):
        owner = hash_partition(100, 7, seed=0)
        assert owner.min() >= 0 and owner.max() < 7

    def test_balanced(self):
        owner = hash_partition(1000, 10, seed=0)
        counts = np.bincount(owner, minlength=10)
        assert counts.max() - counts.min() <= 1

    def test_deterministic(self):
        assert np.array_equal(hash_partition(50, 4, seed=3),
                              hash_partition(50, 4, seed=3))

    def test_invalid_partitions(self):
        with pytest.raises(ValueError):
            hash_partition(10, 0)

    def test_zero_vertices(self):
        assert len(hash_partition(0, 4)) == 0


class TestPartitionedGraph:
    @pytest.fixture()
    def pg(self, er_graph):
        return PartitionedGraph(er_graph, 4, seed=1)

    def test_every_vertex_owned_once(self, pg, er_graph):
        all_locals = np.concatenate(
            [pg.local_vertices(p) for p in range(4)])
        assert sorted(all_locals.tolist()) == list(er_graph.vertices())

    def test_owner_of_matches_local_vertices(self, pg):
        for p in range(4):
            for v in pg.local_vertices(p):
                assert pg.owner_of(int(v)) == p

    def test_custom_owner_array(self, er_graph):
        owner = np.zeros(er_graph.num_vertices, dtype=np.int64)
        pg = PartitionedGraph(er_graph, 2, owner=owner)
        assert len(pg.local_vertices(0)) == er_graph.num_vertices
        assert len(pg.local_vertices(1)) == 0

    def test_owner_length_mismatch(self, er_graph):
        with pytest.raises(ValueError):
            PartitionedGraph(er_graph, 2, owner=np.zeros(3, dtype=np.int64))

    def test_owner_out_of_range(self, er_graph):
        owner = np.full(er_graph.num_vertices, 5, dtype=np.int64)
        with pytest.raises(ValueError):
            PartitionedGraph(er_graph, 2, owner=owner)

    def test_single_partition(self, er_graph):
        pg = PartitionedGraph(er_graph, 1)
        assert len(pg.local_vertices(0)) == er_graph.num_vertices
