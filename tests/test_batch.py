"""Tests for the columnar Batch and the shuffle routing function."""

import numpy as np
import pytest

from repro.core.batch import Batch
from repro.core.kernels import hash_destinations


class TestBatchProtocol:
    def test_wraps_rows_and_reports_shape(self):
        b = Batch(np.asarray([[1, 2], [3, 4]], dtype=np.int64))
        assert len(b) == 2
        assert b.arity == 2

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            Batch(np.asarray([1, 2, 3], dtype=np.int64))

    def test_iterates_as_tuples(self):
        b = Batch(np.asarray([[1, 2], [3, 4]], dtype=np.int64))
        assert list(b) == [(1, 2), (3, 4)]
        assert b[0] == (1, 2)

    def test_equality_with_lists_and_batches(self):
        b = Batch(np.asarray([[1, 2]], dtype=np.int64))
        assert b == [(1, 2)]
        assert b == Batch(np.asarray([[1, 2]], dtype=np.int64))
        assert b != [(2, 1)]

    def test_coerce_accepts_sequences_and_arrays(self):
        assert Batch.coerce([(1, 2), (3, 4)]).tolist() == [(1, 2), (3, 4)]
        assert Batch.coerce(np.zeros((2, 3), dtype=np.int64)).arity == 3
        assert Batch.coerce([], arity=4).arity == 4
        b = Batch.empty(2)
        assert Batch.coerce(b) is b

    def test_slice_and_split(self):
        b = Batch(np.arange(12, dtype=np.int64).reshape(6, 2))
        assert isinstance(b[1:3], Batch)
        parts = list(b.split(4))
        assert [len(p) for p in parts] == [4, 2]
        assert parts[0][0] == (0, 1)


#: routing is *defined* by ``hash_destinations`` — these literals are the
#: definition's regression pin (last two rows of each width carry an id at
#: or above 2**61 - 1, where routing once took a separate scalar path)
_ROUTING_KEYS = {
    1: [[0], [1], [7], [123456789], [(1 << 61) - 1], [(1 << 62) + 5]],
    2: [[0, 0], [1, 2], [2, 1], [7, 99], [(1 << 61) - 1, 3],
        [40, (1 << 62) + 5]],
    3: [[0, 0, 0], [1, 2, 3], [3, 2, 1], [7, 99, 5],
        [(1 << 61) + 11, 3, 9], [1, 1, 1]],
}
_ROUTING_TABLE = {
    (2, 1): [0, 1, 0, 0, 1, 1], (7, 1): [6, 6, 6, 4, 6, 2],
    (10, 1): [8, 5, 4, 6, 3, 9],
    (2, 2): [1, 1, 1, 0, 0, 1], (7, 2): [4, 3, 0, 3, 5, 1],
    (10, 2): [5, 3, 3, 0, 6, 7],
    (2, 3): [0, 1, 1, 1, 1, 1], (7, 3): [2, 4, 4, 5, 1, 5],
    (10, 3): [6, 1, 9, 5, 1, 3],
}


class TestHashDestinations:
    @pytest.mark.parametrize("width", [1, 2, 3])
    @pytest.mark.parametrize("k", [1, 2, 7, 10])
    def test_pinned_routing_table(self, width, k):
        keys = np.asarray(_ROUTING_KEYS[width], dtype=np.int64)
        expect = _ROUTING_TABLE.get((k, width), [0] * len(keys))
        assert hash_destinations(keys, k).tolist() == expect

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_join_buffer_routes_rows_the_same_way(self, width):
        """the scalar entry point is the same function, also for huge ids"""
        from repro.cluster import Cluster
        from repro.core.operators import ExecContext, JoinBuffer
        from repro.graph import generators as gen

        cluster = Cluster(gen.erdos_renyi(12, 0.3, seed=1), num_machines=7)
        ctx = ExecContext(cluster, [], two_stage=True, batch_size=8)
        key_pos = tuple(range(1, width + 1))
        buf = JoinBuffer(ctx, key_pos, arity=width + 1, buffer_tuples=8)
        for key in _ROUTING_KEYS[width]:
            row = np.asarray([5, *key], dtype=np.int64)
            assert buf.destination(row) == hash_destinations(
                row[None, list(key_pos)], 7)[0]

    def test_empty_input(self):
        assert len(hash_destinations(np.empty((0, 2), dtype=np.int64), 3)) == 0
