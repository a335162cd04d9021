"""Kernel coverage: the shuffle routing function (``hash_destinations``)
and the PUSH-JOIN shuffle that is defined by it."""

import numpy as np
import pytest

from repro.core.kernels import hash_destinations


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
        """the shuffle files each row on the machine the routing function
        names for its key columns, also for huge ids"""
        from repro.cluster import Cluster
        from repro.core.operators import ExecContext, JoinBuffer
        from repro.graph import generators as gen

        cluster = Cluster(gen.erdos_renyi(12, 0.3, seed=1), num_machines=7)
        ctx = ExecContext(cluster, [])
        key_pos = tuple(range(1, width + 1))
        buf = JoinBuffer(ctx, key_pos, arity=width + 1, buffer_tuples=8)
        rows = np.asarray([[5, *key] for key in _ROUTING_KEYS[width]],
                          dtype=np.int64)
        buf.consume(0, rows)
        dests = hash_destinations(rows[:, list(key_pos)], 7)
        for m in range(7):
            assert buf.rows_for(m).tolist() == rows[dests == m].tolist()

    def test_empty_input(self):
        assert len(hash_destinations(np.empty((0, 2), dtype=np.int64), 3)) == 0
