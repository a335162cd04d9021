"""Tests for the two-layer work stealing model (repro.core.stealing)."""

from collections import deque

import pytest

from repro.core import distribute_to_workers, rebalance
from repro.core.stealing import STEALING_MODES


#: per-item tick costs: one dominant item, uniform, skewed tail, ties,
#: a single item, fewer items than workers, big values
_COST_CASES = [
    [100] + [1] * 99,
    [1] * 100,
    [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5],
    [7] * 9,
    [42],
    [5, 3],
    [2 ** 40 + 1, 2 ** 40, 3, 2, 1],
]


class TestWorkerDistribution:
    def test_stealing_balances(self):
        costs = [100] + [1] * 99
        totals = distribute_to_workers(costs, 4, stealing=True)
        assert sum(totals) == sum(costs)
        assert max(totals) <= 2 * min(totals) + 100
        assert max(totals) - min(totals) <= 100

    @pytest.mark.parametrize("workers", [1, 2, 3, 4, 7])
    @pytest.mark.parametrize("costs", _COST_CASES)
    def test_balanced_deal_conserves_and_bounds_spread(self, costs, workers):
        totals = distribute_to_workers(costs, workers, stealing=True)
        assert len(totals) == workers
        assert all(isinstance(t, int) for t in totals)
        assert sum(totals) == sum(costs)  # conserved exactly
        # a balanced deal leaves any two workers at most one item apart
        assert max(totals) - min(totals) <= max(costs)

    def test_no_stealing_pins_batch_to_one_worker(self):
        totals = distribute_to_workers([1] * 40, 4, stealing=False,
                                       assign_key=2)
        assert totals == [0, 0, 40, 0]

    @pytest.mark.parametrize("key", [0, 2, 7])
    @pytest.mark.parametrize("costs", _COST_CASES)
    def test_no_stealing_is_pivot_sticky(self, costs, key):
        totals = distribute_to_workers(costs, 4, stealing=False,
                                       assign_key=key)
        expect = [0] * 4
        expect[key % 4] = sum(costs)
        assert totals == expect

    def test_no_stealing_key_is_sticky(self):
        # the same pivot key always selects the same worker — the
        # "distribute by firstly matched vertex" skew of §5.3
        a = distribute_to_workers([1], 4, stealing=False, assign_key=7)
        b = distribute_to_workers([2], 4, stealing=False, assign_key=7)
        c = distribute_to_workers([1], 4, stealing=False, assign_key=8)
        assert a.index(1) == b.index(2)
        assert a.index(1) != c.index(1)

    def test_conservation(self):
        costs = [3, 1, 4, 1, 5]
        for stealing in (True, False):
            totals = distribute_to_workers(costs, 3, stealing)
            assert sum(totals) == 14

    def test_order_of_items_is_irrelevant(self):
        costs = [3, 1, 4, 1, 5, 9, 2, 6]
        assert (distribute_to_workers(costs, 3, True)
                == distribute_to_workers(costs[::-1], 3, True))

    def test_single_worker(self):
        for stealing in (True, False):
            assert distribute_to_workers([1, 2], 1, stealing,
                                         assign_key=5) == [3]

    def test_empty_batch(self):
        for stealing in (True, False):
            for workers in (1, 4):
                assert distribute_to_workers(
                    [], workers, stealing) == [0] * workers

    def test_stealing_near_optimal_on_uniform(self):
        totals = distribute_to_workers([1] * 100, 4, stealing=True)
        assert totals == [25] * 4

    def test_accepts_tick_arrays(self):
        import numpy as np

        costs = np.asarray([5, 1, 1, 1], dtype=np.int64)
        assert distribute_to_workers(costs, 2, True) == [6, 2]

    def test_chunked_distribution_keeps_range_skew(self):
        from repro.core.stealing import chunked_distribution

        costs = [100] * 25 + [1] * 75
        totals = chunked_distribution(costs, 4)
        assert totals == [2500, 25, 25, 25]

    def test_chunked_distribution_empty(self):
        from repro.core.stealing import chunked_distribution

        assert chunked_distribution([], 4) == [0] * 4

    def test_modes_constant(self):
        assert STEALING_MODES == ("full", "none", "region-group")


class TestRebalance:
    def test_relieves_severe_skew(self):
        queues = [deque([[0] * 10 for _ in range(10)]), deque(), deque()]
        moves = rebalance(queues)
        assert moves
        loads = [sum(len(b) for b in q) for q in queues]
        # severe skew is brought under the stealing threshold
        assert max(loads) < 3 * (min(loads) + 10) + 10

    def test_no_moves_when_balanced(self):
        queues = [deque([[0] * 5]), deque([[0] * 5])]
        assert rebalance(queues) == []

    def test_no_moves_under_threshold(self):
        # 2× skew < default threshold 3× → no stealing
        queues = [deque([[0] * 5, [0] * 5]), deque([[0] * 5])]
        assert rebalance(queues) == []

    def test_lower_threshold_steals_more(self):
        queues = [deque([[0] * 5 for _ in range(4)]), deque()]
        assert rebalance(queues, threshold=1.0)

    def test_donor_keeps_last_batch(self):
        queues = [deque([[0] * 5]), deque()]
        assert rebalance(queues) == []
        assert len(queues[0]) == 1

    def test_single_machine_noop(self):
        queues = [deque([[0] * 5, [0] * 5])]
        assert rebalance(queues) == []

    def test_all_empty_noop(self):
        assert rebalance([deque(), deque()]) == []

    def test_moves_recorded_match_queues(self):
        big = [[i] * 4 for i in range(8)]  # distinguishable batches
        queues = [deque(big), deque(), deque()]
        moves = rebalance(queues)
        for src, dst, batch in moves:
            assert batch in queues[dst]
            assert batch not in queues[src]

    def test_custom_weight(self):
        queues = [deque(["aaaa", "bbbb", "cc"]), deque()]
        moves = rebalance(queues, weight=len, threshold=1.0)
        # a 4-weight item moves to the empty queue, improving balance
        assert moves
        assert sum(len(x) for x in queues[1]) >= 4

    def test_terminates_on_pathological_input(self):
        queues = [deque([[0]] * 1000), deque(), deque(), deque()]
        moves = rebalance(queues, threshold=1.0)
        assert len(moves) <= 16 * 4  # bounded sweep


class TestStealFromFront:
    """Steal-half semantics: thieves take from the *front* of the donor's
    deque (the oldest, coarsest work), never the batch the donor is about
    to process from the back — matching the steal-half-from-front deques
    of §5.3."""

    def test_steals_oldest_batches_first(self):
        batches = [[i] * 5 for i in range(6)]  # [0,...] is oldest
        queues = [deque(batches), deque()]
        moves = rebalance(queues, threshold=1.0)
        assert moves
        stolen = [b for _, _, b in moves]
        # the stolen set is exactly a prefix of the donor's original deque
        assert stolen == batches[: len(stolen)]

    def test_remaining_batches_keep_order(self):
        batches = [[i] * 5 for i in range(6)]
        queues = [deque(batches), deque()]
        moves = rebalance(queues, threshold=1.0)
        kept = list(queues[0])
        assert kept == batches[len(moves):]

    def test_donor_retains_at_least_one_batch(self):
        for n in range(1, 8):
            queues = [deque([[0] * 9 for _ in range(n)]), deque(), deque()]
            rebalance(queues, threshold=1.0)
            assert len(queues[0]) >= 1

    def test_batch_conservation(self):
        batches = [[i] * (1 + i % 3) for i in range(12)]
        queues = [deque(batches[:8]), deque(batches[8:]), deque()]
        before = sorted(map(tuple, batches))
        rebalance(queues, threshold=1.0)
        after = sorted(tuple(b) for q in queues for b in q)
        assert after == before


class TestTerminationDetection:
    """Inter-machine termination: once a rebalance pass settles, the
    system is at a fixed point — re-running stealing on the post-steal
    state performs no further moves, so idle machines can safely
    conclude the operator is drained (no oscillation, no livelock)."""

    def test_rebalance_reaches_fixed_point(self):
        queues = [deque([[0] * 4 for _ in range(10)]), deque(), deque()]
        first = rebalance(queues)
        assert first  # severe skew → at least one steal
        assert rebalance(queues) == []  # settled: nothing more to move

    def test_fixed_point_under_low_threshold(self):
        queues = [deque([[0] * 3 for _ in range(9)]), deque(), deque()]
        rebalance(queues, threshold=1.0)
        assert rebalance(queues, threshold=1.0) == []

    def test_empty_system_terminates_immediately(self):
        assert rebalance([deque(), deque(), deque()]) == []

    def test_single_machine_terminates_immediately(self):
        assert rebalance([deque([[0] * 4, [0] * 4])]) == []

    def test_no_oscillation_between_two_machines(self):
        # near-balanced loads must not trade batches back and forth
        queues = [deque([[0] * 5, [0] * 4]), deque([[0] * 4])]
        for _ in range(3):
            assert rebalance(queues) == []

    def test_repeated_passes_are_stable(self):
        queues = [deque([[i] * 2 for i in range(20)]), deque(), deque(),
                  deque()]
        rebalance(queues, threshold=1.0)
        snapshot = [list(q) for q in queues]
        for _ in range(3):
            rebalance(queues, threshold=1.0)
        assert [list(q) for q in queues] == snapshot
