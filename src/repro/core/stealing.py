"""Two-layer work stealing (paper §5.3).

*Intra-machine*: each worker owns a deque of partial results; idle workers
steal half from the front of a random busy deque.  In the simulation,
work-item costs are known once the batch is processed, so stealing is
modelled by its steady-state effect: near-perfect balancing of item costs
across the machine's workers (a balanced deal), while disabled stealing
assigns contiguous chunks — preserving the skew the paper observes when
load is distributed "based on the firstly matched vertex".

*Inter-machine*: a machine that exhausts its own input steals unprocessed
batches from the input channel of the top-most unfinished operator of a
busy machine (the ``StealWork`` RPC), paying the transfer bytes.  The
``region-group`` mode (the HUGE-RGP ablation of Exp-8) only redistributes
at the initial SCAN level, as RADS' static region groups do.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence, TypeVar

import numpy as np

__all__ = ["STEALING_MODES", "chunked_distribution",
           "distribute_to_workers", "rebalance"]

#: Accepted stealing modes: full two-layer stealing, none (HUGE-NOSTL),
#: or scan-level-only region groups (HUGE-RGP).
STEALING_MODES = ("full", "none", "region-group")

T = TypeVar("T")


def distribute_to_workers(item_costs: Sequence[int], workers: int,
                          stealing: bool, assign_key: int = 0) -> list[int]:
    """Split a batch's per-item tick costs across ``workers``.

    With stealing, the steady state of steal-half deques is a balanced
    split: items sorted by cost are dealt out in alternating directions
    (a snake deal), which conserves the total exactly and leaves any two
    workers at most one largest item apart.  Without stealing, work is
    "distributed based on the firstly matched vertex" (paper §5.3):
    ``assign_key`` — the batch's pivot vertex — picks the worker, so
    every batch descending from a hub pivot lands on the same worker.
    That is the skew Exp-8 measures for HUGE-NOSTL.
    """
    costs = np.asarray(item_costs, dtype=np.int64)
    totals = [0] * workers
    if not len(costs):
        return totals
    if not stealing:
        totals[assign_key % workers] = int(costs.sum())
        return totals
    # deal rounds of `workers` items, heaviest first: left-to-right, then
    # right-to-left, ... (zero padding completes the last double round)
    deal = np.zeros(-(-len(costs) // (2 * workers)) * 2 * workers, np.int64)
    deal[:len(costs)] = np.sort(costs)[::-1]
    deal = deal.reshape(-1, 2, workers)
    return (deal[:, 0].sum(axis=0) + deal[:, 1, ::-1].sum(axis=0)).tolist()


def chunked_distribution(item_costs: Sequence[int],
                         workers: int) -> list[int]:
    """Assign contiguous chunks of a whole task list to workers — how
    BENU/RADS statically pre-partition work by pivot-vertex ranges."""
    costs = np.asarray(item_costs, dtype=np.int64)
    chunk = -(-len(costs) // workers)
    return [int(costs[w * chunk:(w + 1) * chunk].sum())
            for w in range(workers)]


def rebalance(queues: list[deque[T]], weight=len,
              threshold: float = 3.0) -> list[tuple[int, int, T]]:
    """Inter-machine stealing: move work off severely overloaded machines.

    ``queues[m]`` is machine ``m``'s input channel for the operator being
    scheduled; ``weight`` measures a batch (default: its tuple count).
    Stealing in the paper only happens when a machine *finishes* its own
    job, so in steady state batches move only under real skew: a transfer
    happens while the heaviest machine holds more than ``threshold×`` the
    lightest machine's load (plus the batch).  Donors keep at least one
    batch.  Returns the moves performed as ``(src, dst, batch)``; the
    batches are already re-homed in ``queues``.
    """
    k = len(queues)
    if k < 2:
        return []
    loads = [sum(weight(b) for b in q) for q in queues]
    if sum(loads) == 0:
        return []
    moves: list[tuple[int, int, T]] = []
    # bounded sweep: move the heaviest queue's front batch to the lightest
    # machine while the skew exceeds the stealing threshold
    for _ in range(16 * k):
        donor = max(range(k), key=loads.__getitem__)
        thief = min(range(k), key=loads.__getitem__)
        if donor == thief or len(queues[donor]) < 2:
            break
        batch = queues[donor][0]
        w = weight(batch)
        if loads[donor] - w < threshold * (loads[thief] + w):
            break  # skew not severe enough to pay the transfer
        queues[donor].popleft()
        queues[thief].append(batch)
        loads[donor] -= w
        loads[thief] += w
        moves.append((donor, thief, batch))
    return moves
