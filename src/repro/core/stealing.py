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

The balanced deal is one compiled loop (``deal_items`` of
``core/kernels.c``); the numpy deal the tests compare it with is
``tests/reference_kernels.py``'s.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence, TypeVar

import numpy as np

from . import kernels

__all__ = ["STEALING_MODES", "chunked_distribution",
           "distribute_to_workers", "rebalance"]

#: Accepted stealing modes: full two-layer stealing, none (HUGE-NOSTL),
#: or scan-level-only region groups (HUGE-RGP).
STEALING_MODES = ("full", "none", "region-group")

T = TypeVar("T")


def distribute_to_workers(item_costs: Sequence[int], workers: int,
                          stealing: bool, assign_key=0, segments=None):
    """Split a batch's per-item tick costs across ``workers``.

    With stealing, the steady state of steal-half deques is a balanced
    split: items sorted by cost are dealt out in alternating directions
    (a snake deal), which conserves the total exactly and leaves any two
    workers at most one largest item apart.  Without stealing, work is
    "distributed based on the firstly matched vertex" (paper §5.3):
    ``assign_key`` — the batch's pivot vertex — picks the worker, so
    every batch descending from a hub pivot lands on the same worker.
    That is the skew Exp-8 measures for HUGE-NOSTL.

    ``segments`` deals many batches at once (a stacked step's, one per
    machine): ``segments[i]`` numbers item ``i``'s batch ``0 .. B-1``,
    non-decreasing, ``assign_key`` holds one key per batch, and each
    batch gets its own deal — one segmented snake deal, a ``(B,
    workers)`` array of totals.  Without ``segments`` the items are one
    batch and the totals a list.

    The snake deal sorts once (every batch heaviest first, in place) and
    then runs as one compiled loop over the sorted costs (``deal_items``
    of ``kernels.c``), adding each item to its worker's integer total.
    """
    costs = np.asarray(item_costs, dtype=np.int64)
    seg = (np.zeros(len(costs), np.int64) if segments is None
           else np.asarray(segments))
    keys = np.atleast_1d(np.asarray(assign_key, dtype=np.int64))
    if not stealing:
        worker = keys[seg] % workers
    else:
        # per batch, heaviest first: one sort of batch-major keys leaves
        # each batch in place (costs are far below 2**53, so the keys
        # fit)
        base = seg * (int(costs.max(initial=0)) + 1)
        costs = base - np.sort(base - costs)
        totals = kernels._deal_compiled(costs, seg, len(keys), workers)
        return totals if segments is not None else totals[0].tolist()
    # weighted bincount sums in float64: exact below 2**53 ticks
    totals = np.bincount(seg * workers + worker, costs,
                         len(keys) * workers).astype(np.int64)
    totals = totals.reshape(len(keys), workers)
    return totals if segments is not None else totals[0].tolist()


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
    loads = [sum(map(weight, q)) for q in queues]
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
