"""The §6 "control flow like loop": an application is a sequence of
engine runs on the caller's cluster.

Every application that enumerates — the hop-constrained path query, the
motif counts, frequent-pattern mining, the motif census — goes through
:func:`engine_runs`, so they all account the same way: the caller's
ledger carries the whole loop and no run resets it.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..cluster.cluster import Cluster
from ..core.engine import EngineConfig, EnumerationResult, HugeEngine
from ..core.plan.tree import ExecutionPlan
from ..query.pattern import QueryGraph

__all__ = ["engine_runs"]


def engine_runs(cluster: Cluster,
                members: Iterable[QueryGraph | ExecutionPlan],
                config: EngineConfig | None = None,
                labels: "np.ndarray | None" = None
                ) -> list[EnumerationResult]:
    """One :meth:`HugeEngine.run <repro.core.engine.HugeEngine.run>` per
    member (a pattern to plan with Algorithm 1, or a plan), on one engine.

    The engine runs on a *view* of ``cluster`` — same graph, partition,
    cost model and shape, its own ledger, and ``labels`` in place of the
    cluster's when given — because a run starts from a fresh ledger;
    each run's ledger is then folded into ``cluster.metrics``
    (:meth:`~repro.cluster.metrics.Metrics.absorb`), which is never reset.
    """
    view = Cluster(cluster.graph, cluster.num_machines,
                   cluster.workers_per_machine, cluster.cost,
                   labels=cluster.labels if labels is None else labels,
                   owner=cluster.pgraph.owner)
    engine = HugeEngine(view, config)
    results = []
    for member in members:
        if isinstance(member, ExecutionPlan):
            results.append(engine.run(plan=member))
        else:
            results.append(engine.run(member))
        cluster.metrics.absorb(view.metrics)
    return results
