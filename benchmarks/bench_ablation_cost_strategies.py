"""Ablation (beyond the paper's tables): the optimiser's cost objective.

Example 3.2 argues that sequential hybrid planners (EmptyHeaded,
GraphFlow) fall short because "computation is the only concern", while
HUGE's optimiser also prices communication.  This ablation runs the same
DP under its four cost strategies — ``hybrid`` (HUGE), ``push-only``
(SEED's world), ``compute-mat`` (EmptyHeaded-like) and ``compute-icost``
(GraphFlow-like) — and executes every resulting plan on the engine.

Expected shape: the communication-aware ``hybrid`` objective never loses
by more than noise, and wins outright on queries whose compute-optimal
plan shuffles heavy intermediates.
"""

from common import emit, format_table, make_cluster

from repro.core import HugeEngine
from repro.core.plan import COST_STRATEGIES, Optimiser
from repro.query import SamplingEstimator, get_query


def run_ablation():
    table = {}
    # GO keeps every strategy's materialisation (including the compute-
    # only plans' open paths) tractable in pure Python
    for qname in ("q1", "q2", "q4", "q7"):
        cluster = make_cluster("GO", num_machines=10)
        est = SamplingEstimator(cluster.graph, trials=500, seed=5)
        engine = HugeEngine(cluster, estimator=est)
        query = get_query(qname)
        row = {}
        for strategy in COST_STRATEGIES:
            opt = Optimiser(est, cluster.num_machines,
                            cluster.graph.num_edges,
                            cost_strategy=strategy,
                            avg_degree=cluster.graph.avg_degree)
            row[strategy] = engine.run(plan=opt.run(query, name=strategy))
        table[qname] = row
    return table


def test_ablation_cost_strategies(benchmark):
    table = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    for qname, row in table.items():
        rows.append([qname] + [
            f"{row[s].report.total_time_s:.4f}s" for s in COST_STRATEGIES])
    emit("ablation_cost_strategies", format_table(
        "Ablation — optimiser cost strategies on GO stand-in "
        "(plan executed on the HUGE engine)",
        ["query"] + list(COST_STRATEGIES), rows))

    wins = 0
    for qname, row in table.items():
        counts = {row[s].count for s in COST_STRATEGIES}
        assert len(counts) == 1, f"{qname}: strategies disagree"
        t = {s: row[s].report.total_time_s for s in COST_STRATEGIES}
        # the communication-aware objective is never far from the best …
        assert t["hybrid"] <= min(t.values()) * 1.5, (qname, t)
        if t["hybrid"] <= min(t.values()) * 1.001:
            wins += 1
    # … and is the (possibly tied) best on several queries
    assert wins >= 2
