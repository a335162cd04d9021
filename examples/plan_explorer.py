"""Explore execution plans: Algorithm 1 vs the baselines' logical plans.

Shows, for each benchmark query, the plan HUGE's optimiser picks (join
tree + Equation-3 physical settings) and how the plans of
BiGJoin/BENU/RADS perform when handed to HUGE as built (Remark 3.2).

Run:  python examples/plan_explorer.py
"""

from repro import Cluster
from repro.core import HugeEngine
from repro.core.plan import benu_plan, rads_plan, wco_plan
from repro.graph import load_dataset
from repro.query import QUERIES, SamplingEstimator, get_query


def main() -> None:
    graph = load_dataset("GO")
    cluster = Cluster(graph, num_machines=8, workers_per_machine=4, seed=5)
    engine = HugeEngine(cluster,
                        estimator=SamplingEstimator(graph, trials=300))
    print(f"data graph (GO stand-in): {graph}\n")

    print("=== plans chosen by Algorithm 1 ===")
    for name in ("q1", "q3", "q6", "q7"):
        plan = engine.plan(get_query(name))
        print(plan.describe())
        print()

    print("=== plug-in mode: one query, four logical plans ===")
    query = get_query("q2")
    plans = {
        "HUGE (optimal)": engine.plan(query),
        "HUGE-WCO": wco_plan(query),
        "HUGE-BENU": benu_plan(query),
        "HUGE-RADS": rads_plan(query),
    }
    print(f"query: {query.name}")
    for label, plan in plans.items():
        result = engine.run(plan=plan)
        print(f"  {label:16s} T={result.report.total_time_s * 1e3:8.2f}ms "
              f"C={result.report.bytes_transferred / 1e3:8.1f}KB "
              f"matches={result.count}")

    print("\nall benchmark queries:", ", ".join(sorted(QUERIES)))


if __name__ == "__main__":
    main()
