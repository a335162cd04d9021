"""Tables 2 and 3: the taxonomy of execution plans and the dataset table.

Table 2 classifies the existing systems by logical (join unit, join order)
and physical (join algorithm, communication mode) settings; it is
regenerated from the live plan builders by inspecting the plans they
produce for a probe query.  Table 3 lists the evaluation datasets; it is
regenerated from the stand-in generators next to the paper's statistics.
"""

from common import BENCH_SEED, emit, format_table

from repro.core.plan import (benu_plan, rads_plan, seed_plan,
                             starjoin_plan, wco_plan)
from repro.graph import dataset_table, load_dataset
from repro.query import ExactEstimator, get_query


def run_table2():
    probe = get_query("q4")  # rich enough to expose plan structure
    graph = load_dataset("GO", scale=0.5, seed=BENCH_SEED + 6)
    est = ExactEstimator(graph)
    builders = {
        "StarJoin": starjoin_plan(probe),
        "SEED": seed_plan(probe, est),
        "BiGJoin": wco_plan(probe),
        "BENU": benu_plan(probe),
        "RADS": rads_plan(probe),
    }
    rows = []
    for name, plan in builders.items():
        order = "left-deep" if plan.root.is_left_deep() else "bushy"
        units = {leaf.sub.num_vertices for leaf in plan.root.leaves()}
        unit = "star" if max(units) > 2 else "star (edges)"
        algos = {j.setting.algorithm for j in plan.joins()}
        comms = {j.setting.comm for j in plan.joins()}
        rows.append([
            name, unit, order,
            "/".join(sorted(a.value for a in algos)),
            "/".join(sorted(c.value for c in comms)) + " (in HUGE)",
        ])
    return rows


def run_table3():
    rows = []
    for entry in dataset_table(seed=BENCH_SEED + 6):
        rows.append([
            entry["dataset"], entry["family"],
            f"{entry['paper_V']:,}", f"{entry['paper_E']:,}",
            entry["paper_dmax"], entry["paper_davg"],
            f"{entry['standin_V']:,}", f"{entry['standin_E']:,}",
            entry["standin_dmax"], entry["standin_davg"],
        ])
    return rows


def test_table2_taxonomy(benchmark):
    rows = benchmark.pedantic(run_table2, rounds=1, iterations=1)
    emit("table2_taxonomy", format_table(
        "Table 2 — execution plans of existing works (regenerated from the "
        "plug-in builders; physical settings as configured by Equation 3)",
        ["system", "unit U", "order O", "algorithm A", "comm C"], rows))
    by_name = {r[0]: r for r in rows}
    assert by_name["StarJoin"][2] == "left-deep"
    assert by_name["BENU"][2] == "left-deep"
    assert by_name["RADS"][2] == "left-deep"
    assert by_name["BiGJoin"][2] == "left-deep"
    # BiGJoin/BENU extensions are complete star joins → wco under Eq. 3
    assert "wco" in by_name["BiGJoin"][3]
    assert "wco" in by_name["BENU"][3]


def test_table3_datasets(benchmark):
    rows = benchmark.pedantic(run_table3, rounds=1, iterations=1)
    emit("table3_datasets", format_table(
        "Table 3 — datasets: paper graphs vs synthetic stand-ins",
        ["name", "family", "paper |V|", "paper |E|", "paper dmax",
         "paper davg", "standin |V|", "standin |E|", "standin dmax",
         "standin davg"], rows))
    assert len(rows) == 7
    # stand-ins preserve the family degree character
    by_name = {r[0]: r for r in rows}
    assert by_name["EU"][8] <= 8            # road: tiny max degree
    assert by_name["CW"][8] >= 100          # web-scale: huge hubs
