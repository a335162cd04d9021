"""Metric goldens: frozen simulated metrics for fixed workloads.

The simulated metrics are the experiment results, so any drift silently
rewrites the paper's tables.  This module captures, for a fixed set of
seeded workloads × the engine matrix, the full
:class:`~repro.cluster.metrics.RunReport` (plus match counts and cache
counters) into a JSON file that a tier-1 test compares against exactly.

Every pinned value is either an integer the ledger counted (bytes,
messages, peak memory, match and cache counters) or one fixed expression
of such integers evaluated when the report is read (the times: tick
totals → seconds).  Integer sums have no order, so *how* a charge is
computed — per tuple, per batch, as one array reduction — cannot move a
golden.  A golden that moves after a pure vectorisation or refactoring
change therefore means the change miscounted: that is a bug to fix, not
a regeneration event.  Regenerate only when the cost *model* changes on
purpose (a weight, a formula, the assignment rule), with::

    PYTHONPATH=src python -m repro.testing.goldens --write tests/golden/metrics.json

and review the field-level diff: which integers moved, and why.

Plan goldens: the same entry point pins, in a second file, the *structure*
of the plan Algorithm 1 picks (joins, join algorithms, communication
modes — not the estimated cost) for the paper's queries on three stand-in
datasets.  A plan is a function of the cardinality estimates, so these
move when the estimator changes — on purpose, as a reviewable diff; every
moved plan goes into EXPERIMENTS.md with its simulated ``T`` before and
after.  Regenerate with::

    PYTHONPATH=src python -m repro.testing.goldens --write-plans tests/golden/plans.json
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

from ..cluster.cluster import Cluster
from ..cluster.cost import CostModel
from ..core.engine import HugeEngine
from ..graph import generators, load_dataset
from ..query.pattern import get_query
from .configs import BASELINE_ENGINES, EngineSpec, default_matrix
from .harness import _BASELINES, execute
from .workloads import Workload, random_workload

__all__ = ["GOLDEN_SEEDS", "PLAN_GOLDEN_DATASETS", "PLAN_GOLDEN_QUERIES",
           "capture_goldens", "capture_plan_goldens", "golden_budget_cases",
           "golden_specs", "golden_workloads"]

#: workload-generator seeds frozen into the golden file
GOLDEN_SEEDS = (1, 2, 3, 5, 8, 13)

#: the plan goldens' grid: the paper's queries × a web, a social and a
#: road stand-in, planned for the paper's 10-machine cluster
PLAN_GOLDEN_DATASETS = ("GO", "LJ", "EU")
PLAN_GOLDEN_QUERIES = tuple(f"q{i}" for i in range(1, 9))
PLAN_GOLDEN_MACHINES = 10


def golden_specs() -> list[EngineSpec]:
    """The full engine matrix: every HUGE configuration plus the four
    baseline systems, whose simulated accounting is pinned the same way
    the HUGE runtime's is.  Census specs are excluded: they
    run a pattern-independent workload whose determinism is gated by
    ``benchmarks/bench_census.py`` (two fresh runs bit-identical) and the
    census conformance family instead.  Delta specs are excluded for the
    same reason: the delta family's incremental-vs-from-scratch oracles
    plus ``benchmarks/bench_stream.py`` pin their determinism, and the
    incremental passes don't produce a simulated cost report."""
    return [s for s in default_matrix()
            if not s.is_census and not s.is_delta]


def golden_workloads() -> list[tuple[str, Workload]]:
    """The frozen workload set: seeded random cases plus two larger
    structured cases that exercise spilling, stealing and eviction."""
    cases: list[tuple[str, Workload]] = [
        (f"seed-{s}", random_workload(s)) for s in GOLDEN_SEEDS
    ]
    big = generators.power_law_cluster(60, 3, triad_p=0.6, seed=97)
    cases.append(("plc60-q1", Workload.from_parts(
        big, get_query("q1"), num_machines=3, workers_per_machine=2,
        partition_seed=4, seed=97)))
    dense = generators.erdos_renyi(36, 0.3, seed=53)
    cases.append(("er36-q2", Workload.from_parts(
        dense, get_query("q2"), num_machines=2, workers_per_machine=3,
        partition_seed=2, seed=53)))
    return cases


def golden_budget_cases() -> list[tuple[str, Workload, float, float]]:
    """Budget-constrained baseline cases: ``(name, workload, memory_budget,
    time_budget)``.  These pin the OOM/overtime *trip points* — a rewrite
    that charges identical totals but trips a budget one allocation earlier
    or later changes the abort-time snapshot and fails the golden."""
    cases = []
    dense = generators.erdos_renyi(36, 0.3, seed=53)
    cases.append(("er36-q2-mem5k", Workload.from_parts(
        dense, get_query("q2"), num_machines=2, workers_per_machine=3,
        partition_seed=2, seed=53), 5e3, float("inf")))
    big = generators.power_law_cluster(60, 3, triad_p=0.6, seed=97)
    cases.append(("plc60-q1-time.8ms", Workload.from_parts(
        big, get_query("q1"), num_machines=3, workers_per_machine=2,
        partition_seed=4, seed=97), float("inf"), 8e-4))
    return cases


def _budget_record(workload: Workload, engine: str, memory_budget: float,
                   time_budget: float) -> dict[str, Any]:
    """One budget-constrained baseline run: the error (or count) plus the
    abort-time metrics snapshot, so *where* the budget tripped is pinned,
    not just whether it did."""
    cost = CostModel(memory_budget_bytes=memory_budget,
                     time_budget_s=time_budget)
    cluster = Cluster(workload.graph(),
                      num_machines=workload.num_machines,
                      workers_per_machine=workload.workers_per_machine,
                      cost=cost, seed=workload.partition_seed,
                      labels=workload.label_array())
    record: dict[str, Any] = {}
    try:
        result = _BASELINES[engine](cluster).run(workload.pattern())
        record["count"] = result.count
    except Exception as exc:  # noqa: BLE001 - the abort IS the observable
        record["error"] = f"{type(exc).__name__}: {exc}"
    record["report"] = cluster.metrics.report().as_dict()
    return record


def _record(workload: Workload, spec: EngineSpec) -> dict[str, Any]:
    """One engine run reduced to its accounting-relevant observables."""
    if not spec.supports(workload):
        # label-constrained patterns are HUGE-only; pin that fact so a
        # baseline silently starting to "support" one shows up as drift
        return {"unsupported": True}
    outcome = execute(workload, spec)
    if outcome.error is not None:
        return {"error": outcome.error}
    report = outcome.report.as_dict()
    return {
        "count": outcome.count,
        "report": report,
        "cache_overflow_ids": outcome.cache_overflow_ids,
    }


def capture_goldens() -> dict[str, Any]:
    """Run every golden (workload, spec) pair and collect the records."""
    specs = golden_specs()
    out: dict[str, Any] = {"cases": {}}
    for wname, workload in golden_workloads():
        case: dict[str, Any] = {"workload": workload.describe(), "specs": {}}
        for spec in specs:
            case["specs"][spec.name] = _record(workload, spec)
        out["cases"][wname] = case
    out["budget_cases"] = {}
    for bname, workload, mem, tb in golden_budget_cases():
        case = {"workload": workload.describe(), "engines": {}}
        for engine in BASELINE_ENGINES:
            case["engines"][engine] = _budget_record(workload, engine,
                                                     mem, tb)
        out["budget_cases"][bname] = case
    return out


def capture_plan_goldens() -> dict[str, dict[str, list[str]]]:
    """``{dataset: {query: plan structure}}`` — what ``python -m repro
    plan --data D --pattern Q --machines 10`` picks, minus the cost."""
    out: dict[str, dict[str, list[str]]] = {}
    for data in PLAN_GOLDEN_DATASETS:
        engine = HugeEngine(Cluster(load_dataset(data),
                                    num_machines=PLAN_GOLDEN_MACHINES))
        out[data] = {q: engine.plan(get_query(q)).structure()
                     for q in PLAN_GOLDEN_QUERIES}
    return out


def _write_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=1, sort_keys=True, ensure_ascii=False)
        f.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", metavar="PATH",
                        help="write the metric goldens (JSON) to PATH")
    parser.add_argument("--write-plans", metavar="PATH",
                        help="write the plan-structure goldens to PATH")
    ns = parser.parse_args(argv)
    if not (ns.write or ns.write_plans):
        parser.error("nothing to do: pass --write and/or --write-plans")
    if ns.write:
        goldens = capture_goldens()
        _write_json(ns.write, goldens)
        n = sum(len(c["specs"]) for c in goldens["cases"].values())
        print(f"wrote {n} golden records to {ns.write}")
    if ns.write_plans:
        plans = capture_plan_goldens()
        _write_json(ns.write_plans, plans)
        n = sum(len(per_query) for per_query in plans.values())
        print(f"wrote {n} golden plans to {ns.write_plans}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
