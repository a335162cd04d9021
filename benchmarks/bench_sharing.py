"""Work-sharing benchmark: Zipf-skewed workload, shared vs per-request.

Measures the tentpole of the sharing PR: the same seeded Zipf-skewed
workload (hot patterns repeat, as real query logs do) runs twice on a
deliberately small worker pool —

* **baseline** — sharing off: every request is its own engine
  execution;
* **shared** — shared-prefix batching on: concurrently queued requests
  whose canonical plans share a join-unit prefix execute as one engine
  run.

Both runs are verified bit-identical to solo executions per request, so
the speedup is free of correctness drift.  The gate asserts the shared
run actually shared (some request ran in a share group) and did not
regress throughput.

Each full run appends one record to ``results/BENCH_sharing.json``::

    PYTHONPATH=src python benchmarks/bench_sharing.py [--label after]
    PYTHONPATH=src python benchmarks/bench_sharing.py --smoke   # CI sized

The seed is pinned through ``REPRO_BENCH_SEED`` (default 1) like every
other benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(__file__))

from common import BENCH_SEED, RESULTS_DIR  # noqa: E402

from repro.graph import load_dataset  # noqa: E402
from repro.serve import LoadDriver, WorkloadSpec  # noqa: E402
from repro.testing import check_driver_report  # noqa: E402

RECORD_PATH = os.path.join(RESULTS_DIR, "BENCH_sharing.json")

DATASET = "GO"
NUM_QUERIES = 48
#: a small pool so requests queue up concurrently — the precondition for
#: share-group formation (an idle pool dispatches everything solo)
NUM_WORKERS = 2
ZIPF_S = 1.1


def _spec(queries: int) -> WorkloadSpec:
    return WorkloadSpec(
        num_queries=queries, dataset=DATASET, seed=BENCH_SEED,
        relabel_fraction=0.25, collect_fraction=0.5,
        tenants=("alpha", "beta"), zipf_s=ZIPF_S)


def _run(queries: int, sharing: bool) -> dict:
    graph = load_dataset(DATASET, seed=BENCH_SEED + 6)
    driver = LoadDriver(graph, _spec(queries), num_workers=NUM_WORKERS,
                        sharing=sharing)
    report = driver.run(verify=True)
    violations = check_driver_report(report)
    svc = report.service
    return {
        "wall_s": round(report.wall_s, 4),
        "throughput_qps": round(svc["throughput_qps"], 2),
        "by_status": report.counts_by_status,
        "latency_p50_s": round(svc["latency"]["p50_s"], 4),
        "latency_p95_s": round(svc["latency"]["p95_s"], 4),
        "shared_groups": svc["shared_groups"],
        "shared_requests": svc["shared_requests"],
        "verified_vs_solo": report.verified,
        "oracle_violations": [str(v) for v in violations],
    }


def bench(label: str, smoke: bool = False) -> dict:
    queries = 12 if smoke else NUM_QUERIES
    baseline = _run(queries, sharing=False)
    shared = _run(queries, sharing=True)
    speedup = (baseline["wall_s"] / shared["wall_s"]
               if shared["wall_s"] > 0 else float("inf"))
    return {
        "label": label,
        "seed": BENCH_SEED,
        "workload": (f"{queries}q/{DATASET} x{NUM_WORKERS}w "
                     f"zipf={ZIPF_S}"),
        "baseline": baseline,
        "shared": shared,
        "speedup": round(speedup, 3),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="run",
                        help="tag for this record (e.g. before/after)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (12 queries); record not saved")
    ns = parser.parse_args(argv)
    record = bench(ns.label, smoke=ns.smoke)
    print(json.dumps(record, indent=2))
    base, shared = record["baseline"], record["shared"]
    failed = (
        not base["verified_vs_solo"] or not shared["verified_vs_solo"]
        or base["oracle_violations"] or shared["oracle_violations"]
        # the shared run must actually share work on a skewed mix
        or shared["shared_requests"] == 0
        or base["by_status"].get("completed", 0) != record_queries(record)
        or shared["by_status"].get("completed", 0) != record_queries(record)
    )
    if not ns.smoke:
        # full runs additionally gate on the speedup being real
        failed = failed or record["speedup"] < 1.0
        os.makedirs(RESULTS_DIR, exist_ok=True)
        trajectory = []
        if os.path.exists(RECORD_PATH):
            with open(RECORD_PATH, encoding="utf-8") as f:
                trajectory = json.load(f)
        trajectory.append(record)
        with open(RECORD_PATH, "w", encoding="utf-8") as f:
            json.dump(trajectory, f, indent=2)
            f.write("\n")
    return 1 if failed else 0


def record_queries(record: dict) -> int:
    return int(record["workload"].split("q/")[0])


if __name__ == "__main__":
    sys.exit(main())
