"""Thread-pool vs process-pool serving throughput on the same workload.

The thread backend multiplexes workers over one GIL, so its wall-clock
throughput is capped near a single core no matter the pool size; the
process backend runs each worker's enumeration in its own child against
the shared-memory graph (``repro.core.shm``), so throughput scales with
cores.  This benchmark runs the identical seeded workload through both
backends (spawn/attach cost excluded via ``QueryService.wait_ready``),
verifies **both** bit-identical to solo runs, and records the speedup.

The acceptance gate is core-aware — process workers cannot beat the GIL
on hardware that has nothing beyond one core to give:

* >= 4 usable cores: process pool must be >= 2x the thread pool;
* 2-3 cores: >= 1.2x;
* 1 core: completion + bit-identical verification only (the speedup is
  still recorded, honestly).

Each run appends one record to ``results/BENCH_procpool.json``::

    PYTHONPATH=src python benchmarks/bench_procpool.py [--label after]
    PYTHONPATH=src python benchmarks/bench_procpool.py --smoke   # CI sized
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from common import BENCH_SEED, RESULTS_DIR  # noqa: E402

from repro.graph import load_dataset  # noqa: E402
from repro.serve import WorkloadSpec  # noqa: E402
from repro.serve.service import QueryService  # noqa: E402
from repro.testing.serving import solo_mismatches  # noqa: E402

RECORD_PATH = os.path.join(RESULTS_DIR, "BENCH_procpool.json")

DATASET = "GO"
NUM_QUERIES = 32
NUM_WORKERS = 4


def usable_cores() -> int:
    """Cores this process may actually schedule on (honours cgroup /
    affinity limits, not just the machine's socket count)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def run_pool(pool: str, queries: int, workers: int) -> dict:
    """One verified driver run on the given backend; wall time measured
    submit-to-drain with worker spawn/attach excluded."""
    graph = load_dataset(DATASET, seed=BENCH_SEED + 6)
    spec = WorkloadSpec(num_queries=queries, dataset=DATASET,
                        seed=BENCH_SEED, relabel_fraction=0.5,
                        tenants=("alpha", "beta"))
    requests = spec.build()
    service = QueryService(
        datasets={spec.dataset: graph}, num_workers=workers, pool=pool)
    service.start()
    service.wait_ready()
    t0 = time.perf_counter()
    try:
        handles = [service.submit(req) for req in requests]
        outcomes = [h.result(timeout=600) for h in handles]
        wall = time.perf_counter() - t0
    finally:
        service.stop()
    failures = solo_mismatches(graph, requests, outcomes)
    completed = sum(1 for o in outcomes if o.status.value == "completed")
    return {
        "pool": pool,
        "wall_s": round(wall, 4),
        "throughput_qps": round(completed / wall, 2) if wall else 0.0,
        "completed": completed,
        "verified_vs_solo": not failures,
        "verify_failures": failures,
    }


def bench(label: str, smoke: bool = False) -> dict:
    queries = 8 if smoke else NUM_QUERIES
    workers = 2 if smoke else NUM_WORKERS
    cores = usable_cores()
    thread = run_pool("thread", queries, workers)
    process = run_pool("process", queries, workers)
    speedup = (thread["wall_s"] / process["wall_s"]
               if process["wall_s"] else 0.0)
    # the gate the hardware can honestly support
    if cores >= 4:
        required = 2.0
    elif cores >= 2:
        required = 1.2
    else:
        required = 0.0  # single core: completion + verification only
    return {
        "label": label,
        "seed": BENCH_SEED,
        "workload": f"{queries}q/{DATASET} x{workers}w",
        "usable_cores": cores,
        "thread": thread,
        "process": process,
        "speedup_process_vs_thread": round(speedup, 3),
        "required_speedup": required,
        "gate_passed": bool(
            thread["verified_vs_solo"] and process["verified_vs_solo"]
            and thread["completed"] == queries
            and process["completed"] == queries
            and speedup >= required),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="run",
                        help="tag for this record (e.g. before/after)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (8 queries); record not saved")
    ns = parser.parse_args(argv)
    record = bench(ns.label, smoke=ns.smoke)
    print(json.dumps(record, indent=2))
    if ns.smoke:
        return 0 if record["gate_passed"] else 1
    os.makedirs(RESULTS_DIR, exist_ok=True)
    trajectory = []
    if os.path.exists(RECORD_PATH):
        with open(RECORD_PATH, encoding="utf-8") as f:
            trajectory = json.load(f)
    trajectory.append(record)
    with open(RECORD_PATH, "w", encoding="utf-8") as f:
        json.dump(trajectory, f, indent=2)
        f.write("\n")
    return 0 if record["gate_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
