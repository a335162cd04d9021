"""Motif-census benchmark: the census as a loop over engine counts.

Runs the size-k census (k = 3, 4 and 5) over the GO stand-in and
measures it end to end: wall-clock throughput (connected k-subgraphs per
second, planning of every class's query included) and the simulated
cluster ledger the engine runs add up to (time / communication / peak
memory).  Each census runs **twice** on freshly-built clusters and the
two runs must be bit-identical — counts and the simulated report — so
the benchmark doubles as the census determinism gate.

Each run appends one record to ``results/BENCH_census.json``::

    PYTHONPATH=src python benchmarks/bench_census.py [--label after]
    PYTHONPATH=src python benchmarks/bench_census.py --smoke   # CI: k=3, 4

The seed is pinned through ``REPRO_BENCH_SEED`` (default 1) like every
other benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(__file__))

from common import BENCH_SEED, RESULTS_DIR, make_cluster  # noqa: E402

from repro.apps.mining import motif_census  # noqa: E402

RECORD_PATH = os.path.join(RESULTS_DIR, "BENCH_census.json")

DATASET = "GO"
SIZES = (3, 4, 5)
SMOKE_SIZES = (3, 4)


def _run_once(k: int) -> tuple[dict, float]:
    """One census on a fresh cluster; returns (as_dict record, wall s)."""
    cluster = make_cluster(DATASET)
    t0 = time.perf_counter()
    res = motif_census(cluster, k)
    wall = time.perf_counter() - t0
    return res.as_dict(), wall


def bench(label: str, smoke: bool = False) -> dict:
    sizes = SMOKE_SIZES if smoke else SIZES
    record: dict = {"label": label, "seed": BENCH_SEED, "dataset": DATASET,
                    "runs": {}}
    deterministic = True
    for k in sizes:
        first, wall = _run_once(k)
        second, _ = _run_once(k)
        identical = first == second
        deterministic &= identical
        record["runs"][f"k{k}"] = {
            "wall_s": round(wall, 4),
            "total_subgraphs": first["total_subgraphs"],
            "subgraphs_per_s": round(first["total_subgraphs"]
                                     / max(wall, 1e-9)),
            "classes": len(first["counts"]),
            "counts": first["counts"],
            "sim_time_s": round(first["report"]["total_time_s"], 6),
            "sim_comm_mb": round(
                first["report"]["bytes_transferred"] / 1e6, 4),
            "sim_peak_mem_mb": round(
                first["report"]["peak_memory_bytes"] / 1e6, 4),
            "bit_identical_rerun": identical,
        }
    record["deterministic"] = deterministic
    return record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--label", default="run",
                        help="tag for this record (e.g. before/after)")
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run (k=3 and 4); record not saved")
    ns = parser.parse_args(argv)
    record = bench(ns.label, smoke=ns.smoke)
    print(json.dumps(record, indent=2))
    failed = (not record["deterministic"]
              or any(r["total_subgraphs"] == 0
                     for r in record["runs"].values()))
    if ns.smoke:
        return 1 if failed else 0
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


if __name__ == "__main__":
    sys.exit(main())
