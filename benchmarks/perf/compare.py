"""Compare two sets of benchmark records, metric by metric.

    python3 benchmarks/perf/compare.py A.json B.json
        [--a-label L] [--b-label L] [--allow-noisy] [--allow-changed-counts]

A is the parent (baseline), B the change.  A file holds one record, a
list of records, or ``{"records": [...]}``; ``--a-label`` / ``--b-label``
pick the records of one label out of a file that holds several sets.

Per workload and end-to-end metric the medians over each side's records
are compared against the bound ``BENCHMARK.json`` fixes:

* ``within``      no worse and no better than the bound
* ``worse``       B is worse than A by more than the bound
* ``better``      B is better than A by more than the bound
* ``unresolved``  the run-to-run spread of a side (quartile distance over
  its median, three or more records) is wider than the bound, and not
  every B run beats every A run

Counts that must repeat exactly (simulated clock, matches, call counts)
are compared between records of the same seed, length and mode and read
``identical`` or ``changed``.  Exits 1 on any ``worse``, on more failed
operations, and on ``changed`` unless ``--allow-changed-counts``; exits
2 when a record is flagged noisy (without ``--allow-noisy``) or quick.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402

#: per-layer metrics read from public result fields or call counts: the
#: same code on the same seed must reproduce them bit for bit
EXACT_METRICS = (
    "engine.matches", "sim.time_s", "sim.comm_bytes", "sim.peak_mem_bytes",
    "sim.compute_s", "sim.comm_s", "sim.messages",
    "sim.worker_time_stddev_s", "cache.hit_rate", "cache.evictions",
    "query.estimate.calls", "stealing.distribute_calls", "py.calls",
    "stream.additions", "stream.retractions", "stream.delta_edges",
)


def load_records(path: str, label: str | None = None) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        data = json.load(f)
    if isinstance(data, dict):
        data = data.get("records", [data])
    return [r for r in data if label is None or r.get("label") == label]


def spread(values: list[float]) -> float | None:
    """Quartile distance over the median; unknown below three runs."""
    if len(values) < 3:
        return None
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else None


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """Verdict and relative change of B against A (positive = worse)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / med_a if med_a else 0.0
    spreads = [s for s in (spread(a), spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        beats = (max(b) < min(a)) if better == "lower" else (min(b) > max(a))
        return ("better" if beats else "unresolved"), worse_by
    if worse_by > bound:
        return "worse", worse_by
    if worse_by < -bound:
        return "better", worse_by
    return "within", worse_by


def values_of(records: list[dict], workload: str, kind: str,
              metric: str) -> list[float]:
    return [r["workloads"][workload][kind][metric]["value"]
            for r in records if workload in r["workloads"]]


def failed_frac(records: list[dict], workload: str) -> float | None:
    """Worst failed / attempted over the records that ran the workload."""
    runs = [r["workloads"][workload] for r in records
            if workload in r["workloads"]]
    return max((w["failed"] / max(1, w["attempted"]) for w in runs),
               default=None)


def compare(a: list[dict], b: list[dict], decl: dict) -> tuple[list, list]:
    """Rows ``(workload, metric, median A, median B, change, bound,
    verdict)`` and exact-count rows ``(workload, metric, seed, verdict)``."""
    rows, exact = [], []
    plain_a = [r for r in a if not r["trace"]]
    plain_b = [r for r in b if not r["trace"]]
    for w in (w["name"] for w in decl["workloads"]):
        for m in decl["end_to_end"]:
            va = values_of(plain_a, w, "end_to_end", m["name"])
            vb = values_of(plain_b, w, "end_to_end", m["name"])
            if not va or not vb:
                continue
            v, change = verdict(va, vb, m["better"], m["bound"])
            rows.append((w, m["name"], statistics.median(va),
                         statistics.median(vb), change, m["bound"], v))
        fa, fb = failed_frac(a, w), failed_frac(b, w)
        if fa is not None and fb is not None:
            rows.append((w, "failed_frac", fa, fb, fb - fa, 0.0,
                         "worse" if fb > fa else "within"))
        for ra in a:
            for rb in b:
                if (w not in ra["workloads"] or w not in rb["workloads"]
                        or any(ra[k] != rb[k]
                               for k in ("seed", "seconds", "trace"))):
                    continue
                la = ra["workloads"][w]["per_layer"]
                lb = rb["workloads"][w]["per_layer"]
                exact.extend(
                    (w, name, ra["seed"], "identical"
                     if la[name]["value"] == lb[name]["value"] else "changed")
                    for name in EXACT_METRICS if name in la and name in lb)
    return rows, exact


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a")
    parser.add_argument("b")
    parser.add_argument("--a-label")
    parser.add_argument("--b-label")
    parser.add_argument("--allow-noisy", action="store_true")
    parser.add_argument("--allow-changed-counts", action="store_true")
    ns = parser.parse_args(argv)
    a = load_records(ns.a, ns.a_label)
    b = load_records(ns.b, ns.b_label)
    if not a or not b:
        print("no records to compare", file=sys.stderr)
        return 2
    if any(r.get("quick") for r in a + b):
        print("a --quick record is never comparable", file=sys.stderr)
        return 2
    if any(r.get("noisy") for r in a + b) and not ns.allow_noisy:
        print("a record is flagged noisy (load above the core count or a "
              "late generator); rerun it or pass --allow-noisy",
              file=sys.stderr)
        return 2

    rows, exact = compare(a, b, harness.load_declaration())
    print(f"{'workload':<15} {'metric':<18} {'A median':>12} "
          f"{'B median':>12} {'worse by':>9} {'bound':>6}  verdict")
    for w, name, med_a, med_b, change, bound, v in rows:
        print(f"{w:<15} {name:<18} {med_a:>12.6g} {med_b:>12.6g} "
              f"{change:>+9.1%} {bound:>6.0%}  {v}")
    changed = sorted({e[:3] for e in exact if e[3] == "changed"})
    print(f"exact counts: {len(exact)} compared, {len(changed)} changed")
    for w, name, seed in changed:
        print(f"   changed: {w} {name} (seed {seed})")
    worse = any(r[6] == "worse" for r in rows)
    return 1 if worse or (changed and not ns.allow_changed_counts) else 0


if __name__ == "__main__":
    sys.exit(main())
