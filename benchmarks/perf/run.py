"""The repository's performance benchmark: one command, both clocks.

    python3 benchmarks/perf/run.py [--workload NAME] [--seed S]
        [--seconds N] [--trace [0|1]] [--out FILE] [--label L] [--quick]
    python3 benchmarks/perf/run.py --repin

Each workload runs in its own subprocess, so ``peak_rss_mb`` is per
workload and ``setup_s`` starts at process start.  Every metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{correct, attempted, failed, metrics}``.  ``--trace 0``
(default) measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics and writes the spans to ``results/trace-<workload>.json``.
See ``README.md`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(PERF_DIR))

import harness  # noqa: E402

BATCH_WORKLOADS = ("enum-pull", "plan-bound", "join-push")
#: set-up is measured this many times per untraced run (median reported)
SETUP_REPEATS = 3
CHILD_TIMEOUT_S = 170
NOISY_LATE_S = 0.020


# -- the child: one workload, one process ------------------------------------

def make_workload(name: str, seed: int, quick: bool, seconds: float):
    if name in BATCH_WORKLOADS:
        from batch import BatchWorkload
        return BatchWorkload(name, seed, quick)
    if name == "serve-open":
        from serve_open import ServeOpenWorkload
        return ServeOpenWorkload(seed)
    if name == "stream-updates":
        from stream_updates import StreamUpdatesWorkload
        return StreamUpdatesWorkload(seed, seconds)
    raise SystemExit(f"unknown workload {name!r}")


def child_main(ns: argparse.Namespace) -> int:
    spawned = float(os.environ.get("BENCH_SPAWN_UNIX", time.time()))
    sys.path.insert(0, str(harness.REPO_ROOT / "src"))
    workload = make_workload(ns.workload, ns.seed, ns.quick, ns.seconds)
    try:
        workload.setup()
        setup_s = time.time() - spawned
        if ns.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        spans = harness.Spans() if ns.trace else None
        result = workload.measure(ns.seconds, spans)
    finally:
        service = getattr(workload, "service", None)
        if service is not None:
            service.stop()
    result["end_to_end"]["setup_s"] = setup_s
    result["end_to_end"]["peak_rss_mb"] = harness.peak_rss_mb()
    result["per_layer"]["failed_frac"] = (result["failed"]
                                          / max(1, result["attempted"]))
    if spans is not None:
        spans.write(ns.workload, {"seed": ns.seed, "seconds": ns.seconds})
    print(json.dumps(result))
    return 0


# -- the parent: spawn, collect, print, record -------------------------------

def spawn(workload: str, ns: argparse.Namespace, setup_only: bool) -> dict:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(ns.seed),
           "--seconds", str(ns.seconds), "--trace", str(ns.trace)]
    if ns.quick:
        cmd.append("--quick")
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED="0",
               BENCH_SPAWN_UNIX=repr(time.time()))
    done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(name: str, ns: argparse.Namespace, decl: dict) -> dict:
    cores, load = harness.usable_cores(), harness.load_average()
    setups = []
    if not ns.trace and not ns.quick:
        setups = [spawn(name, ns, setup_only=True)["setup_s"]
                  for _ in range(SETUP_REPEATS - 1)]
    result = spawn(name, ns, setup_only=False)
    setups.append(result["end_to_end"]["setup_s"])
    result["end_to_end"]["setup_s"] = harness.median(setups)
    result["samples"]["setup_s"] = setups
    late = result["per_layer"].get("serve.gen_late_max_s", 0.0)
    result.update(
        workload=name, usable_cores=cores, load_before=load,
        noisy=bool(load > cores or late > NOISY_LATE_S),
        end_to_end=harness.fill_metrics(
            result["end_to_end"], harness.metric_units(decl, "end_to_end")),
        per_layer=harness.fill_metrics(
            result["per_layer"], harness.metric_units(decl, "per_layer")))
    return result


def print_workload(result: dict, trace: int) -> None:
    flags = " NOISY" if result["noisy"] else ""
    print(f"== {result['workload']}: attempted {result['attempted']}, "
          f"failed {result['failed']}{flags}")
    for line in result["failures"][:5]:
        print(f"   FAILED {line}")
    shown = result["per_layer" if trace else "end_to_end"]
    for name, m in shown.items():
        if trace and m["value"] == 0.0:
            continue  # a layer this workload never enters
        print(f"   {name:<36} {m['value']:>16.6g} {m['unit']}")


def git_sha() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"],
                             cwd=harness.REPO_ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def parent_main(ns: argparse.Namespace) -> int:
    decl = harness.load_declaration()
    if not (harness.REPO_ROOT / "src" / "repro").is_dir():
        print("benchmarks/perf: src/repro is missing - nothing to measure",
              file=sys.stderr)
        return 2
    names = [w["name"] for w in decl["workloads"]]
    if ns.workload is not None:
        if ns.workload not in names:
            print(f"unknown workload {ns.workload!r}; one of {names}",
                  file=sys.stderr)
            return 2
        names = [ns.workload]
    import numpy
    record = {
        "schema": 1, "label": ns.label, "git_sha": git_sha(),
        "seed": ns.seed, "seconds": ns.seconds, "trace": ns.trace,
        "quick": ns.quick, "unix_time": time.time(),
        "host": {"usable_cores": harness.usable_cores(),
                 "python": platform.python_version(),
                 "numpy": numpy.__version__,
                 "platform": platform.platform()},
        "workloads": {},
    }
    for name in names:
        result = run_workload(name, ns, decl)
        record["workloads"][name] = result
        print_workload(result, ns.trace)
    record["noisy"] = any(r["noisy"] for r in record["workloads"].values())

    out = Path(ns.out) if ns.out else harness.RESULTS_DIR / "last.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
        f.write("\n")

    kind = "per_layer" if ns.trace else "end_to_end"
    results = list(record["workloads"].values())
    metrics = (results[0][kind] if len(results) == 1
               else {r["workload"]: r[kind] for r in results})
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


# -- expected counts ---------------------------------------------------------

def repin() -> int:
    """Derive every expected count from an engine other than the one the
    case times; refuse to write when the two disagree."""
    sys.path.insert(0, str(harness.REPO_ROOT / "src"))
    from repro.query import get_query
    import batch
    import serve_open
    cases = {c.id: c for w in batch.WORKLOAD_CASES.values() for c in w}
    for pattern in serve_open.PATTERNS:
        case = batch.Case(pattern, serve_open.DATASET, 1)
        cases.setdefault(case.id, case)
    counts = {}
    for cid, case in sorted(cases.items()):
        graph = harness.load_graph(case.dataset, case.scale)
        cluster = harness.make_cluster(graph, seed=1)
        other = "BiGJoin" if case.engine == "HUGE" else "HUGE"
        query = get_query(case.query)
        timed = batch.make_engine(case.engine, cluster).run(query).count
        derived = batch.make_engine(other, cluster).run(query).count
        print(f"{cid:<24} {case.engine}={timed} {other}={derived}")
        if timed != derived:
            print("engines disagree - expected.json not written",
                  file=sys.stderr)
            return 1
        counts[cid] = derived
    with open(harness.EXPECTED_PATH, "w", encoding="utf-8") as f:
        json.dump({"dataset_seed": harness.DATASET_SEED,
                   "derived_by": "run.py --repin: BiGJoin for HUGE cases, "
                                 "HUGE for baseline cases",
                   "counts": counts}, f, indent=1)
        f.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--out", help="record file (default "
                        "benchmarks/perf/results/last.json)")
    parser.add_argument("--label", default="run")
    parser.add_argument("--quick", action="store_true",
                        help="shrunken run; the record is never comparable")
    parser.add_argument("--repin", action="store_true",
                        help="rewrite expected.json")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    ns = parser.parse_args(argv)
    if ns.repin:
        return repin()
    if ns.seconds is None:
        ns.seconds = 2.0 if ns.quick else float(
            harness.load_declaration()["run_seconds"])
    return child_main(ns) if ns.child else parent_main(ns)


if __name__ == "__main__":
    sys.exit(main())
