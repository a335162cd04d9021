"""Conformance CLI: ``python -m repro.conformance <command>``.

Commands
--------
``run``
    Fuzz the engine matrix with randomized workloads::

        python -m repro.conformance run --cases 100 --seed 1
        python -m repro.conformance run --cases 5000 --matrix full \\
            --artifact-dir conformance-artifacts   # long soak

    Exits non-zero if any oracle is violated — each failing case is shrunk
    to a minimal reproducer and written as a JSON artifact — or if
    ``--max-seconds`` ended the run before ``--cases`` cases ran.

``replay``
    Re-execute a failure artifact::

        python -m repro.conformance replay conformance-artifacts/x.json

    Exits 1 while the failure reproduces, 0 once it is fixed.

``matrix``
    List the engine configurations of the smoke/full matrices.
"""

from __future__ import annotations

import argparse
import sys

from .testing.configs import (baseline_matrix, census_matrix,
                              default_matrix, delta_matrix, smoke_matrix)
from .testing.harness import ConformanceHarness, load_artifact, run_case

__all__ = ["main", "build_parser"]

_MATRICES = {"full": default_matrix, "smoke": smoke_matrix,
             "baseline": baseline_matrix, "census": census_matrix,
             "delta": delta_matrix}


def _matrix(name: str):
    return _MATRICES[name]()


def _cmd_run(args: argparse.Namespace) -> int:
    harness = ConformanceHarness(
        specs=_matrix(args.matrix),
        seed=args.seed,
        max_vertices=args.max_vertices,
        shrink=not args.no_shrink,
        artifact_dir=args.artifact_dir,
    )
    progress = print if args.verbose else None
    report = harness.run(num_cases=args.cases,
                         max_seconds=args.max_seconds,
                         stop_on_failure=not args.keep_going,
                         progress=progress)
    for failure in report.failures:
        print("conformance failure:")
        print(failure.describe())
    print(report.summary())
    return 0 if report.ok else 1


def _cmd_replay(args: argparse.Namespace) -> int:
    try:
        workload, spec, recorded = load_artifact(args.artifact)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"error: cannot load artifact {args.artifact!r}: {exc}",
              file=sys.stderr)
        return 2
    print(f"replaying {spec.name} on {workload.describe()}")
    if recorded:
        print("recorded violations:")
        for f in recorded:
            print(f"  {f}")
    outcome = run_case(workload, spec)
    if outcome.failures:
        print("reproduced violations:")
        for f in outcome.failures:
            print(f"  {f}")
        return 1
    print("no violation reproduced — the recorded failure appears fixed")
    return 0


def _cmd_matrix(args: argparse.Namespace) -> int:
    for spec in _matrix(args.matrix):
        if spec.is_huge:
            print(f"{spec.name:22s} huge  plan={spec.plan:9s} "
                  f"cache={spec.cache_variant:9s} stealing={spec.stealing:12s} "
                  f"queue={spec.output_queue_capacity:g} "
                  f"batch={spec.batch_size}")
        elif spec.is_census:
            print(f"{spec.name:22s} census  k={spec.census_k}")
        elif spec.is_delta:
            print(f"{spec.name:22s} delta  schedule={spec.delta_schedule} "
                  f"batches={spec.delta_batches}")
        else:
            print(f"{spec.name:22s} {spec.engine}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro.conformance`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.conformance",
        description="differential conformance harness for the HUGE "
                    "reproduction (engine-matrix fuzzing with invariant "
                    "oracles)")
    sub = parser.add_subparsers(dest="command", required=True)

    r = sub.add_parser("run", help="fuzz the engine matrix")
    r.add_argument("--cases", type=int, default=100,
                   help="minimum workload × config cases to run")
    r.add_argument("--seed", type=int, default=0,
                   help="base seed of the deterministic workload stream")
    r.add_argument("--matrix",
                   choices=("smoke", "full", "baseline", "census", "delta"),
                   default="smoke",
                   help="engine matrix to fan each workload across "
                        "(baseline: the four baseline systems + HUGE's "
                        "plug-in replicas of their plans; census: the "
                        "motif-census family at k=3..5; delta: the "
                        "incremental streaming-update family across "
                        "insert/delete/mixed schedules)")
    r.add_argument("--max-vertices", type=int, default=14,
                   help="data-graph size cap")
    r.add_argument("--max-seconds", type=float, default=None,
                   help="stop starting new workloads after this wall time; "
                        "a run cut short of --cases this way fails")
    r.add_argument("--artifact-dir", default="conformance-artifacts",
                   help="directory for replayable failure artifacts")
    r.add_argument("--no-shrink", action="store_true",
                   help="report failures without minimising them")
    r.add_argument("--keep-going", action="store_true",
                   help="collect every failure instead of stopping at the "
                        "first")
    r.add_argument("--verbose", action="store_true",
                   help="print per-workload progress")
    r.set_defaults(func=_cmd_run)

    p = sub.add_parser("replay", help="re-execute a failure artifact")
    p.add_argument("artifact", help="path to a JSON artifact written by "
                                    "`run`")
    p.set_defaults(func=_cmd_replay)

    m = sub.add_parser("matrix", help="list the engine matrix")
    m.add_argument("--matrix",
                   choices=("smoke", "full", "baseline", "census", "delta"),
                   default="full")
    m.set_defaults(func=_cmd_matrix)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
