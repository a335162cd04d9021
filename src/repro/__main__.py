"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``query``
    Enumerate a pattern on a named dataset (or an edge-list file)::

        python -m repro query --data LJ --pattern q1 --machines 10
        python -m repro query --data graph.txt --cypher \\
            "MATCH (a)--(b)--(c), (c)--(a) RETURN count(*)"

``plan``
    Show the Algorithm-1 execution plan for a pattern on a dataset.

``explain``
    Show the plan, or — with ``--analyze`` — run it under tracing and
    annotate every plan node with actual tuples/time/bytes/hit-rate next
    to the optimiser's estimates::

        python -m repro explain --data GO --pattern q1 --analyze

``datasets``
    List the built-in stand-in datasets (Table 3).

``motifs``
    Count every k-vertex motif on a dataset (engine-based, non-induced
    embeddings).

``census``
    Size-k motif census: count *all* connected k-vertex sets per
    isomorphism class of their induced subgraph, from one engine count
    per class::

        python -m repro census --data GO --k 4 --json

``conformance``
    Differential conformance harness (delegates to
    ``python -m repro.conformance``)::

        python -m repro conformance run --cases 100 --seed 1
        python -m repro conformance replay artifact.json

``serve``
    Start the concurrent query service and drive a seeded mixed-priority
    workload through it (admission control, plan caching, worker-pool
    execution, optional injected crashes), then print the service
    metrics; ``--verify`` re-checks every query against a solo run::

        python -m repro serve --data GO --queries 32 --service-workers 4 \\
            --crash 2 --verify --trace serve.json

    ``--metrics FILE`` writes the Prometheus text exposition of the
    service's metrics registry; ``--smoke`` caps the workload for CI and
    forces ``--verify``.

``metrics``
    Validate a Prometheus text exposition file (as ``serve --metrics``
    or ``stream --metrics`` write it)::

        python -m repro metrics --check metrics.prom
"""

from __future__ import annotations

import argparse
import sys
import time

from .cluster.cluster import Cluster
from .core.engine import EngineConfig, HugeEngine
from .graph.datasets import DATASETS, load_dataset
from .graph.io import load_edge_list
from .query.pattern import QUERIES, get_query


def _load_graph(spec: str, scale: float):
    if spec.upper() in DATASETS:
        return load_dataset(spec, scale=scale)
    return load_edge_list(spec)


def _write_exposition(registry, dest: str | None) -> None:
    """Write Prometheus text exposition to a file (or stdout for ``-``);
    no ``--metrics`` destination, nothing to write."""
    if not dest:
        return
    text = registry.expose()
    if dest == "-":
        sys.stdout.write(text)
    else:
        with open(dest, "w", encoding="utf-8") as fh:
            fh.write(text)
        # stderr so that --json stdout stays machine-parseable
        print(f"metrics exposition written to {dest} "
              f"({len(registry.families())} families)", file=sys.stderr)


def _cmd_query(args: argparse.Namespace) -> int:
    if args.cypher and (args.trace or args.json):
        print("error: --trace/--json are not supported with --cypher",
              file=sys.stderr)
        return 2
    graph = _load_graph(args.data, args.scale)
    cluster = Cluster(graph, num_machines=args.machines,
                      workers_per_machine=args.workers, seed=args.seed)
    if not args.json:
        print(f"data graph: {graph}")
    if args.cypher:
        from .apps.cypher import execute_cypher

        result = execute_cypher(cluster, args.cypher)
        print(f"matches: {result.count}")
        if result.rows is not None:
            for row in result.rows[: args.limit]:
                print("  " + ", ".join(
                    f"{c}={v}" for c, v in zip(result.columns, row)))
        report = result.report
    else:
        engine = HugeEngine(cluster,
                            EngineConfig(collect_results=args.show > 0))
        tracer = None
        if args.trace:
            from .obs.trace import Tracer

            tracer = Tracer()
        res = engine.run(get_query(args.pattern), tracer=tracer)
        if args.trace:
            res.trace.save(args.trace)
        if args.json:
            import json

            print(json.dumps(res.as_dict(), indent=2))
            return 0
        print(f"matches: {res.count}")
        if args.show:
            for match in (res.matches or [])[: args.show]:
                print(f"  {match}")
        if args.trace:
            cov = res.trace.coverage(res.report.total_time_s,
                                     res.report.per_machine_time_s)
            print(f"trace: {len(res.trace.spans)} spans -> {args.trace} "
                  f"(covering {cov:.1%} of total time; load in "
                  f"https://ui.perfetto.dev)")
        report = res.report
    print(f"simulated time: {report.total_time_s:.4f}s "
          f"(compute {report.compute_time_s:.4f}s, "
          f"comm {report.comm_time_s:.4f}s)")
    print(f"transferred: {report.bytes_transferred / 1e6:.2f} MB; "
          f"peak machine memory: {report.peak_memory_bytes / 1e6:.2f} MB")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    graph = _load_graph(args.data, args.scale)
    cluster = Cluster(graph, num_machines=args.machines,
                      workers_per_machine=args.workers, seed=args.seed)
    engine = HugeEngine(cluster)
    query = get_query(args.pattern)
    if not args.analyze:
        print(engine.plan(query).describe())
        return 0
    from .obs.analyze import analyze

    report = analyze(engine, query)
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    if args.trace:
        report.result.trace.save(args.trace)
        if not args.json:
            print(f"trace written to {args.trace}")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    print(f"{'name':5s} {'family':7s} {'paper |V|':>13s} {'paper |E|':>15s} "
          f"{'stand-in |V|':>13s} {'stand-in |E|':>13s}")
    for spec in DATASETS.values():
        g = spec.load()
        print(f"{spec.name:5s} {spec.family:7s} {spec.paper_vertices:>13,} "
              f"{spec.paper_edges:>15,} {g.num_vertices:>13,} "
              f"{g.num_edges:>13,}")
    return 0


def _cmd_motifs(args: argparse.Namespace) -> int:
    from .apps.mining import motif_counts

    graph = _load_graph(args.data, args.scale)
    cluster = Cluster(graph, num_machines=args.machines, seed=args.seed)
    for name, count in sorted(motif_counts(cluster, args.k).items()):
        print(f"{name:14s} {count:>14,}")
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    from .apps.mining import motif_census

    graph = _load_graph(args.data, args.scale)
    cluster = Cluster(graph, num_machines=args.machines,
                      workers_per_machine=args.workers, seed=args.seed)
    res = motif_census(cluster, args.k)
    if args.json:
        import json

        print(json.dumps(res.as_dict(), indent=2))
        return 0
    print(f"data graph: {graph}")
    print(f"size-{args.k} census: {res.total_subgraphs:,} connected "
          f"subgraphs in {len(res.counts)} classes")
    for name in sorted(res.counts):
        print(f"{name:14s} {res.counts[name]:>14,}   "
              f"key={res.class_keys[name]}")
    report = res.report
    print(f"simulated time: {report.total_time_s:.4f}s "
          f"(compute {report.compute_time_s:.4f}s, "
          f"comm {report.comm_time_s:.4f}s); "
          f"transferred: {report.bytes_transferred / 1e6:.2f} MB")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import LoadDriver, WorkloadSpec

    if args.smoke:
        # reduced workload for CI: few queries, small pool, verification on
        args.queries = min(args.queries, 8)
        args.service_workers = min(args.service_workers, 2)
        args.verify = True
    graph = _load_graph(args.data, args.scale)
    spec = WorkloadSpec(
        num_queries=args.queries, dataset=args.data.upper(),
        patterns=tuple(args.patterns.split(",")),
        num_machines=args.machines, workers_per_machine=args.workers,
        seed=args.seed, relabel_fraction=args.relabel_fraction,
        deadline_fraction=args.deadline_fraction, deadline_s=args.deadline,
        tenants=tuple(args.tenants.split(",")), crashes=args.crash,
        zipf_s=args.zipf)
    driver = LoadDriver(
        graph, spec, num_workers=args.service_workers,
        memory_budget_bytes=(args.budget_mb * 1e6 if args.budget_mb
                             else float("inf")),
        tenant_max_inflight=args.tenant_cap, trace=bool(args.trace),
        sharing=args.share, pool=args.pool)
    report = driver.run(verify=args.verify)
    if args.trace and driver.service and driver.service.tracer:
        driver.service.tracer.save(
            args.trace, meta={"workload": f"{spec.num_queries}q "
                              f"seed={spec.seed} {spec.dataset}"})
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
        _write_exposition(driver.service.metrics, args.metrics)
        return 0 if (not args.verify or report.verified) else 1

    svc = report.service
    print(f"data graph: {graph}")
    print(f"workload: {spec.num_queries} queries on {args.service_workers} "
          f"{args.pool} service workers, seed {spec.seed}")
    by = ", ".join(f"{k}={v}" for k, v in sorted(
        report.counts_by_status.items()))
    print(f"outcomes: {by}")
    print(f"wall time: {report.wall_s:.3f}s  "
          f"({svc['throughput_qps']:.1f} completed q/s)")
    lat = svc["latency"]
    print(f"latency: p50 {lat['p50_s'] * 1e3:.1f}ms  "
          f"p95 {lat['p95_s'] * 1e3:.1f}ms  p99 {lat['p99_s'] * 1e3:.1f}ms")
    pc = svc["plan_cache"]
    print(f"plan cache: {pc['hits']} hits / {pc['misses']} misses "
          f"(hit rate {pc['hit_rate']:.1%})")
    if args.share:
        print(f"sharing: {svc['shared_groups']} groups covering "
              f"{svc['shared_requests']} requests")
    print(f"admission: peak reserved "
          f"{svc['admission']['peak_reserved_bytes'] / 1e6:.2f} MB, "
          f"{svc['rejected']} rejected, ledger after drain "
          f"{svc['reserved_bytes']:.0f} B")
    if args.crash:
        print(f"faults: {svc['worker_crashes']} worker crashes, "
              f"{svc['retries']} retries, "
              f"{svc['delivery_violations']} delivery violations")
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    _write_exposition(driver.service.metrics, args.metrics)
    if args.verify:
        if report.verified:
            print("verify: all completed queries bit-identical to solo runs")
        else:
            print("verify: FAILED")
            for msg in report.verify_failures:
                print(f"  {msg}")
            return 1
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .graph import temporal_edge_stream
    from .serve import QueryRequest, QueryService, QueryStatus, \
        SubscribeRequest

    if args.smoke:
        # reduced stream for CI: few updates, small pool, verification on
        args.updates = min(args.updates, 20)
        args.service_workers = min(args.service_workers, 2)
        args.verify = True
    graph = _load_graph(args.data, args.scale)
    stream = temporal_edge_stream(
        graph, args.updates, batch_size=args.batch,
        delete_fraction=args.delete_fraction, seed=args.seed,
        skew=args.skew)
    dataset = args.data.upper()
    patterns = tuple(args.patterns.split(","))

    svc = QueryService(datasets={dataset: stream.base},
                       num_workers=args.service_workers,
                       trace=bool(args.trace)).start()
    try:
        t0 = time.perf_counter()
        subs = [svc.subscribe(SubscribeRequest(pattern=p, dataset=dataset,
                                               bootstrap=True))
                for p in patterns]
        boots = {p: s.poll(timeout=60.0) for p, s in zip(patterns, subs)}
        reports = [svc.apply_updates(dataset, b.inserts, b.deletes)
                   for b in stream.batches]
        delivered = {p: s.drain() for p, s in zip(patterns, subs)}
        wall = time.perf_counter() - t0

        verified = True
        verify_rows = []
        if args.verify:
            # from-scratch check through an independent path: a batch
            # engine query against the final snapshot must agree with
            # every subscription's accumulated standing count
            for p, s in zip(patterns, subs):
                out = svc.submit(QueryRequest(pattern=p, dataset=dataset)
                                 ).result(timeout=300.0)
                ok = (out.status is QueryStatus.COMPLETED
                      and out.count == s.count
                      and s.delivery_violations == 0
                      and len(delivered[p]) == len(reports))
                verified &= ok
                verify_rows.append({"pattern": p, "incremental": s.count,
                                    "scratch": out.count, "ok": ok})
        for s in subs:
            svc.unsubscribe(s)
        stats = svc.stream_stats()
    finally:
        if args.trace and svc.tracer:
            svc.tracer.save(args.trace,
                            meta={"stream": f"{args.updates}u "
                                  f"seed={args.seed} {dataset}"})
        svc.stop()

    if args.json:
        import json

        payload = {
            "dataset": dataset,
            "base_edges": stream.base.num_edges,
            "final_edges": stream.final_graph().num_edges,
            "updates": stream.num_updates,
            "update_batches": len(stream.batches),
            "patterns": list(patterns),
            "wall_s": round(wall, 6),
            "bootstrap_counts": {p: (len(b.additions) if b else None)
                                 for p, b in boots.items()},
            "final_counts": {p: s.count for p, s in zip(patterns, subs)},
            "stream_stats": stats,
            "reports": [r.as_dict() for r in reports],
        }
        if args.verify:
            payload["verified"] = verified
            payload["verify"] = verify_rows
        print(json.dumps(payload, indent=2))
        _write_exposition(svc.metrics, args.metrics)
        return 0 if (not args.verify or verified) else 1

    print(f"data graph: {graph}")
    print(f"stream: {stream.num_updates} updates in {len(stream.batches)} "
          f"batches (base |E|={stream.base.num_edges}, "
          f"final |E|={stream.final_graph().num_edges}, seed {args.seed}"
          + (f", skew {args.skew:g}" if args.skew else "") + ")")
    for p, s in zip(patterns, subs):
        boot = boots[p]
        print(f"{p:10s} bootstrap {len(boot.additions) if boot else 0:>8,}"
              f"  final {s.count:>8,}  "
              f"(+{sum(len(b.additions) for b in delivered[p]):,} / "
              f"-{sum(len(b.retractions) for b in delivered[p]):,} over "
              f"{len(delivered[p])} batches)")
    lat = [b.latency_s for p in patterns for b in delivered[p]]
    if lat:
        lat.sort()
        print(f"delta latency: p50 {lat[len(lat) // 2] * 1e3:.2f}ms  "
              f"max {lat[-1] * 1e3:.2f}ms  over {len(lat)} deliveries")
    print(f"wall time: {wall:.3f}s  ({stats['stream_updates']} updates, "
          f"{stats['stream_additions']:,} additions, "
          f"{stats['stream_retractions']:,} retractions)")
    if args.trace:
        print(f"trace written to {args.trace} "
              f"(load in https://ui.perfetto.dev)")
    _write_exposition(svc.metrics, args.metrics)
    if args.verify:
        if verified:
            print("verify: incremental counts bit-identical to "
                  "from-scratch enumeration on the final graph")
        else:
            print("verify: FAILED")
            for row in verify_rows:
                if not row["ok"]:
                    print(f"  {row['pattern']}: incremental "
                          f"{row['incremental']} != scratch "
                          f"{row['scratch']}")
            return 1
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from .obs import check_exposition

    if args.check == "-":
        text = sys.stdin.read()
    else:
        with open(args.check, encoding="utf-8") as fh:
            text = fh.read()
    errors = check_exposition(text)
    if errors:
        print(f"exposition INVALID ({len(errors)} errors):")
        for err in errors:
            print(f"  {err}")
        return 1
    samples = sum(1 for line in text.splitlines()
                  if line and not line.startswith("#"))
    families = sum(1 for line in text.splitlines()
                   if line.startswith("# TYPE "))
    print(f"exposition ok: {families} families, {samples} samples")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="HUGE subgraph enumeration (SIGMOD 2021 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--data", required=True,
                       help="dataset name (GO/LJ/OR/UK/EU/FS/CW) or an "
                            "edge-list file")
        p.add_argument("--machines", type=int, default=4)
        p.add_argument("--workers", type=int, default=4)
        p.add_argument("--scale", type=float, default=1.0)
        p.add_argument("--seed", type=int, default=0)

    q = sub.add_parser("query", help="enumerate a pattern")
    common(q)
    q.add_argument("--pattern", default="triangle",
                   choices=sorted(QUERIES),
                   help="benchmark pattern name")
    q.add_argument("--cypher", help="Cypher MATCH … RETURN … query "
                                    "(overrides --pattern)")
    q.add_argument("--show", type=int, default=0,
                   help="print the first N matches")
    q.add_argument("--limit", type=int, default=10,
                   help="max rows to print for Cypher projections")
    q.add_argument("--trace", metavar="FILE",
                   help="record a span trace and write Chrome trace_event "
                        "JSON (open in Perfetto) to FILE")
    q.add_argument("--json", action="store_true",
                   help="print the result as JSON instead of text")
    q.set_defaults(func=_cmd_query)

    p = sub.add_parser("plan", help="show the Algorithm-1 plan")
    common(p)
    p.add_argument("--pattern", default="q1", choices=sorted(QUERIES))
    p.set_defaults(func=_cmd_explain, analyze=False)

    e = sub.add_parser("explain",
                       help="show the plan; with --analyze, run it traced "
                            "and annotate nodes with actuals")
    common(e)
    e.add_argument("--pattern", default="q1", choices=sorted(QUERIES))
    e.add_argument("--analyze", action="store_true",
                   help="execute the plan and report per-node actuals "
                        "next to the optimiser's estimates")
    e.add_argument("--trace", metavar="FILE",
                   help="with --analyze, also write the Chrome trace")
    e.add_argument("--json", action="store_true",
                   help="with --analyze, print the per-node estimate / "
                        "actual / q-error report as JSON")
    e.set_defaults(func=_cmd_explain)

    d = sub.add_parser("datasets", help="list stand-in datasets")
    d.set_defaults(func=_cmd_datasets)

    m = sub.add_parser("motifs", help="count k-vertex motifs")
    common(m)
    m.add_argument("--k", type=int, default=3, choices=(2, 3, 4, 5))
    m.set_defaults(func=_cmd_motifs)

    n = sub.add_parser("census",
                       help="size-k motif census (all connected "
                            "k-subgraphs per isomorphism class)")
    common(n)
    n.add_argument("--k", type=int, default=3, choices=(2, 3, 4, 5),
                   help="census subgraph size")
    n.add_argument("--json", action="store_true",
                   help="print the census result as JSON instead of text")
    n.set_defaults(func=_cmd_census)

    s = sub.add_parser("serve",
                       help="run the concurrent query service under a "
                            "seeded workload")
    common(s)
    s.add_argument("--queries", type=int, default=32,
                   help="number of requests in the workload")
    s.add_argument("--patterns", default=",".join(
        ("triangle", "q1", "q2", "q3", "q4")),
                   help="comma-separated benchmark pattern names to cycle")
    s.add_argument("--pool", choices=("thread", "process"), default="thread",
                   help="worker backend: GIL-bound threads or true "
                        "multi-core processes over the shared-memory graph")
    s.add_argument("--service-workers", type=int, default=4,
                   help="worker threads in the service pool")
    s.add_argument("--budget-mb", type=float, default=None,
                   help="global admission memory budget in MB "
                        "(default: unlimited)")
    s.add_argument("--relabel-fraction", type=float, default=0.5,
                   help="fraction of requests submitted as isomorphic "
                        "relabellings (plan-cache exercise)")
    s.add_argument("--deadline-fraction", type=float, default=0.0,
                   help="fraction of requests carrying a deadline")
    s.add_argument("--deadline", type=float, default=5.0,
                   help="deadline in seconds for deadline-carrying requests")
    s.add_argument("--tenants", default="default",
                   help="comma-separated tenant names to cycle")
    s.add_argument("--tenant-cap", type=int, default=None,
                   help="max in-flight queries per tenant")
    s.add_argument("--crash", type=int, default=0,
                   help="inject N worker crashes (recovered by retry)")
    s.add_argument("--share", action="store_true",
                   help="enable cross-query work sharing (shared-prefix "
                        "batching of concurrently queued requests)")
    s.add_argument("--zipf", type=float, default=0.0,
                   help="Zipf skew for pattern choice (0 = round-robin mix)")
    s.add_argument("--verify", action="store_true",
                   help="check each served query against a solo run")
    s.add_argument("--trace", metavar="FILE",
                   help="write a wall-clock Chrome trace of the service run")
    s.add_argument("--json", action="store_true",
                   help="print the full driver report as JSON")
    s.add_argument("--metrics", metavar="FILE",
                   help="write the Prometheus exposition of the service's "
                        "metrics registry to FILE ('-' for stdout)")
    s.add_argument("--smoke", action="store_true",
                   help="CI smoke mode: cap the workload at 8 queries / 2 "
                        "workers and force --verify")
    s.set_defaults(func=_cmd_serve)

    st = sub.add_parser("stream",
                        help="replay a seeded temporal update stream "
                             "against the service with standing "
                             "subscriptions")
    common(st)
    st.add_argument("--updates", type=int, default=40,
                    help="number of edge updates in the temporal stream")
    st.add_argument("--batch", type=int, default=8,
                    help="updates applied per batch")
    st.add_argument("--delete-fraction", type=float, default=0.3,
                    help="fraction of updates that delete a present edge")
    st.add_argument("--skew", type=float, default=0.0,
                    help="degree-bias exponent of the held-out edges "
                         "(hub-heavy update stream when > 0)")
    st.add_argument("--patterns", default="triangle,q1",
                    help="comma-separated standing patterns to subscribe")
    st.add_argument("--service-workers", type=int, default=4,
                    help="worker threads in the service pool")
    st.add_argument("--verify", action="store_true",
                    help="check every accumulated count against a "
                         "from-scratch engine run on the final snapshot")
    st.add_argument("--trace", metavar="FILE",
                    help="write a wall-clock Chrome trace of the run")
    st.add_argument("--json", action="store_true",
                    help="print the full stream report as JSON")
    st.add_argument("--metrics", metavar="FILE",
                    help="write the Prometheus exposition of the service's "
                         "metrics registry to FILE ('-' for stdout)")
    st.add_argument("--smoke", action="store_true",
                    help="CI smoke mode: cap at 20 updates / 2 workers and "
                         "force --verify")
    st.set_defaults(func=_cmd_stream)

    mt = sub.add_parser("metrics",
                        help="validate a Prometheus text exposition file")
    mt.add_argument("--check", metavar="FILE", required=True,
                    help="the exposition to validate ('-' for stdin); "
                         "exits 1 on format errors")
    mt.set_defaults(func=_cmd_metrics)

    c = sub.add_parser("conformance",
                       help="differential conformance harness "
                            "(python -m repro.conformance)")
    c.add_argument("rest", nargs=argparse.REMAINDER,
                   help="arguments forwarded to repro.conformance")
    c.set_defaults(func=None)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "conformance":
        from .conformance import main as conformance_main

        return conformance_main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
