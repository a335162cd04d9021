"""``stream-updates``: the write path beside the read path.

Standing ``triangle`` and ``q1`` subscriptions on one ``QueryService``;
a seeded ``temporal_edge_stream`` of fixed-size batches is replayed
through ``service.apply_updates`` on a small graph and on one three times
its size.  Closed loop, one client: the next batch is sent only after
every subscription's delta was polled.  On the large graph every fourth
batch is followed by one ``triangle`` count query on the just-updated
dataset.
"""

from __future__ import annotations

import time

import harness

PATTERNS = ("triangle", "q1")
# three times the edges; on LJ@4 one hub-to-hub update sets a resident-set
# peak that differs by 40 % from seed to seed
SMALL, LARGE = ("LJ", 1), ("LJ", 3)
BATCH_EDGES = 8
DELETE_FRACTION = 0.35
SKEW = 1.5
READ_EVERY = 4
BATCHES_PER_SECOND = 4  # batches replayed on each graph per --seconds


class StreamUpdatesWorkload:
    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.batches = max(4, round(BATCHES_PER_SECOND * seconds))
        self.timings: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    # -- seeded inputs ------------------------------------------------------

    def build_stream(self, graph):
        from repro.graph import temporal_edge_stream
        return temporal_edge_stream(
            graph, self.batches * BATCH_EDGES, batch_size=BATCH_EDGES,
            delete_fraction=DELETE_FRACTION, seed=self.seed, skew=SKEW)

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        from repro.serve import QueryService
        from repro.stream import SubscribeRequest
        self.streams, self.subs = {}, {}
        for name, scale in (SMALL, LARGE):
            key = harness.dataset_key(name, scale)
            graph = harness.load_graph(name, scale, self.timings)
            self.streams[key] = self.build_stream(graph)
        self.service = QueryService(
            datasets={k: s.base for k, s in self.streams.items()},
            num_workers=2)
        self.service.start()
        for key in self.streams:
            self.subs[key] = [
                self.service.subscribe(SubscribeRequest(p, key))
                for p in PATTERNS]

    # -- replay -------------------------------------------------------------

    def replay(self, key: str, reads: bool, host, spans) -> dict:
        from repro.serve import QueryRequest, QueryStatus
        subs = self.subs[key]
        update_s, read_s, reports, read_checks = [], [], [], []
        for i, batch in enumerate(self.streams[key].batches):
            bid = f"{key}/b{i}"
            if i % READ_EVERY == 0:
                host.probe()
            t0 = time.perf_counter()
            report = self.service.apply_updates(key, batch.inserts,
                                                batch.deletes, timeout=60)
            t1 = time.perf_counter()
            delivered = [sub.poll(timeout=30) for sub in subs]
            t2 = time.perf_counter()
            update_s.append(t2 - t0)
            reports.append(report)
            for sub, got in zip(subs, delivered):
                self.attempted += 1
                if got is None or got.error or report.timed_out:
                    self.failures.append(
                        f"{bid} {sub.pattern.name}: "
                        f"{'missing' if got is None else got.error}")
            if spans is not None:
                root = spans.add("update", t0, t2, None, bid)
                call = spans.add("serve.apply_updates", t0, t1, root, bid)
                for got in delivered:
                    if got is not None:
                        spans.add("stream.delta_task", t1 - got.latency_s,
                                  t1, call, bid, inferred=True)
                spans.add("poll", t1, t2, root, bid)
            if reads and i % READ_EVERY == READ_EVERY - 1:
                t0 = time.perf_counter()
                out = self.service.submit(QueryRequest(
                    "triangle", key, num_machines=harness.MACHINES,
                    workers_per_machine=harness.WORKERS)).result(timeout=60)
                t1 = time.perf_counter()
                read_s.append(t1 - t0)
                self.attempted += 1
                if out.status is not QueryStatus.COMPLETED:
                    self.failures.append(f"{bid} read: {out.status.value}")
                # standing count is relative to the base snapshot
                read_checks.append((bid, out.count, subs[0].count))
                if spans is not None:
                    spans.add("read_after_write", t0, t1, None, bid)
        return {"update_s": update_s, "read_s": read_s, "reports": reports,
                "read_checks": read_checks}

    # -- verification (untimed) ---------------------------------------------

    def count(self, graph, pattern: str) -> int:
        from repro.core import HugeEngine
        from repro.query import get_query
        cluster = harness.make_cluster(graph, self.seed, machines=1)
        return HugeEngine(cluster).run(get_query(pattern)).count

    def verify(self, key: str, patterns, replay: dict) -> None:
        """A subscription's standing count must equal the from-scratch
        count on the final snapshot (both relative to the base snapshot);
        if not, every one of its deliveries failed."""
        from repro.graph import Graph
        stream = self.streams[key]
        # one CSR build from the folded edge set, not a replay of every batch
        edges = set(stream.base.edges())
        for batch in stream.batches:
            edges.update(batch.inserts)
            edges.difference_update(batch.deletes)
        final = Graph.from_edges(sorted(edges),
                                 num_vertices=stream.base.num_vertices)
        base_counts = {}
        for name, sub in zip(PATTERNS, self.subs[key]):
            if name not in patterns:
                continue
            base_counts[name] = self.count(stream.base, name)
            want = self.count(final, name) - base_counts[name]
            if sub.count != want:
                self.failures.extend(
                    f"{key}/b{i} {name}: standing count {sub.count} != "
                    f"from-scratch {want}" for i in range(len(stream.batches)))
        for bid, read, standing in replay["read_checks"]:
            if read != base_counts["triangle"] + standing:
                self.failures.append(
                    f"{bid} read: {read} triangles != standing "
                    f"{base_counts['triangle'] + standing}")

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, spans: harness.Spans | None) -> dict:
        small_key = harness.dataset_key(*SMALL)
        large_key = harness.dataset_key(*LARGE)
        host = harness.HostSpeed()
        try:
            small = self.replay(small_key, False, host, spans)
            large = self.replay(large_key, True, host, spans)
        finally:
            self.service.stop()
        # q1 on the large graph costs seconds per from-scratch count; the
        # same subscription code is recounted on the small graph
        self.verify(small_key, PATTERNS, small)
        self.verify(large_key, ("triangle",), large)

        tail_q, tail = harness.tail_percentile(large["update_s"])
        edges = sum(len(r.inserted) + len(r.deleted)
                    for r in small["reports"] + large["reports"])
        speed = host.speed()
        q1_large = harness.lower_quartile(large["update_s"]) * speed
        q1_small = harness.lower_quartile(small["update_s"]) * speed
        p50_large = harness.median(large["update_s"])
        p50_small = harness.median(small["update_s"])
        end_to_end = {
            "op_q1_s": q1_large,
            # one batch on each graph, so the small graph counts too
            "throughput_per_s": 2 * BATCH_EDGES / (q1_small + q1_large),
        }
        reports = small["reports"] + large["reports"]
        per_layer = dict(self.timings)
        per_layer.update({
            "op.p50_s": p50_large,
            "op.tail_s": tail,
            "host.speed": speed,
            "stream.update_small_p50_s": p50_small,
            "stream.read_after_write_p50_s": harness.median(large["read_s"]),
            "stream.size_ratio": p50_large / p50_small,
            "stream.delta_task_p50_s": harness.median(
                b.latency_s for r in large["reports"] for b in r.batches),
            "stream.additions": sum(r.additions for r in reports),
            "stream.retractions": sum(r.retractions for r in reports),
            "stream.delta_edges": edges,
        })
        if spans is not None:
            per_layer.update(self.direct_replays(small_key, large_key,
                                                 large["reports"], spans))
        return {"attempted": self.attempted,
                "failed": min(len(self.failures), self.attempted),
                "failures": self.failures, "end_to_end": end_to_end,
                "per_layer": per_layer,
                "samples": {"update_s": large["update_s"],
                            "update_small_s": small["update_s"],
                            "read_after_write_s": large["read_s"],
                            "probe_s": host.took},
                "info": {"op": f"one {BATCH_EDGES}-edge batch on "
                               f"{large_key}, apply_updates call to last "
                               "delta polled: first quartile at the "
                               "reference host speed",
                         "tail": f"p{tail_q} of {len(large['update_s'])} "
                                 "batches",
                         "throughput": "edge updates per second at the "
                                       "first-quartile pace, one batch on "
                                       "each graph",
                         "batches": self.batches}}

    # -- layers timed directly (traced run only) ----------------------------

    def direct_replays(self, small_key: str, large_key: str,
                       large_reports, spans) -> dict:
        """The same batches through each layer's public function, outside
        the service."""
        from repro.core.kernels import edge_composite_index
        from repro.graph import apply_updates
        from repro.query import get_query
        from repro.stream import DeltaEnumerator

        def replay_graph(key: str, with_index: bool, with_delta: bool):
            apply_s, index_s, delta_s = [], [], []
            enums = [DeltaEnumerator(get_query(p)) for p in PATTERNS]
            graph = self.streams[key].base
            for i, batch in enumerate(self.streams[key].batches):
                bid = f"{key}/b{i}"
                t0 = time.perf_counter()
                new, delta = apply_updates(graph, batch.inserts,
                                           batch.deletes)
                t1 = time.perf_counter()
                apply_s.append(t1 - t0)
                spans.add("graph.apply_updates", t0, t1, None, bid)
                if with_index:
                    edge_composite_index(new)
                    t2 = time.perf_counter()
                    index_s.append(t2 - t1)
                    spans.add("kernels.edge_composite_index", t1, t2,
                              None, bid)
                if with_delta:
                    t2 = time.perf_counter()
                    for enum in enums:
                        enum.delta_matches(graph, delta.deleted)
                        enum.delta_matches(new, delta.inserted)
                    t3 = time.perf_counter()
                    delta_s.append(t3 - t2)
                    spans.add("stream.delta_matches", t2, t3, None, bid)
                graph = new
            return apply_s, index_s, delta_s

        small_apply, _, small_delta = replay_graph(small_key, False, True)
        large_apply, large_index, _ = replay_graph(large_key, True, False)
        overhead = [r.wall_s - a - max((b.latency_s for b in r.batches),
                                       default=0.0)
                    for r, a in zip(large_reports, large_apply)]
        return {
            "stream.graph_apply_p50_s": harness.median(large_apply),
            "stream.graph_apply_small_p50_s": harness.median(small_apply),
            "stream.composite_index_s": harness.median(large_index),
            "stream.delta_matches_p50_s": harness.median(small_delta),
            "stream.service_overhead_p50_s": harness.median(overhead),
        }
