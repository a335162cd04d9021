"""``serve-open``: open-loop Poisson arrivals against ``QueryService``.

One generator (this thread) submits each request when it is due; one
collector thread sweeps the outstanding handles every 2 ms.  A request's
latency runs from the time it was *due* to the first sweep that sees it
done, so a stalled generator or service charges the wait to every
request behind it.
"""

from __future__ import annotations

import statistics
import threading
import time

import harness

DATASET = "GO"
PATTERNS = ("triangle", "q1", "q2", "q3")
SWEEP_S = 0.002
LATENCY_LIMIT_S = 0.5
#: latency booked for a request that failed or was refused: it misses
#: every latency limit
FAILED_LATENCY_S = 3600.0

#: one thread worker: two share the GIL, time-slice each other's queries
#: and read 30 % apart from run to run at no more throughput (README,
#: "serve-open"); the traced run measures the two-worker capacity beside it
WORKERS = 1

#: stage name -> (rate in qps, share of ``--seconds`` the arrivals span,
#: slices).  One thread worker drains about 55 qps on the prototype box,
#: so r16 is an operating point (about 0.3 utilisation), r32 sits near
#: the knee and r128 saturates.  A stage runs in equal slices, each
#: drained before the next, with host-speed probes in the gaps (a probe
#: cannot run while requests are in flight); r128 is four bursts so that
#: capacity is a quartile of four drain rates, not one reading.
STAGES = {"r16": (16.0, 0.70, 8), "r32": (32.0, 0.10, 1),
          "r128": (128.0, 0.12, 4)}
UNTRACED_STAGES = ("r16", "r128")
PROBE_REPEAT = 3  # probes per gap
POOL_REQUESTS_PER_SECOND = 4  # burst size of the pool stages per --seconds


def merge_slices(slices: list[dict]) -> dict:
    """One stage from its slices: samples concatenated, worst guards."""
    merged = {key: [x for part in slices for x in part[key]]
              for key in ("requests", "latency", "outcomes", "submit_s")}
    ordered = sorted(merged["latency"])
    merged.update(
        n=len(ordered), ok=all(p["ok"] for p in slices),
        p50=harness.median(ordered), p90=harness.nearest_rank(ordered, 90),
        backlog_end=max(p["backlog_end"] for p in slices),
        late_max=max(p["late_max"] for p in slices),
        capacities=[p["capacity"] for p in slices])
    return merged


def by_pattern(requests, values) -> dict[str, list[float]]:
    groups: dict[str, list[float]] = {}
    for req, value in zip(requests, values):
        groups.setdefault(req.tag.split("#")[0], []).append(value)
    return groups


class ServeOpenWorkload:
    def __init__(self, seed: int, expected: dict[str, int] | None = None):
        self.seed = seed
        self.expected = (harness.load_expected() if expected is None
                         else expected)
        self.timings: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0

    # -- seeded inputs ------------------------------------------------------

    def build_requests(self, count: int, stage_index: int):
        """``count`` requests: round-robin patterns, half of them random
        isomorphic relabellings, two tenants, mixed priorities."""
        from repro.serve import WorkloadSpec
        return WorkloadSpec(
            num_queries=count, dataset=DATASET, patterns=PATTERNS,
            num_machines=harness.MACHINES,
            workers_per_machine=harness.WORKERS,
            seed=self.seed * 1000 + stage_index, relabel_fraction=0.5,
            tenants=("alpha", "beta")).build()

    def stage_inputs(self, stage: str, seconds: float, part: int = 0):
        """Requests and due times of one slice of a stage."""
        rate, share, slices = STAGES[stage]
        count = max(8, round(rate * share * seconds / slices))
        index = 10 * list(STAGES).index(stage) + part
        return (self.build_requests(count, index),
                harness.poisson_schedule(rate, count,
                                         self.seed * 1000 + index))

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        from repro.serve import QueryService
        self.graph = harness.load_graph(DATASET, 1, self.timings)
        self.service = QueryService(datasets={DATASET: self.graph},
                                    num_workers=WORKERS)
        self.service.start()
        self.warm(self.service)

    def warm(self, service) -> None:
        """Plan cache: two rounds of every pattern, one at a time."""
        for req in self.build_requests(2 * len(PATTERNS), 99):
            service.submit(req).result(timeout=60)

    # -- one open-loop stage ------------------------------------------------

    def run_stage(self, service, stage: str, requests, due,
                  spans: harness.Spans | None) -> dict:
        from repro.serve import QueryStatus
        n = len(requests)
        handles = [None] * n
        done_at = [0.0] * n
        submit_s = [0.0] * n
        late = [0.0] * n
        backlog = 0
        t0 = time.perf_counter() + 0.05

        def collect() -> None:
            open_ = set(range(n))
            while open_:
                now = time.perf_counter()
                for i in [i for i in open_ if handles[i] is not None
                          and handles[i].done]:
                    done_at[i] = now
                    open_.discard(i)
                time.sleep(SWEEP_S)

        collector = threading.Thread(target=collect, name="bench-collect")
        collector.start()
        for i, req in enumerate(requests):
            target = t0 + due[i]
            now = time.perf_counter()
            if now < target:
                time.sleep(target - now)
                now = time.perf_counter()
            late[i] = now - target
            if i == n - 1:
                backlog = sum(1 for h in handles[:i] if not h.done)
            t_submit = time.perf_counter()
            handles[i] = service.submit(req)
            submit_s[i] = time.perf_counter() - t_submit
        collector.join(timeout=120)
        if collector.is_alive():
            raise RuntimeError(f"stage {stage}: requests still "
                               "outstanding after 120 s")

        outcomes = [h.result(timeout=1) for h in handles]
        latency = [done_at[i] - (t0 + due[i]) for i in range(n)]
        ok = True
        for i, (req, out) in enumerate(zip(requests, outcomes)):
            self.attempted += 1
            want = self.expected.get(f"{req.tag.split('#')[0]}-{DATASET}")
            if out.status is not QueryStatus.COMPLETED:
                self.failures.append(
                    f"{stage} {req.tag}: {out.status.value} {out.error}")
            elif out.count != want:
                self.failures.append(
                    f"{stage} {req.tag}: count {out.count} != {want}")
            else:
                continue
            ok = False
            latency[i] = FAILED_LATENCY_S
        if spans is not None:
            for i, out in enumerate(outcomes):
                rid = f"{stage}/{requests[i].tag}"
                start = t0 + due[i]
                root = spans.add("request", start, done_at[i], None, rid)
                at = start + late[i]
                spans.add("serve.submit", at, at + submit_s[i], root, rid)
                at += submit_s[i]
                # the outcome carries durations, not timestamps: the
                # three phases are laid end to end after submit
                for name, dur in (("serve.queue_wait", out.queue_wait_s),
                                  ("serve.plan", out.plan_s),
                                  ("serve.execute", out.execute_s)):
                    spans.add(name, at, at + dur, root, rid, inferred=True)
                    at += dur
        return {"ok": ok, "requests": requests, "latency": latency,
                "outcomes": outcomes, "backlog_end": backlog,
                "late_max": max(late), "submit_s": submit_s,
                "capacity": n / (max(done_at) - (t0 + due[0]))}

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, spans: harness.Spans | None) -> dict:
        traced = spans is not None
        host = harness.HostSpeed()
        stages = {}
        try:
            host.probe(PROBE_REPEAT)
            for stage in (STAGES if traced else UNTRACED_STAGES):
                slices = []
                for part in range(STAGES[stage][2]):
                    requests, due = self.stage_inputs(stage, seconds, part)
                    slices.append(self.run_stage(self.service, stage,
                                                 requests, due, spans))
                    host.probe(PROBE_REPEAT)
                stages[stage] = merge_slices(slices)
            stats = self.service.stats()
        finally:
            self.service.stop()
        op, sat = stages["r16"], stages["r128"]
        speed = host.speed()
        # patterns differ fivefold in cost: quartile per pattern, then the
        # mean over patterns
        groups = by_pattern(op["requests"], op["latency"])
        op_q1 = speed * sum(harness.lower_quartile(v)
                            for v in groups.values()) / len(groups)
        tail_q, tail = harness.tail_percentile(op["latency"])
        end_to_end = {
            "op_q1_s": op_q1,
            # the burst that drained fastest-but-one: the quartile of the
            # drain time, as for every other timing
            "throughput_per_s": statistics.quantiles(
                sat["capacities"], n=4)[2] / speed,
        }
        outs = op["outcomes"]
        per_layer = dict(self.timings)
        per_layer.update({
            "op.p50_s": harness.median(op["latency"]),
            "op.tail_s": tail,
            "host.speed": speed,
            "serve.submit_p50_s": harness.median(op["submit_s"]),
            "serve.queue_wait_p50_s": harness.median(
                o.queue_wait_s for o in outs),
            "serve.queue_wait_p90_s": harness.nearest_rank(
                sorted(o.queue_wait_s for o in outs), 90),
            "serve.plan_mean_s": sum(o.plan_s for o in outs) / len(outs),
            "serve.execute_p50_s": harness.median(o.execute_s for o in outs),
            "serve.overhead_p50_s": harness.median(
                lat - o.queue_wait_s - o.plan_s - o.execute_s
                for lat, o in zip(op["latency"], outs)),
            "serve.plancache.hit_rate": stats.plan_cache.get("hit_rate", 0.0),
            "serve.gen_late_max_s": max(s["late_max"]
                                        for s in stages.values()),
            "serve.admission.peak_reserved_mb": stats.admission.get(
                "peak_reserved_bytes", 0.0) / 1e6,
            "serve.retries": stats.retries,
            "serve.delivery_violations": stats.delivery_violations,
            "serve.r128.p90_s": sat["p90"],
            "serve.r128.backlog_end": sat["backlog_end"],
            "sim.time_s": sum(o.result.report.total_time_s for o in outs
                              if o.result is not None),
            "engine.matches": sum(o.count for o in outs),
        })
        if traced:
            mid = stages["r32"]
            per_layer.update({
                "serve.r32.p50_s": mid["p50"],
                "serve.r32.p90_s": mid["p90"],
                "serve.r32.backlog_end": mid["backlog_end"],
                "serve.max_rate_qps": max(
                    [STAGES[name][0] for name, s in stages.items()
                     if s["ok"] and s["backlog_end"] <= 0.1 * s["n"]
                     and s["p90"] <= LATENCY_LIMIT_S], default=0.0),
            })
            per_layer.update(self.pool_stages(seconds, spans))
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures, "end_to_end": end_to_end,
                "per_layer": per_layer,
                "samples": {**{f"{name}.latency_s": s["latency"]
                               for name, s in stages.items()},
                            "probe_s": host.took},
                "info": {"op": "one request at 16 qps, due time to done: "
                               "first quartile per pattern at the "
                               "reference host speed, mean over the "
                               "patterns",
                         "tail": f"p{tail_q} of {op['n']} requests",
                         "throughput": "completions per second of a 128 qps "
                                       "burst: upper quartile of four",
                         "requests": {k: s["n"] for k, s in stages.items()}}}

    # -- other pools (traced run only) --------------------------------------

    def pool_stages(self, seconds: float, spans) -> dict:
        """The same request mix submitted at once to two thread workers
        and to two process workers: what a second worker buys under the
        GIL, and spawn + shared-memory export, drain rate and per-request
        latency of the IPC layer the thread stages never touch."""
        from repro.serve import QueryService
        count = max(8, round(POOL_REQUESTS_PER_SECOND * seconds))
        requests = self.build_requests(count, 7)
        out = {}
        for pool in ("thread", "process"):
            t0 = time.perf_counter()
            service = QueryService(datasets={DATASET: self.graph},
                                   num_workers=2, pool=pool)
            service.start()
            try:
                service.wait_ready(timeout=60)
                t1 = time.perf_counter()
                self.warm(service)
                stage = self.run_stage(service, f"{pool}2", requests,
                                       [0.0] * count, spans)
            finally:
                service.stop()
            if pool == "thread":
                out["serve.w2.capacity_qps"] = stage["capacity"]
            else:
                spans.add("serve.proc.start", t0, t1, None, "proc")
                out.update({"serve.proc.start_s": t1 - t0,
                            "serve.proc.capacity_qps": stage["capacity"],
                            "serve.proc.p50_s": harness.median(
                                stage["latency"])})
        return out
