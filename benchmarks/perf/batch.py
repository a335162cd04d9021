"""The three closed-loop batch workloads: ``enum-pull``, ``plan-bound``
and ``join-push``.

A *case* is one ``Engine(cluster).run(query)`` with a fresh engine (cold
estimator), a *pass* runs every case of the workload once.  Passes
repeat until ``--seconds`` is used up.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

import harness
import layers

@dataclass(frozen=True)
class Case:
    query: str
    dataset: str
    scale: float
    engine: str = "HUGE"

    @property
    def id(self) -> str:
        base = f"{self.query}-{harness.dataset_key(self.dataset, self.scale)}"
        return base if self.engine == "HUGE" else f"{base}-{self.engine}"


# sizes from prototypes on a 2-core box
WORKLOAD_CASES: dict[str, tuple[Case, ...]] = {
    # HUGE-optimal plans that are all pulling WCO joins
    "enum-pull": (Case("triangle", "LJ", 2), Case("q1", "LJ", 1),
                  Case("q2", "LJ", 1), Case("q1", "LJ", 2)),
    # small interactive queries: the sampling estimator and Algorithm 1
    # cost more than running the plan they pick
    "plan-bound": tuple(Case(q, d, 1) for d in ("EU", "GO")
                        for q in ("triangle", "q1", "q2", "q3", "q4")),
    # hash PUSH-JOIN plans and the columnar baselines
    "join-push": (Case("q6", "GO", 1), Case("q8", "GO", 0.7),
                  Case("q1", "LJ", 0.5, "SEED"),
                  Case("q1", "LJ", 0.5, "BiGJoin"),
                  Case("q1", "LJ", 0.5, "RADS")),
}


def all_case_ids() -> list[str]:
    return [c.id for cases in WORKLOAD_CASES.values() for c in cases]


@contextmanager
def profiling(profile: cProfile.Profile | None):
    """Run the block under ``profile`` when there is one."""
    if profile is None:
        yield
        return
    profile.enable()
    try:
        yield
    finally:
        profile.disable()


def make_engine(name: str, cluster):
    from repro.baselines import BigJoinEngine, RadsEngine, SeedEngine
    from repro.core import HugeEngine
    return {"HUGE": HugeEngine, "SEED": SeedEngine,
            "BiGJoin": BigJoinEngine, "RADS": RadsEngine}[name](cluster)


class BatchWorkload:
    def __init__(self, name: str, seed: int, quick: bool,
                 expected: dict[str, int] | None = None):
        self.seed = seed
        self.quick = quick
        self.cases = WORKLOAD_CASES[name]
        self.expected = (harness.load_expected() if expected is None
                         else expected)
        self.timings: dict[str, float] = {}
        self.clusters: dict[tuple[str, float], object] = {}
        self.failures: list[str] = []
        self.attempted = 0

    # -- set-up -------------------------------------------------------------

    def setup(self) -> None:
        from repro.query import get_query
        for case in self.cases:
            key = (case.dataset, case.scale)
            if key not in self.clusters:
                graph = harness.load_graph(*key, timings=self.timings)
                self.clusters[key] = harness.make_cluster(
                    graph, self.seed, timings=self.timings)
        self.queries = {c.query: get_query(c.query) for c in self.cases}
        if not self.quick:
            self.run_pass()  # warm: lazy imports, numpy, caches

    # -- one case / one pass ------------------------------------------------

    def run_case(self, case: Case, check: bool = True):
        """(wall seconds, result or None); a failure is recorded."""
        cluster = self.clusters[(case.dataset, case.scale)]
        query = self.queries[case.query]
        t0 = time.perf_counter()
        try:
            result = make_engine(case.engine, cluster).run(query)
        except Exception as exc:  # noqa: BLE001 - 00M / 0T / crash = failed op
            result = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - t0
        if check:
            self.attempted += 1
            want = self.expected.get(case.id)
            if result is None:
                self.failures.append(f"{case.id}: {error}")
            elif result.count != want:
                self.failures.append(
                    f"{case.id}: count {result.count} != expected {want}")
        return wall, result

    def run_pass(self, host: harness.HostSpeed | None = None):
        """Every case once, a host-speed probe after each; ``host`` is
        ``None`` for the unchecked warm pass."""
        gc.collect()
        walls, results = {}, {}
        for case in self.cases:
            walls[case.id], results[case.id] = self.run_case(
                case, check=host is not None)
            if host is not None:
                host.probe()
        return walls, results

    # -- measurement --------------------------------------------------------

    def measure(self, seconds: float, spans: harness.Spans | None) -> dict:
        traced = spans is not None
        # a traced run spends the rest of its time on the split pass and
        # the profiled pass
        budget = seconds * (0.4 if traced else 1.0)
        host = harness.HostSpeed()
        passes: list[dict[str, float]] = []
        results: dict = {}
        start = time.perf_counter()
        while True:
            walls, results = self.run_pass(host)
            passes.append(walls)
            used = time.perf_counter() - start
            if used + 0.5 * used / len(passes) >= budget and (
                    len(passes) >= (1 if self.quick else 3)):
                break
        raw = {cid: [p[cid] for p in passes] for cid in passes[0]}
        speed = host.speed()
        case_q1 = {cid: harness.lower_quartile(v) * speed
                   for cid, v in raw.items()}
        pass_q1 = sum(case_q1.values())
        pass_p50 = harness.median(sum(p.values()) for p in passes)
        done = {cid: r for cid, r in results.items() if r is not None}
        matches = sum(r.count for r in done.values())
        sim_time = sum(r.report.total_time_s for r in done.values())

        end_to_end = {"op_q1_s": pass_q1,
                      "throughput_per_s": matches / pass_q1}
        per_layer = {f"case.{cid}.wall_s": v for cid, v in case_q1.items()}
        per_layer.update(self.timings)
        per_layer.update({
            "op.p50_s": pass_p50,
            "op.tail_s": max(case_q1.values()),
            "host.speed": speed,
            "engine.matches": matches,
            "sim.time_s": sim_time,
            "sim.comm_bytes": sum(r.report.bytes_transferred
                                  for r in done.values()),
            "sim.peak_mem_bytes": max((r.report.peak_memory_bytes
                                       for r in done.values()), default=0),
            "sim.compute_s": sum(r.report.compute_time_s
                                 for r in done.values()),
            "sim.comm_s": sum(r.report.comm_time_s for r in done.values()),
            "sim.messages": sum(r.report.messages for r in done.values()),
            "sim.worker_time_stddev_s": sum(
                r.report.worker_time_stddev_s for r in done.values()),
        })
        huge = [r for r in done.values() if hasattr(r, "cache_evictions")]
        if huge:
            per_layer["cache.hit_rate"] = (
                sum(r.cache_hit_rate for r in huge) / len(huge))
            per_layer["cache.evictions"] = sum(r.cache_evictions
                                               for r in huge)
        samples = {"case_wall_s": raw, "probe_s": host.took}
        if traced:
            per_layer.update(self.traced_passes(spans, pass_p50, sim_time))
        return {"attempted": self.attempted, "failed": len(self.failures),
                "failures": self.failures, "end_to_end": end_to_end,
                "per_layer": per_layer, "samples": samples,
                "info": {"passes": len(passes),
                         "op": "one pass: sum over the cases of each "
                               "case's first-quartile wall at the "
                               "reference host speed",
                         "tail": "the slowest case of that sum"}}

    # -- traced run ---------------------------------------------------------

    def split_case(self, case: Case, spans, parent,
                   plan_prof=None, exec_prof=None) -> dict:
        """One case with planning and execution as separate calls; the
        seconds spent in each."""
        from repro.core.plan.translate import translate
        cluster = self.clusters[(case.dataset, case.scale)]
        query = self.queries[case.query]
        with spans.span("case", parent, case.id) as cs:
            if case.engine != "HUGE":
                t0 = time.perf_counter()
                with profiling(exec_prof):
                    make_engine(case.engine, cluster).run(query)
                t1 = time.perf_counter()
                spans.add("baselines.run", t0, t1, cs, case.id)
                return {"baseline": t1 - t0}
            t0 = time.perf_counter()
            with profiling(plan_prof):
                engine = make_engine("HUGE", cluster)
                plan = engine.plan(query)
                t1 = time.perf_counter()
                translate(plan)
            t2 = time.perf_counter()
            with profiling(exec_prof):
                engine.run(plan=plan)
            t3 = time.perf_counter()
            spans.add("plan.optimise", t0, t1, cs, case.id)
            spans.add("plan.translate", t1, t2, cs, case.id)
            spans.add("engine.execute", t2, t3, cs, case.id)
            return {"plan": t1 - t0, "translate": t2 - t1,
                    "execute": t3 - t2}

    def traced_passes(self, spans, untraced_p50: float,
                      sim_time: float) -> dict:
        # 1: the public calls timed one by one, no profiler
        gc.collect()
        split: Counter = Counter()
        with spans.span("pass", None, "split") as ps:
            for case in self.cases:
                split.update(self.split_case(case, spans, ps))
        # 2: the same pass under cProfile, planning and execution apart
        gc.collect()
        plan_prof, exec_prof = cProfile.Profile(), cProfile.Profile()
        t0 = time.perf_counter()
        with spans.span("pass", None, "profiled") as ps:
            for case in self.cases:
                self.split_case(case, spans, ps, plan_prof, exec_prof)
        profiled_wall = time.perf_counter() - t0
        plan_stats = pstats.Stats(plan_prof).stats
        exec_stats = pstats.Stats(exec_prof).stats
        plan_t = layers.layer_self_times(plan_stats)
        exec_t = layers.layer_self_times(exec_stats)
        exec_total = sum(exec_t.values())

        out = {
            "plan.optimise_s": split["plan"],
            "plan.translate_s": split["translate"],
            "engine.execute_s": split["execute"],
            "baselines.run_s": split["baseline"],
            "host.wall_per_sim_s": ((split["execute"] + split["baseline"])
                                    / sim_time if sim_time else 0.0),
            "trace.overhead_ratio": profiled_wall / untraced_p50,
            "query.estimate.self_s": plan_t.get("query.estimate", 0.0),
            "query.estimate.calls": layers.function_calls(
                plan_stats, "query/estimate.py", "_estimate"),
            "plan.optimiser.self_s": plan_t.get("plan.optimiser", 0.0),
            "stealing.distribute_calls": layers.function_calls(
                exec_stats, "core/stealing.py", "distribute_to_workers"),
            "py.calls": (layers.total_calls(plan_stats)
                         + layers.total_calls(exec_stats)),
            "accounting_share": (
                sum(exec_t.get(name, 0.0)
                    for name in layers.ACCOUNTING_LAYERS) / exec_total
                if exec_total else 0.0),
        }
        named = ("kernels.enumerate", "kernels.accounting", "stealing",
                 "cluster", "operators", "scheduler", "cache", "batch",
                 "baselines", "engine", "graph")
        for layer in named:
            out[f"{layer}.self_s"] = exec_t.get(layer, 0.0)
        out["other.self_s"] = sum(v for k, v in exec_t.items()
                                  if k not in named)
        return out
