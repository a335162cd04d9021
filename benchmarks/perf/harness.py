"""Shared pieces of the perf benchmark: metric declarations, the
percentile rule, seeded input generation, spans and host facts.

Nothing here imports ``repro`` at module level, so the harness tests can
exercise the pure parts (percentiles, schedules, the layer map) without
the engine on the path.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import time
from contextlib import contextmanager
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
REPO_ROOT = PERF_DIR.parent.parent
RESULTS_DIR = PERF_DIR / "results"
EXPECTED_PATH = PERF_DIR / "expected.json"

#: generator seed of every named dataset.  The graph is the same for
#: every ``--seed`` (README, "What the seed drives"): the seed drives the
#: partitioning, the request mix and its relabellings, the arrival
#: schedules and the update streams.
DATASET_SEED = 7

MACHINES, WORKERS = 10, 4


# -- declarations -----------------------------------------------------------

def load_declaration() -> dict:
    """``BENCHMARK.json`` is the only place metric names, units and
    bounds are written down; everything else reads it."""
    with open(REPO_ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def metric_units(decl: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in decl[kind]}


def fill_metrics(values: dict[str, float], units: dict[str, str]) -> dict:
    """Every declared metric, in declaration order; a layer this
    workload never entered reads 0 (per-layer only — end-to-end metrics
    are measured by every workload)."""
    undeclared = sorted(set(values) - set(units))
    if undeclared:
        raise KeyError(f"metrics missing from BENCHMARK.json: {undeclared}")
    return {name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in units.items()}


# -- statistics -------------------------------------------------------------

#: candidate tail percentiles, highest first
TAIL_LADDER = (99, 95, 90, 80, 75)


def nearest_rank(ordered: list[float], q: float) -> float:
    """The ``q``-th percentile of ascending ``ordered`` (nearest rank)."""
    if not ordered:
        raise ValueError("no samples")
    k = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[k - 1]


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest ladder percentile with at least ten samples beyond
    it, and its value; the median when no rung qualifies."""
    ordered = sorted(samples)
    n = len(ordered)
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= 10:
            return q, nearest_rank(ordered, q)
    return 50, statistics.median(ordered)


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


def lower_quartile(samples) -> float:
    """First quartile: the run's central value that one-sided host noise
    (README, "Noise") moves least."""
    samples = list(samples)
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=4)[0]


# -- host speed -------------------------------------------------------------

#: probe time on the box the baseline was recorded on (2 cores, quiet);
#: timings are scaled to this speed
REFERENCE_PROBE_S = 0.0215


class HostSpeed:
    """A fixed probe computation timed between the samples of a run.

    The sandbox this benchmark runs in slows down by 20-40 % for seconds
    to minutes at a time (README, "Noise"); no statistic taken inside a
    15 s run removes that, but a probe that shares no code with ``repro``
    slows down by about the same factor.  A run's timings are multiplied
    by :meth:`speed`: the time they would have taken at the reference
    speed.
    """

    def __init__(self) -> None:
        import numpy as np
        rng = np.random.default_rng(0)
        self._np = np
        self._keys = rng.integers(0, 1 << 40, size=100_000)
        self._sorted = np.sort(rng.integers(0, 1 << 40, size=100_000))
        self.took: list[float] = []

    def probe(self, repeat: int = 1) -> None:
        """Interpreter, dict and memory-bound numpy work, about 20 ms."""
        np = self._np
        for _ in range(repeat):
            t0 = time.perf_counter()
            total = 0
            for i in range(30_000):
                total += i * i
            counts: dict[int, int] = {}
            for i in range(10_000):
                counts[i & 1023] = counts.get(i & 1023, 0) + 1
            np.sort(self._keys)
            np.searchsorted(self._sorted, self._keys)
            np.unique(self._keys[:25_000])
            self.took.append(time.perf_counter() - t0)

    def speed(self) -> float:
        """Host speed over the run, 1.0 = the reference box: reference
        probe time over the median probe of the run."""
        return REFERENCE_PROBE_S / median(self.took)


# -- seeded inputs ----------------------------------------------------------

def poisson_schedule(rate_qps: float, count: int, seed: int) -> list[float]:
    """Due times (seconds from stage start) of ``count`` Poisson
    arrivals at ``rate_qps``."""
    rng = random.Random(seed)
    t, due = 0.0, []
    for _ in range(count):
        t += rng.expovariate(rate_qps)
        due.append(t)
    return due


def dataset_key(name: str, scale: float) -> str:
    """``LJ``, ``LJ2``, ``LJ0.5`` — ``@`` is not a legal metric-name
    character."""
    return name if scale == 1 else f"{name}{scale:g}"


_graphs: dict[tuple[str, float], object] = {}


def load_graph(name: str, scale: float, timings: dict | None = None):
    """The named stand-in dataset (cached per process)."""
    from repro.graph import load_dataset
    key = (name, scale)
    if key not in _graphs:
        t0 = time.perf_counter()
        _graphs[key] = load_dataset(name, scale=scale, seed=DATASET_SEED)
        if timings is not None:
            timings["graph.load_s"] = (timings.get("graph.load_s", 0.0)
                                       + time.perf_counter() - t0)
    return _graphs[key]


def make_cluster(graph, seed: int, machines: int = MACHINES,
                 timings: dict | None = None):
    from repro.cluster import Cluster, CostModel
    t0 = time.perf_counter()
    cluster = Cluster(graph, num_machines=machines,
                      workers_per_machine=WORKERS, cost=CostModel(),
                      seed=seed)
    if timings is not None:
        timings["cluster.build_s"] = (timings.get("cluster.build_s", 0.0)
                                      + time.perf_counter() - t0)
    return cluster


def load_expected() -> dict[str, int]:
    with open(EXPECTED_PATH, encoding="utf-8") as f:
        return json.load(f)["counts"]


# -- spans ------------------------------------------------------------------

class Spans:
    """In-memory span list, written out once at the end of a traced run.

    A span is ``{name, start, end, parent, id}``: ``parent`` is the index
    of the span that caused it, ``id`` the request / case / batch it
    belongs to.  Times are seconds since the recorder was created.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []

    def add(self, name: str, start: float, end: float,
            parent: int | None = None, id: str | None = None,
            **extra) -> int:
        """Record a finished span from absolute ``perf_counter`` times."""
        self.spans.append({"name": name, "start": start - self.t0,
                           "end": end - self.t0, "parent": parent,
                           "id": id, **extra})
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str, parent: int | None = None,
             id: str | None = None):
        index = self.add(name, time.perf_counter(), time.perf_counter(),
                         parent, id)
        try:
            yield index
        finally:
            self.spans[index]["end"] = time.perf_counter() - self.t0

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the part covered by children."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            out[s["name"]] = (out.get(s["name"], 0.0)
                              + max(0.0, s["end"] - s["start"] - child[i]))
        return out

    def write(self, workload: str, meta: dict) -> Path:
        RESULTS_DIR.mkdir(parents=True, exist_ok=True)
        path = RESULTS_DIR / f"trace-{workload}.json"
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": workload, **meta,
                       "self_time_s": self.self_times(),
                       "spans": self.spans}, f)
            f.write("\n")
        return path


# -- host facts -------------------------------------------------------------

def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


def load_average() -> float:
    try:
        return os.getloadavg()[0]
    except OSError:
        return 0.0


def peak_rss_mb() -> float:
    """High-water resident set of this process and, when larger, of its
    largest waited-for child (the process-pool stage)."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0
