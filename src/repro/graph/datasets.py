"""Named synthetic stand-ins for the paper's evaluation datasets (Table 3).

The paper uses seven real graphs up to 42.5 billion edges; those are not
reachable from a pure-Python single-process reproduction, so each dataset
name maps to a deterministic synthetic generator whose *degree character*
matches the original family:

====  ===========================  ==========================  ===========
Name  Paper graph                  Family / character          Stand-in
====  ===========================  ==========================  ===========
GO    web-Google (875K/4.3M)       web, moderate hubs          hub_web
LJ    LiveJournal (4.8M/43M)       social, power-law, clustered power_law_cluster
OR    Orkut (3M/117M)              social, denser              power_law_cluster
UK    UK02 (18.5M/298M)            web, extreme hubs           hub_web
EU    EU-road (174M/348M)          road, max degree 20         road_grid
FS    Friendster (65M/1.8B)        social, largest social      power_law_cluster
CW    ClueWeb12 (978M/42.5B)       web-scale, d_max 75M        hub_web (hubbier)
====  ===========================  ==========================  ===========

Relative *scale ordering* is preserved (GO < LJ < OR < UK ≈ EU < FS < CW)
at roughly 1:10⁴ of the original vertex counts so every experiment finishes
in seconds.  ``load_dataset(name, scale=...)`` lets benchmarks grow or
shrink a dataset uniformly.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Callable

from .graph import Graph
from .updates import apply_updates
from . import generators as gen

__all__ = ["DatasetSpec", "DATASETS", "load_dataset", "dataset_table",
           "UpdateBatch", "TemporalStream", "temporal_edge_stream"]


@dataclass(frozen=True)
class DatasetSpec:
    """Metadata + factory for one named dataset."""

    name: str
    family: str
    paper_vertices: int
    paper_edges: int
    paper_dmax: int
    paper_davg: float
    factory: Callable[[float, int], Graph]

    def load(self, scale: float = 1.0, seed: int = 7) -> Graph:
        """Build the stand-in graph at the given relative scale."""
        if scale <= 0:
            raise ValueError("scale must be positive")
        return self.factory(scale, seed)


def _social(n: int, m: int, triad_p: float,
            hubs: int = 2, hub_deg_frac: float = 0.3
            ) -> Callable[[float, int], Graph]:
    """Power-law clustered background plus a few celebrity hubs.

    Real social graphs have ``d_max / d_avg`` in the hundreds-to-thousands
    (LJ: 20333 vs 17.9); the clustered Holme–Kim tail alone tops out far
    lower at stand-in sizes, so celebrity vertices are wired explicitly —
    they drive the star explosion (``Σ C(d, k)``) that dominates the
    paper's join-based baselines.
    """
    def make(scale: float, seed: int) -> Graph:
        nv = max(m + 2, int(n * scale))
        base = gen.power_law_cluster(nv, m, triad_p=triad_p, seed=seed)
        if not hubs:
            return base
        import numpy as np
        rng = np.random.default_rng(seed + 1)
        edges = list(base.edges())
        hub_ids = rng.choice(nv, size=hubs, replace=False)
        hub_degree = max(4, int(nv * hub_deg_frac))
        for h in hub_ids:
            targets = rng.choice(nv, size=min(hub_degree, nv - 1),
                                 replace=False)
            edges.extend((int(h), int(t)) for t in targets if int(t) != int(h))
        return Graph.from_edges(edges, num_vertices=nv)
    return make


def _web(n: int, hubs: int, hub_deg_frac: float,
         background_m: int) -> Callable[[float, int], Graph]:
    def make(scale: float, seed: int) -> Graph:
        nv = max(16, int(n * scale))
        hub_degree = max(4, int(nv * hub_deg_frac))
        return gen.hub_web(nv, num_hubs=max(1, hubs),
                           hub_degree=min(hub_degree, nv - 1),
                           background_m=background_m, seed=seed)
    return make


def _road(rows: int, cols: int) -> Callable[[float, int], Graph]:
    def make(scale: float, seed: int) -> Graph:
        s = max(0.05, scale) ** 0.5
        return gen.road_grid(max(4, int(rows * s)), max(4, int(cols * s)),
                             seed=seed)
    return make


DATASETS: dict[str, DatasetSpec] = {
    "GO": DatasetSpec("GO", "web", 875_713, 4_322_051, 6_332, 5.0,
                      _web(n=600, hubs=5, hub_deg_frac=0.10, background_m=2)),
    "LJ": DatasetSpec("LJ", "social", 4_847_571, 43_369_619, 20_333, 17.9,
                      _social(n=1600, m=3, triad_p=0.3, hubs=20,
                              hub_deg_frac=0.10)),
    "OR": DatasetSpec("OR", "social", 3_072_441, 117_185_083, 33_313, 38.1,
                      _social(n=1000, m=5, triad_p=0.4, hubs=12,
                              hub_deg_frac=0.12)),
    "UK": DatasetSpec("UK", "web", 18_520_486, 298_113_762, 194_955, 16.1,
                      _web(n=1400, hubs=10, hub_deg_frac=0.12,
                           background_m=2)),
    "EU": DatasetSpec("EU", "road", 173_789_185, 347_997_111, 20, 3.9,
                      _road(rows=42, cols=42)),
    "FS": DatasetSpec("FS", "social", 65_608_366, 1_806_067_135, 5_214, 27.5,
                      _social(n=2000, m=3, triad_p=0.25, hubs=16,
                              hub_deg_frac=0.08)),
    "CW": DatasetSpec("CW", "web", 978_409_098, 42_574_107_469, 75_611_696, 43.5,
                      _web(n=2400, hubs=5, hub_deg_frac=0.45, background_m=2)),
}


def load_dataset(name: str, scale: float = 1.0, seed: int = 7) -> Graph:
    """Load a named stand-in dataset.

    ``scale`` multiplies the default (already scaled-down) vertex count;
    ``scale=1.0`` keeps experiments in the sub-second range.
    """
    try:
        spec = DATASETS[name.upper()]
    except KeyError:
        raise KeyError(
            f"unknown dataset {name!r}; choose from {sorted(DATASETS)}") from None
    return spec.load(scale=scale, seed=seed)


# -- temporal edge streams --------------------------------------------------


@dataclass(frozen=True)
class UpdateBatch:
    """One batch of a temporal edge stream: edges to insert and delete.

    ``inserts`` and ``deletes`` are disjoint within a batch (normalised
    ``u < v`` tuples), so replaying a batch through
    :func:`~repro.graph.updates.apply_updates` is order-independent.
    """

    inserts: tuple[tuple[int, int], ...]
    deletes: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.inserts) + len(self.deletes)


@dataclass(frozen=True)
class TemporalStream:
    """A seeded, replayable edge-update stream over a fixed vertex set.

    ``base`` is the starting snapshot; replaying ``batches`` in order via
    :func:`~repro.graph.updates.apply_updates` yields a deterministic
    final graph (:meth:`final_graph`).  The vertex count never changes,
    so standing-subscription label arrays stay valid throughout.
    """

    base: Graph
    batches: tuple[UpdateBatch, ...]

    @property
    def num_updates(self) -> int:
        return sum(b.size for b in self.batches)

    def final_graph(self) -> Graph:
        """Replay every batch from the base snapshot."""
        g = self.base
        for batch in self.batches:
            g, _ = apply_updates(g, batch.inserts, batch.deletes)
        return g


def temporal_edge_stream(
    graph: Graph,
    num_updates: int,
    batch_size: int = 8,
    delete_fraction: float = 0.3,
    seed: int = 7,
    skew: float = 0.0,
) -> TemporalStream:
    """Derive a seeded temporal update stream from a final-state graph.

    Roughly ``num_updates * (1 - delete_fraction)`` edges of ``graph``
    are held out to form the base snapshot and re-inserted over the
    stream; the remaining updates delete edges present in the evolving
    graph (possibly ones inserted by an earlier batch, exercising
    retraction of previously delivered matches).  With ``skew > 0`` the
    held-out edges are sampled with probability proportional to
    ``(deg(u) + deg(v)) ** skew`` — a hub-heavy update stream whose
    deltas touch the high-degree core, the adversarial case for
    incremental enumeration.

    Within each batch inserts and deletes are disjoint; across the
    stream each operation is a real state change (no duplicate inserts
    of present edges, no deletes of absent ones).
    """
    import numpy as np

    if num_updates < 0:
        raise ValueError("num_updates must be non-negative")
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError("delete_fraction must be in [0, 1]")
    rng = np.random.default_rng(seed)
    all_edges = list(graph.edges())     # ascending
    num_inserts = min(len(all_edges),
                      int(round(num_updates * (1.0 - delete_fraction))))

    if num_inserts and all_edges:
        if skew > 0.0:
            deg = np.diff(graph.indptr)
            arr = graph.edge_array()
            w = (deg[arr[:, 0]] + deg[arr[:, 1]]).astype(np.float64) ** skew
            p = w / w.sum()
        else:
            p = None
        held_idx = rng.choice(len(all_edges), size=num_inserts,
                              replace=False, p=p)
        held_out = [all_edges[i] for i in sorted(held_idx.tolist())]
    else:
        held_out = []
    held_set = set(held_out)
    # the present edges not yet deleted in the current batch, kept sorted
    # across the whole stream (a delete draws by rank)
    pool = [e for e in all_edges if e not in held_set]
    base = Graph.from_edges(pool, num_vertices=graph.num_vertices)

    # interleave the re-inserts with deletes of currently-present edges
    insert_queue = list(held_out)
    rng.shuffle(insert_queue)
    ops: list[UpdateBatch] = []
    remaining = num_updates
    while remaining > 0:
        ins: list[tuple[int, int]] = []
        dels: list[tuple[int, int]] = []
        for _ in range(min(batch_size, remaining)):
            want_insert = insert_queue and (
                rng.random() >= delete_fraction or not (pool or dels))
            if want_insert:
                ins.append(insert_queue.pop())
            elif pool:
                # delete a present edge not touched earlier in this batch
                dels.append(pool.pop(int(rng.integers(len(pool)))))
            elif insert_queue:
                ins.append(insert_queue.pop())
        if not ins and not dels:
            break
        for e in ins:
            bisect.insort(pool, e)
        remaining -= len(ins) + len(dels)
        ops.append(UpdateBatch(tuple(sorted(ins)), tuple(sorted(dels))))
    return TemporalStream(base=base, batches=tuple(ops))


def dataset_table(scale: float = 1.0, seed: int = 7) -> list[dict]:
    """Regenerate Table 3 rows: paper stats alongside stand-in stats."""
    rows = []
    for spec in DATASETS.values():
        g = spec.load(scale=scale, seed=seed)
        rows.append({
            "dataset": spec.name,
            "family": spec.family,
            "paper_V": spec.paper_vertices,
            "paper_E": spec.paper_edges,
            "paper_dmax": spec.paper_dmax,
            "paper_davg": spec.paper_davg,
            "standin_V": g.num_vertices,
            "standin_E": g.num_edges,
            "standin_dmax": g.max_degree,
            "standin_davg": round(g.avg_degree, 1),
        })
    return rows
