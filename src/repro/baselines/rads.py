"""RADS [66]: fast and robust distributed subgraph enumeration.

RADS runs a multi-round "star-expand-and-verify" paradigm: each round
expands the partial results by a star rooted at an already-matched vertex,
pulling remote roots' adjacency lists to the host machine, then verifies
the remaining query edges.  Memory is managed by *region groups* — the
initial star's root vertices are split into groups processed end-to-end.

Characteristics reproduced here (Table 1 row RADS):

* the StarJoin-like left-deep plan is sub-optimal — a star with several
  new leaves explodes combinatorially (the "massive number of 3-stars"
  that Exp-1 observes for q2), which the memory budget reports as ``00M``;
* pulling without a cross-round cache re-fetches adjacency lists per round
  and per region group — communication volume stays high;
* region groups are a static heuristic: with hub vertices a single group
  can still blow the memory budget (§5.1).

The rounds are columnar: partial results are ``(n, arity)`` int64 arrays,
edge verification is one stacked membership probe per matched leaf
column, machine and round, folded into one mask
(:meth:`~repro.graph.graph.Graph.has_arc_keys` on each column in place;
through the engine's compiled VERIFY a round allocated three row-sized
arrays it never reads, and its traced peak and wall time rose), a
root's leaf candidates come from the engine's candidate pass
(:func:`~repro.core.kernels.extend_step` with one list and no window:
the root's adjacency minus the row's ids), and leaf enumeration shares
the combination builder :func:`repro.baselines.base.combo_rows` (the
counted round asks it for per-row counts only).  Per-row costs are
integer tick arrays (counts × tick weights); the modelled per-root
incremental memory charges are issued in root order, found on the
running sum of the per-root counts
(:func:`~repro.baselines.base.chunk_flushes`).
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.errors import OvertimeError
from ..core.kernels import extend_step
from ..core.plan.plans import rads_plan
from ..core.plan.tree import ExecutionPlan
from ..core.stealing import chunked_distribution
from ..query.pattern import QueryGraph
from ..query.symmetry import symmetry_break
from .base import (BaselineEngine, BaselineResult, chunk_flushes,
                   combo_rows, new_conditions, predicted_star_total,
                   star_partition, valid_leaf_patterns)

__all__ = ["RadsEngine"]


class RadsEngine(BaselineEngine):
    """RADS: pulling-based star-expand-and-verify with region groups."""

    name = "RADS"

    def __init__(self, cluster: Cluster, region_groups: int = 4):
        super().__init__(cluster)
        if region_groups < 1:
            raise ValueError("need at least one region group")
        self.region_groups = region_groups
        graph = cluster.pgraph.graph
        self._degrees = graph.indptr[1:] - graph.indptr[:-1]
        # scratch marks over V for de-duplicating a round's remote roots,
        # all False between calls
        self._marks = np.zeros(graph.num_vertices, dtype=bool)

    def run(self, query: QueryGraph,
            plan: ExecutionPlan | None = None) -> BaselineResult:
        """Enumerate ``query`` with RADS' star-expand-and-verify rounds."""
        self._check_query(query)
        cluster = self.cluster
        cluster.reset_metrics()
        if plan is None:
            plan = rads_plan(query)
        conditions = symmetry_break(query)
        stars = [leaf.sub for leaf in plan.root.leaves()]

        total = 0
        for group in range(self.region_groups):
            applied: set[tuple[int, int]] = set()
            first = stars[0]
            root = first.star_root()
            leaves = sorted(first.vertices - {root})
            rel, schema = self._initial_star(root, leaves, conditions,
                                             applied, group)
            if len(stars) == 1:
                total += sum(len(p) for p in rel)
                self._free_rel(rel, len(schema))
                cluster.metrics.check_time()
                continue
            for star in stars[1:-1]:
                rel, schema = self._expand_round(rel, schema, star,
                                                 conditions, applied)
            # final round counts its output (decompress-by-counting, §7.1)
            counted, schema = self._expand_round(rel, schema, stars[-1],
                                                 conditions, applied,
                                                 count_only=True)
            total += counted
            cluster.metrics.check_time()
        return self._result(total)

    # -- rounds -----------------------------------------------------------------------

    def _free_rel(self, rel: list[np.ndarray], arity: int) -> None:
        held = np.array([len(part) for part in rel], dtype=np.int64)
        held *= arity * self.cluster.cost.bytes_per_id
        self.cluster.metrics.free(np.arange(len(rel)), held)

    def _initial_star(self, root: int, leaves: list[int], conditions,
                      applied: set[tuple[int, int]], group: int
                      ) -> tuple[list[np.ndarray], tuple[int, ...]]:
        """Materialise the first star for this region group's pivots."""
        cluster = self.cluster
        cost = cluster.cost
        metrics = cluster.metrics
        schema = (root,) + tuple(leaves)
        positional = new_conditions(schema, applied, conditions)
        root_conds = [(i, j) for i, j in positional if 0 in (i, j)]
        leaf_conds = [(i - 1, j - 1) for i, j in positional
                      if i != 0 and j != 0]
        patterns = valid_leaf_patterns(len(leaves), leaf_conds)
        patterns_arr = np.asarray(patterns, dtype=np.int64).reshape(
            len(patterns), len(leaves))
        nl = len(leaves)
        tuple_bytes = (nl + 1) * cost.bytes_per_id

        rel: list[np.ndarray] = []
        workers = cluster.workers_per_machine
        for m in range(cluster.num_machines):
            local = cluster.local_vertices(m)
            local = local[local % self.region_groups == group]
            self._preflight(m, self._degrees[local], nl, len(patterns),
                            tuple_bytes)
            rows, item_ops = star_partition(
                cluster, m, local, nl, patterns_arr, root_conds, tuple_bytes)
            # RADS distributes by region (pivot) groups: chunked, no stealing
            metrics.charge_worker_ops(
                m, chunked_distribution(item_ops, workers))
            rel.append(rows)
        return rel, schema

    def _expand_round(self, rel: list[np.ndarray], schema: tuple[int, ...],
                      star, conditions, applied: set[tuple[int, int]],
                      count_only: bool = False):
        """Expand by a star rooted at a matched vertex, verifying matched
        leaves and enumerating new ones from the pulled adjacency list.

        With ``count_only`` (the final round) outputs are counted rather
        than materialised; returns ``(count, out_schema)``.
        """
        cluster = self.cluster
        cost = cluster.cost
        metrics = cluster.metrics
        graph = cluster.pgraph.graph
        owner = cluster.pgraph.owner
        root = star.star_root()
        if root not in schema:
            raise ValueError("RADS star root must already be matched")
        root_pos = schema.index(root)
        leaves = sorted(star.vertices - {root})
        v1 = [v for v in leaves if v in schema]          # verify edges
        leaf_cols = [schema.index(v) for v in v1]
        v2 = [v for v in leaves if v not in schema]      # expand leaves
        out_schema = schema + tuple(v2)
        positional = new_conditions(out_schema, applied, conditions)
        base_w = len(schema)
        new_conds = [(i, j) for i, j in positional
                     if i >= base_w or j >= base_w]
        leaf_conds = [(i - base_w, j - base_w) for i, j in new_conds
                      if i >= base_w and j >= base_w]
        mixed_conds = [(i, j) for i, j in new_conds
                       if (i >= base_w) != (j >= base_w)]
        patterns = valid_leaf_patterns(len(v2), leaf_conds)
        patterns_arr = np.asarray(patterns, dtype=np.int64).reshape(
            len(patterns), len(v2))
        nl = len(v2)
        tuple_bytes = len(out_schema) * cost.bytes_per_id

        out_rel: list[np.ndarray] = []
        counted_total = 0
        workers = cluster.workers_per_machine
        for m in range(cluster.num_machines):
            part = rel[m]
            nrows = len(part)
            roots = part[:, root_pos] if nrows else np.empty(0, np.int64)
            # region-scoped pull of every distinct remote root (no
            # cross-round cache: RADS re-fetches each round)
            cluster.pull(m, self._distinct(roots[owner[roots] != m]))
            self._preflight(m, self._degrees[roots], nl,
                            max(1, len(patterns)), tuple_bytes)
            base = self._degrees[roots] * cost.ticks.intersect
            # verify matched leaves: edges (root, v) for v in V1, one
            # stacked probe per leaf column (the graph is symmetric, so
            # arcs v -> root)
            ok = np.ones(nrows, dtype=bool)
            for c in leaf_cols if nrows else ():
                ok &= graph.has_arc_keys(part[:, c] * graph.num_vertices
                                         + roots)
            kept_per_row = np.zeros(nrows, dtype=np.int64)
            if not v2:
                n_ok = int(ok.sum())
                if count_only:
                    counted_total += n_ok
                    item_ops = base + ok * cost.ticks.emit
                    pending = 0
                else:
                    out = part[ok]
                    item_ops = base
                    pending = n_ok
                metrics.alloc(m, pending * tuple_bytes)
                metrics.charge_worker_ops(
                    m, chunked_distribution(item_ops, workers))
                if not count_only:
                    out_rel.append(out)
                continue
            # candidates: the pulled adjacency minus already-matched ids,
            # the engine's candidate pass with one list and no window
            prefix = part[ok]
            okidx = np.flatnonzero(ok)
            cand, _, counts = extend_step(graph, prefix, (root_pos,), (),
                                          ())
            emitted, kept = combo_rows(prefix, cand, counts, nl,
                                       patterns_arr, mixed_conds,
                                       count_only=count_only)
            kept_per_row[okidx] = kept
            step = cost.ticks.emit * (1 if count_only else len(out_schema))
            item_ops = base + kept_per_row * step
            if count_only:
                counted_total += int(kept.sum())
            else:
                # incremental memory charges per root in tuple order
                # (flush at every _CHUNK pending, as star_partition does)
                flushed, pending = chunk_flushes(kept)
                for tuples in flushed:
                    metrics.alloc(m, tuples * tuple_bytes)
                    metrics.check_time()
                metrics.alloc(m, pending * tuple_bytes)
                out_rel.append(emitted)
            metrics.charge_worker_ops(
                m, chunked_distribution(item_ops, workers))
        self._free_rel(rel, len(schema))
        metrics.check_time()
        if count_only:
            return counted_total, out_schema
        return out_rel, out_schema

    def _distinct(self, ids: np.ndarray) -> np.ndarray:
        """The distinct ``ids``, ascending (``np.unique`` without its
        sort): marked in the scratch array, read back, marks cleared."""
        marks = self._marks
        marks[ids] = True
        distinct = np.flatnonzero(marks)
        marks[distinct] = False
        return distinct

    def _preflight(self, machine: int, degrees: np.ndarray, choose: int,
                   patterns: int, tuple_bytes: int) -> None:
        """Abort with 00M/0T before an expansion that cannot fit."""
        cost = self.cluster.cost
        metrics = self.cluster.metrics
        predicted = predicted_star_total(degrees, choose, patterns)
        predicted_bytes = predicted * tuple_bytes // 2
        used = int(metrics.cur_mem_bytes[machine])
        if used + predicted_bytes > cost.memory_budget_bytes:
            metrics.alloc(machine, predicted_bytes)  # raises OutOfMemoryError
        est_s = cost.ticks_to_seconds(predicted * cost.ticks.emit)
        if metrics.compute_time(machine) + est_s > cost.time_budget_s:
            raise OvertimeError(cost.time_budget_s + 1.0, cost.time_budget_s)
