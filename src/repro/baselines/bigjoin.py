"""BiGJoin [5]: worst-case-optimal dataflow join with pushing.

BiGJoin matches the query one vertex at a time along a fixed order.  Each
round intersects the neighbourhoods of the new vertex's already-matched
pattern neighbours; in the distributed dataflow this is realised by
*pushing* every partial result (plus its running candidate list) to the
machine that owns each participating vertex in turn — the
``d̄·|R(q'_l)|``-sized transfers of Remark 3.1.

Memory is managed with the *batching* static heuristic: the initial edges
are processed in fixed-size batches, each expanded breadth-first through
all rounds.  The heuristic "lacks a tight bound" (§5.1) — a single batch
can still explode on hub vertices, which the memory budget reports as the
paper's ``00M``.

The rounds run columnar: a batch's partial matches are ``(n, arity)``
int64 arrays, the per-hop intersections are batched membership tests
against the shared edge-composite index, and per-tuple costs are integer
tick arrays (counts × tick weights); only the modelled incremental
memory charges stay a sequential loop.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..core.kernels import edge_composite_index, edge_member
from ..core.plan.plans import greedy_order
from ..core.stealing import distribute_to_workers
from ..query.pattern import QueryGraph
from ..query.symmetry import symmetry_break
from .base import BaselineEngine, BaselineResult

__all__ = ["BigJoinEngine"]

_CHUNK = 4096


class BigJoinEngine(BaselineEngine):
    """BiGJoin: left-deep wco join, pushing communication, batched input."""

    name = "BiGJoin"

    def __init__(self, cluster: Cluster, edge_batch: int = 1 << 14,
                 order: list[int] | None = None):
        super().__init__(cluster)
        self.edge_batch = edge_batch
        self.order = order
        graph = cluster.pgraph.graph
        self._edge_index = edge_composite_index(graph)
        self._degrees = graph.indptr[1:] - graph.indptr[:-1]

    def run(self, query: QueryGraph,
            reset_metrics: bool = True) -> BaselineResult:
        """Enumerate ``query`` with BiGJoin's batched wco dataflow."""
        self._check_query(query)
        cluster = self.cluster
        cost = cluster.cost
        if reset_metrics:
            cluster.reset_metrics()
        # reset_metrics rebinds cluster.metrics; capture the fresh ledger
        metrics = cluster.metrics

        order = self.order or greedy_order(query)
        conditions = symmetry_break(query)
        n = query.num_vertices
        back = [[order.index(u) for u in query.neighbours(order[i])
                 if u in order[:i]] for i in range(n)]
        conds_at = self._conditions_by_depth(order, conditions)

        # round 0: all matches of the first edge, partitioned by owner of
        # the first vertex
        graph = cluster.pgraph.graph
        initial: list[np.ndarray] = []
        for m in range(cluster.num_machines):
            local = cluster.local_vertices(m)
            deg = self._degrees[local]
            ecount = int(deg.sum())
            metrics.charge_ops(m, ecount * cost.ticks.scan)
            us = np.repeat(local, deg)
            ramp = np.arange(ecount) - np.repeat(np.cumsum(deg) - deg, deg)
            vs = graph.indices[np.repeat(graph.indptr[local], deg) + ramp] \
                if ecount else np.empty(0, dtype=np.int64)
            keep = np.ones(ecount, dtype=bool)
            for (pos, greater) in conds_at[1]:
                keep &= (vs > us) if greater else (vs < us)
            initial.append(np.stack((us[keep], vs[keep]), axis=1)
                           if ecount else np.empty((0, 2), dtype=np.int64))

        total = 0
        batch = self.edge_batch
        num_batches = max(1, max(
            (len(p) + batch - 1) // batch for p in initial))
        for b in range(num_batches):
            rel = [p[b * batch:(b + 1) * batch] for p in initial]
            for m, part in enumerate(rel):
                metrics.alloc(m, len(part) * 2 * cost.bytes_per_id)
            arity = 2
            if n == 2:
                total += sum(len(p) for p in rel)
                for m, part in enumerate(rel):
                    metrics.free(m, len(part) * arity * cost.bytes_per_id)
            for depth in range(2, n):
                final = depth == n - 1
                # _extend_round frees its input relation on every machine
                out = self._extend_round(rel, arity, back[depth],
                                         conds_at[depth], count_only=final)
                if final:
                    # compression [63]: the last round counts extensions
                    # without materialising them
                    total += out  # type: ignore[operator]
                else:
                    rel = out  # type: ignore[assignment]
                    arity += 1
            metrics.check_time()
        return self._result(total)

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _conditions_by_depth(order: list[int], conditions
                             ) -> list[list[tuple[int, bool]]]:
        n = len(order)
        by_depth: list[list[tuple[int, bool]]] = [[] for _ in range(n)]
        for (u, v) in conditions:
            iu, iv = order.index(u), order.index(v)
            if iu < iv:
                by_depth[iv].append((iu, True))
            else:
                by_depth[iu].append((iv, False))
        return by_depth

    def _extend_round(self, rel: list[np.ndarray], arity: int,
                      back: list[int], conds: list[tuple[int, bool]],
                      count_only: bool = False
                      ) -> "list[np.ndarray] | int":
        """One wco extension round with pushing communication.

        Every tuple is routed through the owners of its back-vertices,
        carrying the shrinking candidate list; transfer bytes are the
        tuple plus the candidates at each hop.  With ``count_only`` (the
        final round under compression [63]) valid extensions are counted
        instead of materialised.

        The round is an array program over each machine's tuple block —
        per-hop degrees/owners as matrices, candidate shrinking as batch
        edge-membership, filters as masks, per-tuple ticks as one array
        expression.  The destination-wise incremental memory charges run
        in tuple order (they decide where a budget trips).
        """
        cluster = self.cluster
        cost = cluster.cost
        metrics = cluster.metrics
        k = cluster.num_machines
        graph = cluster.pgraph.graph
        owner = cluster.pgraph.owner
        comp = self._edge_index
        probe_ticks = cluster.probe_ticks
        t = cost.ticks
        nv = graph.num_vertices
        bpi = cost.bytes_per_id
        w = len(back)
        back_arr = np.asarray(back, dtype=np.int64)
        out: list[list[np.ndarray]] = [[] for _ in range(k)]
        wire = np.zeros(k * k, dtype=np.int64)  # bytes per (src, dst) pair
        out_bytes = (arity + 1) * cost.bytes_per_id
        counted = 0

        for m in range(k):
            rows = rel[m]
            nrows = len(rows)
            # count-min: visit the binding with the smallest adjacency
            # first, so the carried candidate list starts minimal [5]
            bverts = rows[:, back_arr]
            bdeg = self._degrees[bverts]
            ordcols = np.argsort(bdeg, axis=1, kind="stable")
            hop_verts = np.take_along_axis(bverts, ordcols, axis=1)
            hop_deg = np.take_along_axis(bdeg, ordcols, axis=1)

            # candidate shrinking, one hop at a time; carried[i] is the
            # candidate-list length when moving into hop i
            c0 = hop_deg[:, 0]
            total_c = int(c0.sum())
            ramp = np.arange(total_c) - np.repeat(np.cumsum(c0) - c0, c0)
            cand = graph.indices[
                np.repeat(graph.indptr[hop_verts[:, 0]], c0) + ramp] \
                if total_c else np.empty(0, dtype=np.int64)
            counts = c0
            carried = [np.zeros(nrows, dtype=np.int64)]
            for i in range(1, w):
                carried.append(counts)
                row_ids = np.repeat(np.arange(nrows), counts)
                keep = edge_member(comp, nv, hop_verts[row_ids, i], cand)
                cand = cand[keep]
                counts = np.bincount(row_ids[keep], minlength=nrows)
            base = c0 * (t.intersect
                         + probe_ticks[hop_deg[:, 1:]].sum(axis=1))

            # wire accounting: a tuple moves whenever the next hop's owner
            # differs from where it currently sits
            owners_h = owner[hop_verts]
            prev = np.full(nrows, m, dtype=np.int64)
            pids: list[np.ndarray] = []
            wbytes: list[np.ndarray] = []
            for i in range(w):
                dest = owners_h[:, i]
                moved = dest != prev
                mi = np.flatnonzero(moved)
                pids.append(prev[mi] * k + dest[mi])
                wbytes.append((arity + carried[i][mi]) * bpi)
                prev = dest
            np.add.at(wire, np.concatenate(pids), np.concatenate(wbytes))

            # final filters: distinctness against the whole tuple, then
            # the depth's symmetry conditions
            row_ids = np.repeat(np.arange(nrows), counts)
            keep = ~(cand[:, None] == rows[row_ids]).any(axis=1)
            for (pos, greater) in conds:
                bound = rows[row_ids, pos]
                keep &= (cand > bound) if greater else (cand < bound)
            kept_ids = row_ids[keep]
            c_row = np.bincount(kept_ids, minlength=nrows)
            here_final = owners_h[:, w - 1] if w else \
                np.full(nrows, m, dtype=np.int64)

            if count_only:
                counted += int(c_row.sum())
                item_ops = base + c_row * t.emit
                pending_by_dest = [0] * k
            else:
                item_ops = base + c_row * ((arity + 1) * t.emit)
                emitted = np.concatenate(
                    (rows[kept_ids], cand[keep][:, None]), axis=1)
                emit_dest = here_final[kept_ids]
                for dest in range(k):
                    out[dest].append(emitted[emit_dest == dest])
                # destination-wise incremental memory charges in tuple
                # order (flush at every _CHUNK pending per dest)
                pending_by_dest = [0] * k
                for r in np.flatnonzero(c_row).tolist():
                    h = int(here_final[r])
                    tot = pending_by_dest[h] + int(c_row[r])
                    for _ in range(tot // _CHUNK):
                        metrics.alloc(h, _CHUNK * out_bytes)
                        metrics.check_time()
                    pending_by_dest[h] = tot % _CHUNK
            for dest, pending in enumerate(pending_by_dest):
                metrics.alloc(dest, pending * out_bytes)
            # timely dataflow shards work finely across a machine's workers
            per_worker = distribute_to_workers(
                item_ops, cluster.workers_per_machine, stealing=True)
            metrics.charge_worker_ops(m, per_worker)
            metrics.free(m, nrows * arity * cost.bytes_per_id)
        for pair in np.flatnonzero(wire).tolist():
            nbytes = int(wire[pair])
            metrics.send(pair // k, pair % k, nbytes,
                         messages=max(1, nbytes // (64 * 1024)))
        metrics.check_time()
        if count_only:
            return counted
        return [np.concatenate(parts) if parts
                else np.empty((0, arity + 1), dtype=np.int64)
                for parts in out]
