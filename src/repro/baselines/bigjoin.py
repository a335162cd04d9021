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
from ..core.dataflow import ExtendSpec
from ..core.kernels import csr_gather
from ..core.plan.plans import greedy_order
from ..core.plan.translate import order_chain
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
        self._degrees = graph.indptr[1:] - graph.indptr[:-1]

    def run(self, query: QueryGraph) -> BaselineResult:
        """Enumerate ``query`` with BiGJoin's batched wco dataflow."""
        self._check_query(query)
        cluster = self.cluster
        cost = cluster.cost
        cluster.reset_metrics()
        # reset_metrics rebinds cluster.metrics; capture the fresh ledger
        metrics = cluster.metrics

        # the engine's own chain along BiGJoin's order (column i matches
        # order[i]); only the communication below is BiGJoin's
        scan, extends = order_chain(
            query, self.order or greedy_order(query), symmetry_break(query))

        # round 0: all matches of the first edge, partitioned by owner of
        # the first vertex
        graph = cluster.pgraph.graph
        initial: list[np.ndarray] = []
        for m in range(cluster.num_machines):
            local = cluster.local_vertices(m)
            row_ids, vs = csr_gather(graph.indptr, graph.indices, local)
            metrics.charge_ops(m, len(vs) * cost.ticks.scan)
            us = local[row_ids]
            if scan.order is not None:
                keep = (us < vs) if scan.order == "lt" else (us > vs)
                us, vs = us[keep], vs[keep]
            initial.append(np.stack((us, vs), axis=1))

        total = 0
        batch = self.edge_batch
        num_batches = max(1, max(
            (len(p) + batch - 1) // batch for p in initial))
        for b in range(num_batches):
            rel = [p[b * batch:(b + 1) * batch] for p in initial]
            for m, part in enumerate(rel):
                metrics.alloc(m, len(part) * 2 * cost.bytes_per_id)
            if not extends:
                total += sum(len(p) for p in rel)
                for m, part in enumerate(rel):
                    metrics.free(m, len(part) * 2 * cost.bytes_per_id)
            for spec in extends:
                final = spec is extends[-1]
                # _extend_round frees its input relation on every machine
                out = self._extend_round(rel, spec, count_only=final)
                if final:
                    # compression [63]: the last round counts extensions
                    # without materialising them
                    total += out  # type: ignore[operator]
                else:
                    rel = out  # type: ignore[assignment]
            metrics.check_time()
        return self._result(total)

    # -- helpers ---------------------------------------------------------------------

    def _extend_round(self, rel: list[np.ndarray], spec: ExtendSpec,
                      count_only: bool = False
                      ) -> "list[np.ndarray] | int":
        """One wco extension round (one ``ExtendSpec`` of the order chain)
        with pushing communication.

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
        probe_ticks = cluster.probe_ticks
        t = cost.ticks
        bpi = cost.bytes_per_id
        arity = len(spec.out_schema) - 1
        w = len(spec.ext)
        out: list[list[np.ndarray]] = [[] for _ in range(k)]
        wire = np.zeros(k * k, dtype=np.int64)  # bytes per (src, dst) pair
        out_bytes = (arity + 1) * cost.bytes_per_id
        counted = 0

        for m in range(k):
            rows = rel[m]
            nrows = len(rows)
            # count-min: visit the binding with the smallest adjacency
            # first, so the carried candidate list starts minimal [5]
            bverts = rows[:, list(spec.ext)]
            bdeg = self._degrees[bverts]
            ordcols = np.argsort(bdeg, axis=1, kind="stable")
            hop_verts = np.take_along_axis(bverts, ordcols, axis=1)
            hop_deg = np.take_along_axis(bdeg, ordcols, axis=1)

            # candidate shrinking, one hop at a time; carried[i] is the
            # candidate-list length when moving into hop i
            c0 = hop_deg[:, 0]
            _, cand = csr_gather(graph.indptr, graph.indices,
                                 hop_verts[:, 0])
            counts = c0
            carried = [np.zeros(nrows, dtype=np.int64)]
            for i in range(1, w):
                carried.append(counts)
                row_ids = np.repeat(np.arange(nrows), counts)
                keep = graph.has_edges(hop_verts[row_ids, i], cand)
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
            for p in spec.candidate_lt:
                keep &= cand < rows[row_ids, p]
            for p in spec.candidate_gt:
                keep &= cand > rows[row_ids, p]
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
