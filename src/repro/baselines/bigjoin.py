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
int64 arrays, and a round's intersections are the engine's candidate
pass (:func:`~repro.core.kernels.extend_block`, one compiled loop over
the rows where the C library loaded), which also gives each tuple's
intersection ticks and each hop's surviving candidate count.  Per-tuple
costs are integer tick arrays (counts × tick weights); the wire bytes,
the routing of the output by destination and the modelled incremental
memory charges are array programs over them, the charges issued in
tuple order.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..core.dataflow import ExtendSpec
from ..core.kernels import csr_gather, extend_block
from ..core.plan.plans import greedy_order
from ..core.plan.translate import order_chain
from ..core.stealing import distribute_to_workers
from ..query.pattern import QueryGraph
from ..query.symmetry import symmetry_break
from .base import (BaselineEngine, BaselineResult, destination_order,
                   split_by_destination)

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
        machines = np.arange(cluster.num_machines)
        batch = self.edge_batch
        num_batches = max(1, max(
            (len(p) + batch - 1) // batch for p in initial))
        for b in range(num_batches):
            rel = [p[b * batch:(b + 1) * batch] for p in initial]
            held = np.array([len(p) for p in rel]) * (2 * cost.bytes_per_id)
            metrics.alloc(machines, held)
            if not extends:
                total += sum(len(p) for p in rel)
                metrics.free(machines, held)
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

        Each machine's tuple block goes through the engine's candidate
        pass once (:func:`~repro.core.kernels.extend_block`): the
        extended rows, each tuple's intersection ticks and, per hop, how
        many candidates survive it — with the symmetry conditions as
        filters after the last hop, so the carried counts are the
        unfiltered ones.  The wire bytes, the destination split and the
        destination-wise incremental memory charges (in tuple order: they
        decide where a budget trips) are BiGJoin's own.
        """
        cluster = self.cluster
        cost = cluster.cost
        metrics = cluster.metrics
        k = cluster.num_machines
        owner = cluster.pgraph.owner
        bpi = cost.bytes_per_id
        arity = len(spec.out_schema) - 1
        out: list[list[np.ndarray]] = [[] for _ in range(k)]
        wire = np.zeros(k * k, dtype=np.int64)  # bytes per (src, dst) pair
        out_bytes = (arity + 1) * bpi
        counted = 0

        for m in range(k):
            rows = rel[m]
            nrows = len(rows)
            # count-min: visit the binding with the smallest adjacency
            # first, so the carried candidate list starts minimal [5]
            bverts = rows[:, list(spec.ext)]
            bdeg = self._degrees[bverts]
            hops = owner[np.take_along_axis(
                bverts, np.argsort(bdeg, axis=1, kind="stable"), axis=1)]
            survivors = np.empty(bverts.shape, dtype=np.int64)
            emitted, c_row, base = extend_block(
                cluster.pgraph.graph, rows, bverts, bdeg, spec.candidate_lt,
                spec.candidate_gt, cost.ticks.intersect, cluster.probe_ticks,
                count_only=count_only, survivors=survivors)

            # wire accounting: a tuple moves, with the candidates carried
            # into the hop, whenever the hop's owner differs from where it
            # currently sits
            prev = np.column_stack((np.full(nrows, m), hops[:, :-1]))
            carried = np.column_stack((np.zeros(nrows, dtype=np.int64),
                                       survivors[:, :-1]))
            moved = hops != prev
            np.add.at(wire, (prev * k + hops)[moved],
                      (arity + carried[moved]) * bpi)
            here_final = hops[:, -1]

            if count_only:
                counted += int(c_row.sum())
                item_ops = base + c_row * cost.ticks.emit
                pending = np.zeros(k, dtype=np.int64)
            else:
                item_ops = base + c_row * ((arity + 1) * cost.ticks.emit)
                parts = split_by_destination(
                    emitted, np.repeat(here_final, c_row), k)
                for dest, part in enumerate(parts):
                    out[dest].append(part)
                at, chunks, pending = _chunks_due(here_final, c_row, k)
                for h, n in zip(at.tolist(), chunks.tolist()):
                    for _ in range(n):
                        metrics.alloc(h, _CHUNK * out_bytes)
                        metrics.check_time()
            metrics.alloc(np.arange(k), pending * out_bytes)
            # timely dataflow shards work finely across a machine's workers
            per_worker = distribute_to_workers(
                item_ops, cluster.workers_per_machine, stealing=True)
            metrics.charge_worker_ops(m, per_worker)
            metrics.free(m, nrows * arity * bpi)
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


def _chunks_due(dest: np.ndarray, counts: np.ndarray, k: int
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One machine's destination-wise memory charges.  Tuple ``i``, in
    order, adds ``counts[i]`` rows to destination ``dest[i]``'s pending
    output, charged a ``_CHUNK`` each time it fills one.  Returns the
    destinations of the tuples where charges fall due (tuple order), the
    chunks each, and every destination's rows left pending."""
    order, sizes = destination_order(dest, k)
    held = np.zeros(k, dtype=np.int64)
    np.add.at(held, dest, counts)
    c = counts[order]
    # each destination's running total after each of its tuples
    total = np.cumsum(c) - np.repeat(np.cumsum(held) - held, sizes)
    chunks = total // _CHUNK - (total - c) // _CHUNK
    due = np.flatnonzero(chunks)
    due = due[np.argsort(order[due])]
    return dest[order[due]], chunks[due], held % _CHUNK
