"""Runtime operators: SCAN, PULL-EXTEND, PUSH-JOIN, SINK (paper §4).

Operators interpret the declarative specs of :mod:`repro.core.dataflow` on
the simulated cluster.  All enumeration work is real — tuples are produced,
intersected and filtered exactly — while compute ops, RPC bytes/messages
and memory are charged to the metrics ledger.

A batch is a plain ``(n, arity)`` ``int64`` array, one row per partial
match, one column per matched query vertex (a SCAN's input is a 1-D array
of pivot ids); operators take and return such arrays and a queue slices
them.  SCAN, both stages of PULL-EXTEND and the join run as array
programs over a whole batch — the symmetry window, intersections,
distinctness, label filters, emission, and LRBU's fetch stage
(membership, sealing, admission and eviction on id-indexed arrays).  The
one per-vertex loop left is :meth:`LRUCache.fetch
<repro.core.cache.LRUCache.fetch>`, whose access order *is* the model.
Charges are integer ticks (:mod:`repro.cluster.cost`): a batch's cost is
its counts times tick weights.

``PULL-EXTEND`` implements the two-stage execution strategy of Algorithm 4:
a *fetch* stage that makes the batch's remote vertices resident, then an
*intersect* stage that runs the multiway intersections as one columnar
pass (:func:`~repro.core.kernels.extend_block`).  The split exists so
that the cache never touches the intersection: *how* a batch is fetched
is the cache class's ``fetch`` — :class:`~repro.core.cache.LRBUCache`
seals cached vertices and pulls the misses with one aggregated
``GetNbrs`` RPC per owner; :class:`~repro.core.cache.LRUCache` (the
Cncr-LRU ablation) makes one cache access per remote read and one RPC
pair per miss — and the operator counts, charges, checks and traces
whatever either reports, in front of the same intersect stage.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.cost import to_ticks
from ..obs.trace import NULL_TRACER
from .cache import LRBUCache, LRUCache
from .dataflow import ExtendSpec, JoinSpec, ScanSpec
from .kernels import (chunk_charges, csr_gather, extend_block,
                      fused_verify_mask, hash_destinations, join_rows)

__all__ = ["ExecContext", "ScanOp", "ExtendOp", "SinkConsumer", "JoinBuffer",
           "join_stream", "Tuple"]

Tuple = tuple[int, ...]
Cache = LRBUCache | LRUCache


class ExecContext:
    """Shared execution state for one engine run."""

    def __init__(self, cluster: Cluster, caches: Sequence[Cache],
                 tracer=None):
        self.cluster = cluster
        self.caches = list(caches)
        # hit/miss accounting is charged once, through the cache's own
        # stats, and forwarded to the run metrics from there
        for machine, cache in enumerate(self.caches):
            cache.stats.bind(cluster.metrics, machine)
        self.metrics = cluster.metrics
        self.cost = cluster.cost
        #: per-vertex labels of the data graph (None for unlabelled)
        self.labels = cluster.labels
        #: total ticks spent in fetch stages (Table 5's t_f)
        self.fetch_ops = 0
        #: span tracer (the no-op tracer unless the run is being traced)
        self.tracer = tracer if tracer is not None else NULL_TRACER


class ScanOp:
    """Edge SCAN: emits matches of a single query edge from the local
    partition.  Input batches are 1-D arrays of local pivot vertices."""

    def __init__(self, spec: ScanSpec, ctx: ExecContext):
        self.spec = spec
        self.ctx = ctx
        self.out_arity = 2

    def process(self, machine: int,
                pivots: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        """Expand each pivot ``u`` into rows ``(u, v)`` for its neighbours
        ``v`` passing the symmetry order filter.

        Pivots are normally local; pivots re-homed by inter-machine work
        stealing are remote, and their adjacency is pulled with one
        aggregated ``GetNbrs`` RPC for the chunk.  The chunk is one
        columnar pass: one CSR gather over its pivots, the order and
        label filters as masks, and per-pivot ticks as one expression —
        a pivot costs a scan per neighbour and two emits per row kept,
        one failing ``pivot_label`` a single scan.
        """
        t = self.ctx.cost.ticks
        cluster = self.ctx.cluster
        g = cluster.pgraph.graph
        labels = self.ctx.labels
        pivot_label, nbr_label = self.spec.labels
        cluster.pull(machine, pivots[cluster.pgraph.owner[pivots] != machine])
        scanned = np.ones(len(pivots), dtype=bool)
        if pivot_label is not None and labels is not None:
            scanned = labels[pivots] == pivot_label
        sources = pivots[scanned]
        row_ids, vs = csr_gather(g.indptr, g.indices, sources)
        us = sources[row_ids]
        keep = np.ones(len(vs), dtype=bool)
        if self.spec.order == "lt":
            keep = vs > us
        elif self.spec.order == "gt":
            keep = vs < us
        if nbr_label is not None and labels is not None:
            keep &= labels[vs] == nbr_label
        item_costs = np.full(len(pivots), t.scan, dtype=np.int64)
        item_costs[scanned] = (
            np.bincount(row_ids, minlength=len(sources)) * t.scan
            + np.bincount(row_ids[keep], minlength=len(sources))
            * (2 * t.emit))
        return np.column_stack((us[keep], vs[keep])), item_costs, 0


class ExtendOp:
    """PULL-EXTEND (Algorithm 4): the cache's fetch stage, then one
    columnar intersect stage."""

    def __init__(self, spec: ExtendSpec, ctx: ExecContext, opid: str = ""):
        self.spec = spec
        self.ctx = ctx
        self.out_arity = len(spec.out_schema)
        self.opid = opid

    # -- fetch stage --------------------------------------------------------------

    def _fetch(self, machine: int, reads: np.ndarray) -> None:
        """Have the machine's cache fetch the batch's remote ``reads``
        (one entry per read, row-major over the extend columns) and
        account for what it reports: hits and misses, the stage's ticks,
        the trace."""
        ctx = self.ctx
        cache = ctx.caches[machine]
        tracer = ctx.tracer
        if tracer.enabled:
            t0 = tracer.now(machine)
            evictions0 = cache.stats.evictions
            overflow0 = cache.stats.max_overflow_ids
        hits, misses, ticks, lost = cache.fetch(ctx.cluster, machine, reads)
        if len(lost):
            # the intersect stage reads sealed entries in place; one
            # missing now was evicted mid-batch, which sealing forbids
            raise AssertionError(f"vertices {lost.tolist()} missing from "
                                 "cache during intersect stage")
        cache.stats.count(hits=hits, misses=misses)
        ctx.metrics.charge_ops(machine, ticks)
        ctx.fetch_ops += ticks
        if tracer.enabled:
            tracer.complete("fetch", machine, t0, tracer.now(machine),
                            {"op": self.opid, "remote": hits + misses,
                             "hits": hits, "misses": misses})
            tracer.counter("cache occupancy", machine,
                           {"ids": cache.size_ids})
            if cache.stats.evictions > evictions0:
                tracer.instant("cache evict", machine,
                               {"n": cache.stats.evictions - evictions0,
                                "occupancy_ids": cache.size_ids})
            if cache.stats.max_overflow_ids > overflow0:
                tracer.instant("cache overflow", machine,
                               {"ids": cache.stats.max_overflow_ids})

    # -- intersect stage ------------------------------------------------------------

    def process(self, machine: int, rows: np.ndarray,
                count_only: bool = False) -> tuple[np.ndarray, np.ndarray, int]:
        """Run fetch + intersect for one batch.

        Returns ``(output_rows, per_input_row_ticks, count)``.  With
        ``count_only`` (the compression optimisation of [63], applied to
        the final operator before the SINK) valid extensions are counted
        without materialising rows — only the count is returned.

        The intersect stage never touches the cache, so it is the same
        columnar pass behind either cache class; the batch's entries stay
        sealed until it is done.
        """
        ctx = self.ctx
        g = ctx.cluster.pgraph.graph
        # the batch's extend block, gathered once for both stages
        verts = rows[:, list(self.spec.ext)]
        lens = g.indptr[verts + 1] - g.indptr[verts]
        remote = ctx.cluster.pgraph.owner[verts] != machine
        self._fetch(machine, verts[remote])
        result = self._process_vector(machine, rows, verts, lens, remote,
                                      count_only)
        ctx.caches[machine].release()
        return result

    def _process_vector(self, machine: int, rows: np.ndarray,
                        verts: np.ndarray, lens: np.ndarray,
                        remote: np.ndarray, count_only: bool
                        ) -> tuple[np.ndarray, np.ndarray, int]:
        """Columnar intersect stage over ``rows``; ``verts`` is their
        extend-vertex block ``rows[:, ext]``, ``lens`` its adjacency
        lengths and ``remote`` marks its cells owned by another machine.

        Candidate sets are gathered straight from the global CSR (cached
        remote adjacency is the same data by construction) and the whole
        intersect chain runs as one fused kernel pass
        (:func:`~repro.core.kernels.extend_block`).  A row costs its
        multiway intersection (as
        :meth:`~repro.cluster.cost.CostModel.intersection_ops` computes
        it: the smallest list scanned, every other list probed once per
        element — the full lists, whatever window the kernel gathered),
        one cache access penalty per remote read, and its emits.
        """
        ctx = self.ctx
        t = ctx.cost.ticks
        spec = self.spec
        g = ctx.cluster.pgraph.graph
        in_arity = (self.out_arity if spec.is_verify else self.out_arity - 1)
        empty = np.empty((0, self.out_arity), dtype=np.int64)
        if not len(rows):
            return empty, np.zeros(0, np.int64), 0
        labels = ctx.labels
        penalties = np.where(
            remote, ctx.caches[machine].access_penalty(lens), 0).sum(axis=1)

        if spec.is_verify:
            lens = np.sort(lens, axis=1)
            found = fused_verify_mask(g.composite_index(), g.num_vertices,
                                      verts, rows[:, spec.verify_pos],
                                      labels, spec.new_label)
            emits = found * (1 if count_only else in_arity)
            counted = int(found.sum()) if count_only else 0
            out = empty if count_only else rows[found]
        else:
            cand, row_ids, emits, lens = extend_block(
                g, rows, verts, lens, spec.candidate_lt, spec.candidate_gt,
                labels, spec.new_label)
            counted = len(cand) if count_only else 0
            out = empty
            if not count_only:
                emits = emits * (in_arity + 1)
                if len(cand):
                    out = np.column_stack((rows[row_ids], cand))
        probes = ctx.cluster.probe_ticks[lens[:, 1:]].sum(axis=1)
        item_costs = (lens[:, 0] * (t.intersect + probes) + penalties
                      + emits * t.emit)
        return out, item_costs, counted


class SinkConsumer:
    """SINK: counts (and optionally collects) final results (§4.2)."""

    def __init__(self, schema: tuple[int, ...], collect: bool = False):
        self.schema = schema
        self.collect = collect
        self.count = 0
        self._collected: list[np.ndarray] = []

    def consume(self, machine: int, rows: np.ndarray) -> None:
        """Absorb one batch of final results."""
        self.count += len(rows)
        if self.collect and len(rows):
            self._collected.append(rows)

    def consume_count(self, machine: int, n: int) -> None:
        """Absorb a compressed (count-only) result contribution."""
        self.count += n

    def matches(self) -> list[Tuple]:
        """Collected matches reordered to query-vertex order (f(0), f(1), …)."""
        if not self.collect:
            raise ValueError("sink was not collecting results")
        perm = sorted(range(len(self.schema)), key=lambda i: self.schema[i])
        if not self._collected:
            return []
        rows = np.concatenate(self._collected)
        return [tuple(r) for r in rows[:, perm].tolist()]


class JoinBuffer:
    """One side of a buffered PUSH-JOIN (§4.3).

    Consumes a segment's output, shuffles each row to the machine owning
    its join key (hash partitioning via the router) and buffers it there.
    When a machine's buffer exceeds the in-memory threshold the overflow is
    externally sorted and spilled: memory stays bounded at the threshold
    while sort ops and spilled bytes are charged.  Buffers are columnar:
    per-machine lists of row-array slices, concatenated once at join time.
    """

    def __init__(self, ctx: ExecContext, key_pos: tuple[int, ...],
                 arity: int, buffer_tuples: int):
        self.ctx = ctx
        self.key_pos = key_pos
        self.arity = arity
        self.buffer_tuples = buffer_tuples
        k = ctx.cluster.num_machines
        self._parts: list[list[np.ndarray]] = [[] for _ in range(k)]
        self._in_memory = [0] * k
        self.total = 0

    def rows_for(self, machine: int) -> np.ndarray:
        """A machine's buffered rows as one contiguous array."""
        parts = self._parts[machine]
        if not parts:
            return np.empty((0, self.arity), dtype=np.int64)
        if len(parts) > 1:
            self._parts[machine] = parts = [np.concatenate(parts)]
        return parts[0]

    def consume(self, machine: int, rows: np.ndarray) -> None:
        """Shuffle one batch into the per-machine buffers."""
        if not len(rows):
            return
        ctx = self.ctx
        cost = ctx.cost
        tracer = ctx.tracer
        dests = hash_destinations(rows[:, list(self.key_pos)],
                                  len(self._parts))
        self.total += len(rows)
        tuple_bytes = self.arity * cost.bytes_per_id
        for dest in np.unique(dests).tolist():
            mask = dests == dest
            part = rows[mask]
            n = len(part)
            self._parts[dest].append(part)
            traced = tracer.enabled and dest != machine
            if traced:
                t0 = tracer.now(dest)
            ctx.cluster.push(machine, dest, n, self.arity)
            ctx.metrics.alloc(dest, n * tuple_bytes)
            self._in_memory[dest] += n
            if self._in_memory[dest] > self.buffer_tuples:
                spill = self._in_memory[dest] - self.buffer_tuples
                # external merge sort of the spilled run, then write out
                passes = max(1.0, math.log2(max(2, spill)))
                ctx.metrics.charge_ops(
                    dest, spill * to_ticks(cost.sort_op * passes))
                ctx.metrics.record_spill(dest, spill * tuple_bytes)
                ctx.metrics.free(dest, spill * tuple_bytes)
                self._in_memory[dest] = self.buffer_tuples
            if traced:
                tracer.complete("shuffle recv", dest, t0, tracer.now(dest),
                                {"from": machine, "tuples": n})

    def release(self, machine: int) -> None:
        """Free a machine's buffered memory after the join consumed it."""
        cost = self.ctx.cost
        self.ctx.metrics.free(
            machine, self._in_memory[machine] * self.arity * cost.bytes_per_id)
        self._in_memory[machine] = 0
        self._parts[machine] = []


def join_stream(ctx: ExecContext, spec: JoinSpec, left: JoinBuffer,
                right: JoinBuffer, machine: int, batch_size: int,
                opid: str = ""):
    """Local hash join of the two buffered sides on ``machine``.

    Builds on the smaller side, probes with the larger, applies the
    cross-side distinctness and symmetry filters, and yields output batches
    of at most ``batch_size`` rows.  Per-probe worker costs are returned
    through the scheduler path (the caller charges them).
    """
    try:
        yield from _join_stream_inner(ctx, spec, left, right, machine,
                                      batch_size, opid)
    finally:
        # release in a finally so an abandoned generator (early error or
        # termination upstream) cannot leak the buffered memory from the
        # ledger: generator close/GC still frees both sides exactly once
        left.release(machine)
        right.release(machine)


def _join_stream_inner(ctx: ExecContext, spec: JoinSpec, left: JoinBuffer,
                       right: JoinBuffer, machine: int, batch_size: int,
                       opid: str = ""):
    t = ctx.cost.ticks
    tracer = ctx.tracer
    lrows = left.rows_for(machine)
    rrows = right.rows_for(machine)
    build_left = len(lrows) <= len(rrows)
    build, probe = (lrows, rrows) if build_left else (rrows, lrows)
    build_key, probe_key = ((spec.left_key, spec.right_key) if build_left
                            else (spec.right_key, spec.left_key))

    if tracer.enabled:
        t_seg = tracer.now(machine)
    ctx.metrics.charge_ops(machine, len(build) * t.hash_build)
    if tracer.enabled:
        tracer.complete("build", machine, t_seg, tracer.now(machine),
                        {"op": opid, "tuples": len(build)})
        t_seg = tracer.now(machine)

    emitted, emit_per_probe = join_rows(
        build, probe, build_key, probe_key, build_left, spec.right_carry,
        spec.cross_distinct, spec.cross_conditions)
    total = len(emitted)
    charges = chunk_charges(emit_per_probe, total, batch_size, t.hash_probe,
                            len(spec.out_schema) * t.emit)
    num_full = total // batch_size
    for c in range(num_full):
        ctx.metrics.charge_ops(machine, charges[c])
        if tracer.enabled:
            tracer.complete("probe", machine, t_seg, tracer.now(machine),
                            {"op": opid})
        yield emitted[c * batch_size:(c + 1) * batch_size]
        # the clock advanced while the consumer ran; restart the probe
        # span at the resume point or it would straddle the consumer's
        # own spans and break strict nesting
        if tracer.enabled:
            t_seg = tracer.now(machine)
    ctx.metrics.charge_ops(machine, charges[num_full])
    if tracer.enabled:
        tracer.complete("probe", machine, t_seg, tracer.now(machine),
                        {"op": opid})
    if total % batch_size:
        yield emitted[num_full * batch_size:]
