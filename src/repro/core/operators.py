"""Runtime operators: SCAN, PULL-EXTEND, PUSH-JOIN, SINK (paper §4).

Operators interpret the declarative specs of :mod:`repro.core.dataflow` on
the simulated cluster.  All enumeration work is real — tuples are produced,
intersected and filtered exactly — while compute ops, RPC bytes/messages
and memory are charged to the metrics ledger.

A batch is a plain ``(n, arity)`` ``int64`` array, one row per partial
match, one column per matched query vertex (a SCAN's input is a 1-D array
of pivot ids); operators take and return such arrays and a queue slices
them.  SCAN and PULL-EXTEND take a *stacked step*: the head batches of
several machines, concatenated in machine order, beside a machine column
naming each row's machine (or one machine id for every row).  Rows never
interact, so one call does for every machine what a call per machine
would: SCAN, both stages of PULL-EXTEND and the join run as array
programs over the whole step — the symmetry window, intersections,
distinctness, label filters, emission, and LRBU's fetch stage
(membership, sealing, admission and eviction on ``(machine, id)``-indexed
arrays, in one compiled call with the intersect stage).  The one
per-vertex loop left is :meth:`LRUCache.fetch
<repro.core.cache.LRUCache.fetch>`, whose access order *is* the model.
Charges are integer ticks (:mod:`repro.cluster.cost`): a row's cost is
its counts times tick weights, and the scheduler splits costs and
outputs back to their machines by the column.

``PULL-EXTEND`` implements the two-stage execution strategy of Algorithm 4:
a *fetch* stage that makes the batch's remote vertices resident, then an
*intersect* stage that runs the multiway intersections — or a VERIFY's
membership probes — as one pass of one compiled loop (``extend_rows`` of
``kernels.c``) whichever the cache class, so a step probes, charges and
counts its searched probes alike behind either.  The split exists so
that the cache never touches the intersection: *how* a batch is fetched
is the cache class's — :class:`~repro.core.cache.LRBUCache` seals cached
vertices and pulls the misses with one aggregated ``GetNbrs`` RPC per
owner, in the same compiled call as the intersect stage
(``pull_extend_step``); :class:`~repro.core.cache.LRUCache` (the
Cncr-LRU ablation) makes one cache access per remote read and one RPC
pair per miss, in front of :func:`~repro.core.kernels.extend_block` —
and the operator counts, charges, checks and traces whatever either
reports.
"""

from __future__ import annotations

import math

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.cost import to_ticks
from ..obs.trace import NULL_TRACER
from .cache import LRBUCache, LRUCache
from .dataflow import ExtendSpec, JoinSpec, ScanSpec
from .kernels import (csr_gather, extend_block, hash_destinations,
                      join_blocks, join_chunks)
from .stealing import distribute_to_workers

__all__ = ["ExecContext", "ScanOp", "ExtendOp", "SinkConsumer", "JoinBuffer",
           "join_stream", "Tuple"]

Tuple = tuple[int, ...]
Cache = LRBUCache | LRUCache


class ExecContext:
    """Shared execution state for one engine run."""

    def __init__(self, cluster: Cluster, cache: Cache | None,
                 tracer=None):
        self.cluster = cluster
        #: every machine's PULL-EXTEND cache, one object
        self.cache = cache
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

    def process(self, machines, pivots: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Expand each pivot ``u`` into rows ``(u, v)`` for its neighbours
        ``v`` passing the symmetry order filter; ``machines`` names each
        pivot's machine (a column, or one id).  Returns ``(rows,
        per_pivot_ticks, per_pivot_rows)``, rows in pivot order.

        Pivots re-homed by inter-machine work stealing are remote: their
        adjacency is pulled with one aggregated ``GetNbrs`` RPC per
        (machine, owner).  The step is one columnar pass: one CSR gather
        over every machine's pivots, the order and label filters as
        masks, and per-pivot ticks as one expression — a scan per
        neighbour and two emits per row kept, one failing
        ``pivot_label`` a single scan.
        """
        t = self.ctx.cost.ticks
        cluster = self.ctx.cluster
        g = cluster.pgraph.graph
        labels = self.ctx.labels
        pivot_label, nbr_label = self.spec.labels
        machines = np.broadcast_to(machines, pivots.shape)
        remote = cluster.pgraph.owner[pivots] != machines
        cluster.pull(machines[remote], pivots[remote])
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
        emitted = np.zeros(len(pivots), dtype=np.int64)
        emitted[scanned] = np.bincount(row_ids[keep], minlength=len(sources))
        item_costs = np.full(len(pivots), t.scan, dtype=np.int64)
        item_costs[scanned] = (
            np.bincount(row_ids, minlength=len(sources)) * t.scan)
        item_costs += emitted * (2 * t.emit)
        return np.column_stack((us[keep], vs[keep])), item_costs, emitted


class ExtendOp:
    """PULL-EXTEND (Algorithm 4): the cache's fetch stage, then one
    columnar intersect stage, then the step's ticks dealt to each
    machine's workers.

    Over an :class:`~repro.core.cache.LRBUCache` every step — extending,
    VERIFY or empty — is one compiled call
    (:meth:`LRBUCache.pull_extend <repro.core.cache.LRBUCache.pull_extend>`:
    fetch stage, intersect stage, worker deal and release), and the
    operator charges what it returns.  Over an ``LRUCache`` the step is
    composed: the cache's per-access
    :meth:`~repro.core.cache.LRUCache.fetch`, :meth:`_process_vector`
    and :func:`~repro.core.stealing.distribute_to_workers`.  Either way the
    operator deals the ticks: the scheduler charges the per-worker totals
    :meth:`step` returns.
    """

    def __init__(self, spec: ExtendSpec, ctx: ExecContext, opid: str = ""):
        self.spec = spec
        self.ctx = ctx
        self.out_arity = len(spec.out_schema)
        self.opid = opid
        self._ext = list(spec.ext)

    # -- one step -----------------------------------------------------------------

    def process(self, machines, rows: np.ndarray, count_only: bool = False
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run fetch + intersect for one stacked step; ``machines`` names
        each row's machine (a column, or one id for every row).

        Returns ``(output_rows, per_row_ticks, per_row_outputs)``, output
        rows in input-row order.  With ``count_only`` (the compression
        optimisation of [63], applied to the final operator before the
        SINK) extensions are counted, not materialised: no output rows.
        The intersect stage never touches the cache, so it is the same
        pass behind either cache class; the step's entries stay sealed
        until it is done.
        """
        out, ticks, produced, _ = self._run(machines, rows, count_only, True)
        return out, ticks, produced

    def step(self, machines, rows: np.ndarray, count_only: bool,
             steal: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`process` for the scheduler: ``(output_rows, per_worker,
        per_row_outputs)``, where ``per_worker[b]`` is batch ``b``'s ticks
        dealt to its machine's workers (a batch is a run of one machine's
        rows; heaviest first in a snake when ``steal``, else all to the
        worker its first row's pivot picks)."""
        out, _, produced, per_worker = self._run(machines, rows, count_only,
                                                 steal)
        return out, per_worker, produced

    def _run(self, machines, rows: np.ndarray, count_only: bool,
             steal: bool):
        """The step on its cache class's path: ``(out, ticks, produced,
        per_worker)``."""
        ctx = self.ctx
        cache = ctx.cache
        cluster = ctx.cluster
        g = cluster.pgraph.graph
        machines = np.broadcast_to(np.asarray(machines, dtype=np.int64),
                                   len(rows))
        cache.cover(cluster.num_machines, g.num_vertices)
        snapshot = self._snapshot()
        if isinstance(cache, LRUCache):
            # the step's extend block, gathered once for both stages
            verts = rows[:, self._ext]
            self._charge_fetch(machines, *cache.fetch(cluster, machines,
                                                      verts), snapshot)
            out, ticks, produced = self._process_vector(machines, rows,
                                                        verts, count_only)
            starts = np.flatnonzero(np.r_[len(rows) > 0,
                                          machines[1:] != machines[:-1]])
            per_worker = distribute_to_workers(
                ticks, cluster.workers_per_machine, steal, rows[starts, 0],
                np.repeat(np.arange(len(starts)),
                          np.diff(np.r_[starts, len(rows)])))
            return out, ticks, produced, per_worker
        out, ticks, produced, per_worker, fetched, pulls, lost = (
            cache.pull_extend(cluster, machines, rows, self.spec, ctx.labels,
                              count_only, steal))
        requests, response_ids = pulls.reshape(2, -1)
        pairs = np.flatnonzero(requests)
        if len(pairs):
            cluster.account_pulls(pairs, requests[pairs], response_ids[pairs])
        self._charge_fetch(machines, *fetched, lost, snapshot)
        if count_only:
            out = np.empty((0, self.out_arity), dtype=np.int64)
        return out, ticks, produced, per_worker

    # -- fetch stage --------------------------------------------------------------

    def _snapshot(self):
        """What a traced step's fetch spans are measured from: every
        clock, and the cache's evictions and worst overflows."""
        ctx = self.ctx
        if not ctx.tracer.enabled:
            return None
        stats = ctx.cache.stats
        return (ctx.tracer.now_all(), stats.evicted.copy(),
                stats.overflow.copy())

    def _charge_fetch(self, machines: np.ndarray, hits: np.ndarray,
                      misses: np.ndarray, ticks: np.ndarray,
                      lost: np.ndarray, snapshot) -> None:
        """Account for what the fetch stage reports, one ledger call per
        column (the distinct hits and misses and the bookkeeping ticks, per
        machine; ``lost``, the ids it sealed or admitted that are not
        resident) and trace it from ``snapshot`` (:meth:`_snapshot`)."""
        ctx = self.ctx
        cache = ctx.cache
        metrics = ctx.metrics
        tracer = ctx.tracer
        if len(lost):
            # the intersect stage reads sealed entries in place; one
            # missing now was evicted mid-batch, which sealing forbids
            raise AssertionError(f"vertices {lost.tolist()} missing from "
                                 "cache during intersect stage")
        live = np.flatnonzero(hits + misses)
        metrics.record_cache(live, hits[live], misses[live])
        metrics.charge_ops(live, ticks[live])
        ctx.fetch_ops += int(ticks.sum())
        if snapshot is not None:
            t0s, evicted0, overflow0 = snapshot
            evicted = cache.stats.evicted - evicted0
            overflow = cache.stats.overflow
            for m in np.unique(machines).tolist():
                h, n = int(hits[m]), int(misses[m])
                tracer.complete("fetch", m, t0s[m], tracer.now(m),
                                {"op": self.opid, "remote": h + n,
                                 "hits": h, "misses": n})
                occupancy = cache.occupancy(m)
                tracer.counter("cache occupancy", m, {"ids": occupancy})
                if evicted[m]:
                    tracer.instant("cache evict", m,
                                   {"n": int(evicted[m]),
                                    "occupancy_ids": occupancy})
                if overflow[m] > overflow0[m]:
                    tracer.instant("cache overflow", m,
                                   {"ids": int(overflow[m])})

    # -- intersect stage ------------------------------------------------------------

    def _process_vector(self, machines: np.ndarray, rows: np.ndarray,
                        verts: np.ndarray, count_only: bool
                        ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Columnar intersect stage over ``rows`` (row ``i`` machine
        ``machines[i]``'s) behind an ``LRUCache``'s fetch stage;
        ``verts`` is their extend-vertex block ``rows[:, ext]``.

        Candidate sets are gathered straight from the global CSR (cached
        remote adjacency is the same data by construction) and the whole
        intersect chain — or a VERIFY's probes of its one candidate per
        row — runs as one compiled pass
        (:func:`~repro.core.kernels.extend_block`, the loop the LRBU step
        runs too), which writes the output rows and each row's
        intersection charge.  A row costs its multiway intersection (as
        :meth:`~repro.cluster.cost.CostModel.intersection_ops` computes
        it: the smallest list scanned, every other list probed once per
        element — the full lists, whatever window the kernel gathered),
        one cache access penalty per remote read where the cache variant
        charges one, and its emits.
        """
        ctx = self.ctx
        t = ctx.cost.ticks
        spec = self.spec
        cluster = ctx.cluster
        g = cluster.pgraph.graph
        empty = np.empty((0, self.out_arity), dtype=np.int64)
        if not len(rows):
            return empty, np.zeros(0, np.int64), np.zeros(0, np.int64)
        lens = g.indptr[verts + 1] - g.indptr[verts]
        penalty = ctx.cache.access_penalty(lens)
        penalties = 0
        if np.any(penalty):
            remote = cluster.pgraph.owner[verts] != machines[:, None]
            penalties = np.where(remote, penalty, 0).sum(axis=1)
        out, produced, ticks = extend_block(
            g, rows, verts, lens, spec.candidate_lt, spec.candidate_gt,
            t.intersect, cluster.probe_ticks, ctx.labels, spec.new_label,
            count_only,
            verify=-1 if spec.verify_pos is None else spec.verify_pos)
        emits = produced if count_only else produced * self.out_arity
        return (empty if count_only else out,
                ticks + penalties + emits * t.emit, produced)


class SinkConsumer:
    """SINK: counts (and optionally collects) final results (§4.2)."""

    def __init__(self, schema: tuple[int, ...], collect: bool = False):
        self.schema = schema
        self.collect = collect
        self.count = 0
        self._collected: list[np.ndarray] = []

    def consume(self, machines, rows: np.ndarray) -> None:
        """Absorb one step of final results (``machines``, the rows'
        machine column, does not matter to a sink)."""
        self.count += len(rows)
        if self.collect and len(rows):
            self._collected.append(rows)

    def consume_count(self, machines, n: int) -> None:
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
    When a machine's buffer exceeds the in-memory threshold the overflow
    is *charged* as externally sorted and spilled — the sort ops and the
    spilled bytes go on the ledger, and the ledger's memory stays at the
    threshold — but nothing leaves the process: every row stays in
    ``_parts``, so the process holds each side whole.  Buffers are
    columnar: per-machine lists of row-array slices, concatenated once at
    join time.

    :meth:`consume` cuts stacked steps into pushed batches; :meth:`file`,
    the scheduler's round barrier, ships a round's batches in source
    machine, then step order — what a machine-at-a-time round pushes —
    so every destination holds the same rows and pays the same spills.
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
        #: the round's pushed batches, ``(source, step, dest, rows)``
        self._staged: list[tuple[int, int, int, np.ndarray]] = []
        self._steps = 0

    def rows_for(self, machine: int) -> np.ndarray:
        """A machine's buffered rows as one contiguous array."""
        self.file()
        parts = self._parts[machine]
        if not parts:
            return np.empty((0, self.arity), dtype=np.int64)
        if len(parts) > 1:
            self._parts[machine] = parts = [np.concatenate(parts)]
        return parts[0]

    def consume(self, sources, rows: np.ndarray) -> None:
        """Stage one step's rows, produced on ``sources`` (a column, or one
        id): one stable sort cuts a batch per (source, destination)."""
        if not len(rows):
            return
        k = len(self._parts)
        key = (np.asarray(sources, dtype=np.int64) * k
               + hash_destinations(rows[:, list(self.key_pos)], k))
        order = np.argsort(key, kind="stable")
        key = key[order]
        cuts = np.flatnonzero(key[1:] != key[:-1]) + 1
        step = self._steps
        self._steps += 1
        self._staged += [(pair // k, step, pair % k, part) for pair, part
                         in zip(key[np.r_[0, cuts]].tolist(),
                                np.split(rows[order], cuts))]

    def file(self, opid: str = "") -> None:
        """Ship the staged batches by source, then step (``opid`` labels
        the sources' ``emit`` spans)."""
        ctx = self.ctx
        cost = ctx.cost
        tracer = ctx.tracer
        tuple_bytes = self.arity * cost.bytes_per_id
        self._staged.sort(key=lambda batch: batch[:2])  # stable: dests stay
        staged, self._staged = self._staged, []
        emitting = -1
        for src, _, dest, part in staged:
            if tracer.enabled and src != emitting:
                if emitting >= 0 and tracer.now(emitting) > t_emit:
                    tracer.complete("emit", emitting, t_emit,
                                    tracer.now(emitting), {"op": opid})
                emitting, t_emit = src, tracer.now(src)
            n = len(part)
            self._parts[dest].append(part)
            traced = tracer.enabled and dest != src
            if traced:
                t0 = tracer.now(dest)
            ctx.cluster.push(src, dest, n, self.arity)
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
                                {"from": src, "tuples": n})
        if emitting >= 0 and tracer.now(emitting) > t_emit:
            tracer.complete("emit", emitting, t_emit, tracer.now(emitting),
                            {"op": opid})

    def release(self, machine: int) -> None:
        """Free a machine's buffered memory after the join consumed it."""
        cost = self.ctx.cost
        self.ctx.metrics.free(
            machine, self._in_memory[machine] * self.arity * cost.bytes_per_id)
        self._in_memory[machine] = 0
        self._parts[machine] = []


def join_stream(ctx: ExecContext, spec: JoinSpec, left: JoinBuffer,
                right: JoinBuffer, machine: int, batch_size: int,
                opid: str = "", materialise: bool = True):
    """Local hash join of the two buffered sides on ``machine``.

    Builds on the smaller side, probes with the larger, applies the
    cross-side distinctness and symmetry filters, and yields output batches
    of at most ``batch_size`` rows, charging each as it goes.  The join
    runs in blocks of at most :data:`~repro.core.kernels.JOIN_BLOCK_PAIRS`
    key matches (:func:`~repro.core.kernels.join_chunks`), so the process
    holds one block and one batch, not the machine's whole output.

    Unless ``materialise`` (a join that feeds a counting SINK directly)
    the batches are column-less ``(n, 0)`` arrays: the filters still run
    on the index pairs, but no output row is gathered.  The batches, their
    charges (full-width emits included) and the spans are the same.
    """
    try:
        yield from _join_stream_inner(ctx, spec, left, right, machine,
                                      batch_size, opid, materialise)
    finally:
        # release in a finally so an abandoned generator (early error or
        # termination upstream) cannot leak the buffered memory from the
        # ledger: generator close/GC still frees both sides exactly once
        left.release(machine)
        right.release(machine)


def _join_stream_inner(ctx: ExecContext, spec: JoinSpec, left: JoinBuffer,
                       right: JoinBuffer, machine: int, batch_size: int,
                       opid: str, materialise: bool):
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

    blocks = join_blocks(build, probe, build_key, probe_key, build_left,
                         spec.right_carry, spec.cross_distinct,
                         spec.cross_conditions, materialise)
    for rows, ticks in join_chunks(blocks, batch_size, t.hash_probe,
                                   len(spec.out_schema) * t.emit):
        ctx.metrics.charge_ops(machine, ticks)
        if tracer.enabled:
            tracer.complete("probe", machine, t_seg, tracer.now(machine),
                            {"op": opid})
        if len(rows) < batch_size:  # the residual chunk comes last
            if len(rows):
                yield rows
            return
        yield rows
        # the clock advanced while the consumer ran; restart the probe
        # span at the resume point or it would straddle the consumer's
        # own spans and break strict nesting
        if tracer.enabled:
            t_seg = tracer.now(machine)
