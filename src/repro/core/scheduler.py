"""The DFS/BFS-adaptive scheduler (paper Algorithm 5 and §5.4).

Every operator owns a fixed-capacity output queue.  A scheduled operator
consumes input batches until its output queue is full (then it *yields*
and the successor is scheduled — BFS-style progress turning DFS-like under
memory pressure) or its input is empty (then the scheduler backtracks to
the precursor).  Shrinking the queue capacity toward zero degrades to pure
DFS scheduling; growing it to infinity degrades to pure BFS — exactly the
sweep of Exp-7 (Figure 9).

``PUSH-JOIN`` is a global synchronisation barrier (§5.4): the two child
segments run to completion into shuffled join buffers before the parent
segment streams the join output through its own adaptive chain.

:func:`run_program` is the one driver over a compiled
:class:`~repro.core.dataflow.Program`: ``PUSH-JOIN`` children into join
buffers, a chain into its sink, a tee buffer plus one replay per member
only where the head has more than one consumer (a share group of N > 1).
Operator ids, kinds and span names come from the program's operator
table; nothing here numbers operators.

Inter-machine work stealing (§5.3) re-homes queued batches from busy to
idle machines before each scheduling round; intra-machine stealing is
applied when attributing batch item costs to workers (see
:mod:`repro.core.stealing`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..cluster.cost import TICKS_PER_OP
from ..cluster.errors import PlanError
from ..obs.trace import ENGINE
from .cancel import CancelToken
from .dataflow import JoinSpec, Operator, Program, ScanSpec, Segment
from .operators import (ExecContext, ExtendOp, JoinBuffer, ScanOp,
                        SinkConsumer, join_stream)
from .stealing import STEALING_MODES, distribute_to_workers, rebalance

__all__ = ["SchedulerConfig", "run_program"]


@dataclass
class SchedulerConfig:
    """Knobs of the adaptive scheduler and the pulling runtime."""

    batch_size: int = 1024
    """Tuples per batch — the minimum data processing unit (§4.2; the
    paper's default is 512 K at cluster scale).  Larger batches aggregate
    more GetNbrs requests per RPC (Exp-4)."""

    output_queue_capacity: float = 16384
    """Output-queue capacity in tuples (the paper's default is 5·10⁷).
    ``0`` gives pure DFS scheduling, ``inf`` pure BFS (Exp-7)."""

    scan_pivot_chunk: int = 64
    """Pivot vertices per SCAN input chunk."""

    stealing: str = "full"
    """One of :data:`~repro.core.stealing.STEALING_MODES`."""

    join_buffer_tuples: int = 1 << 16
    """In-memory buffer threshold per machine per PUSH-JOIN side (§4.3)."""

    steal_threshold: float = 3.0
    """Inter-machine stealing triggers when the heaviest input channel
    exceeds this multiple of the lightest (see
    :func:`~repro.core.stealing.rebalance`)."""

    cancellation: "CancelToken | None" = field(
        default=None, repr=False, compare=False)
    """Optional :class:`~repro.core.cancel.CancelToken` polled once per
    scheduling round; when it fires the run aborts with
    :class:`~repro.cluster.errors.QueryCancelledError` (client cancel or
    wall-clock deadline — the serving layer's per-query timeout)."""

    def __post_init__(self) -> None:
        if self.stealing not in STEALING_MODES:
            raise ValueError(f"unknown stealing mode {self.stealing!r}; "
                             f"choose from {STEALING_MODES}")
        if self.batch_size < 1 or self.scan_pivot_chunk < 1:
            raise ValueError("batch sizes must be positive")


# -- source feeds -------------------------------------------------------------------


class _ChunkFeed:
    """Ready-made input chunks per machine: an edge SCAN's pivot-vertex
    chunks, or a tee buffer's batches replayed into one tail chain."""

    def __init__(self, chunks: Iterable[Iterable[np.ndarray]]):
        self.chunks = [deque(per_machine) for per_machine in chunks]

    def has_input(self, machine: int) -> bool:
        return bool(self.chunks[machine])

    def next_batch(self, machine: int) -> np.ndarray:
        return self.chunks[machine].popleft()


class _JoinFeed:
    """Streaming output of a PUSH-JOIN, one peekable generator per machine."""

    def __init__(self, generators: Sequence[Iterator[np.ndarray]]):
        self._gens = list(generators)
        self._peek: list[np.ndarray | None] = [None] * len(self._gens)

    def _fill(self, machine: int) -> None:
        if self._peek[machine] is None:
            self._peek[machine] = next(self._gens[machine], None)

    def has_input(self, machine: int) -> bool:
        self._fill(machine)
        return self._peek[machine] is not None

    def next_batch(self, machine: int) -> np.ndarray:
        self._fill(machine)
        batch = self._peek[machine]
        if batch is None:
            raise IndexError(f"join feed exhausted on machine {machine}")
        self._peek[machine] = None
        return batch


class _TeeBuffer:
    """Materialised output of a share group's head chain (work sharing).

    Consumes the common prefix's final batches per machine, charging
    their footprint to the simulated memory ledger, and replays them into
    each member's tail chain.  ``release`` returns the charged bytes once
    every member has been fed (the ledger must drain).

    Deliberately *not* a :class:`SinkConsumer`: the prefix chain's last
    operator must materialise its tuples (no count-only compression) —
    the tails extend them further.
    """

    def __init__(self, ctx: ExecContext, arity: int):
        self.metrics = ctx.metrics
        self.row_bytes = arity * ctx.cost.bytes_per_id
        self.batches: list[list[np.ndarray]] = [
            [] for _ in range(ctx.cluster.num_machines)]

    def consume(self, machine: int, batch: np.ndarray) -> None:
        if len(batch):
            self.batches[machine].append(batch)
            self.metrics.alloc(machine, len(batch) * self.row_bytes)

    def replay(self) -> _ChunkFeed:
        """A fresh feed over the buffered prefix output."""
        return _ChunkFeed(self.batches)

    def release(self) -> None:
        """Return the buffered bytes to the simulated ledger."""
        for m, batches in enumerate(self.batches):
            for batch in batches:
                self.metrics.free(m, len(batch) * self.row_bytes)
        self.batches = [[] for _ in self.batches]


# -- the chain scheduler ---------------------------------------------------------------


@dataclass
class _Queue:
    """One operator's per-machine input queue with tuple/byte accounting."""

    batches: list[deque[np.ndarray]]
    tuples: list[int] = field(default_factory=list)

    @classmethod
    def empty(cls, k: int) -> "_Queue":
        return cls([deque() for _ in range(k)], [0] * k)


class _ChainRunner:
    """Algorithm 5 over one segment's linear chain of operators."""

    def __init__(self, ctx: ExecContext, config: SchedulerConfig,
                 segment: Segment,
                 consumer: "SinkConsumer | JoinBuffer | _TeeBuffer",
                 feed: "_JoinFeed | _ChunkFeed | None" = None,
                 ops: Sequence[Operator] | None = None):
        """``feed`` is the chain's source when it is not the segment's own
        edge SCAN: a PUSH-JOIN's output stream or a tee-buffer replay.
        ``ops`` is the chain's rows of the program's operator table (a
        bare segment run on its own is segment 0)."""
        self.ctx = ctx
        self.config = config
        self.consumer = consumer
        k = ctx.cluster.num_machines
        self.k = k

        self.source_op: ScanOp | None = None
        if feed is None:
            if not isinstance(segment.source, ScanSpec):
                raise PlanError(
                    "a chain without a feed must start with an edge scan")
            chunk = config.scan_pivot_chunk
            feed = _ChunkFeed(
                [local[i:i + chunk] for i in range(0, len(local), chunk)]
                for local in map(ctx.cluster.local_vertices, range(k)))
            self.source_op = ScanOp(segment.source, ctx)
        self.feed = feed
        # ops[0] is the source, ops[i + 1] extend i
        self.ops = ops if ops is not None else segment.operators()
        self.extend_ops = [ExtendOp(spec, ctx, opid=self.ops[i + 1].opid)
                           for i, spec in enumerate(segment.extends)]
        # queues[i] is the input channel of extend i (the output queue of
        # the operator before it); the chain is source -> extends -> consumer
        self.queues = [_Queue.empty(k) for _ in self.extend_ops]
        self.compress_final = self._can_compress_final()

    def _can_compress_final(self) -> bool:
        """Whether the last operator may count instead of materialise (the
        compression optimisation [63], §7.1): only into a non-collecting
        SINK, and only when the chain ends in a PULL-EXTEND."""
        return (isinstance(self.consumer, SinkConsumer)
                and not self.consumer.collect
                and bool(self.extend_ops))

    # -- queue plumbing ----------------------------------------------------------

    def _enqueue(self, level: int, machine: int, out: np.ndarray,
                 arity: int) -> None:
        """Append an output batch (re-sliced) to a queue, charging memory."""
        n = len(out)
        if not n:
            return
        q = self.queues[level]
        size = self.config.batch_size
        q.batches[machine].extend(out[i:i + size] for i in range(0, n, size))
        q.tuples[machine] += n
        self.ctx.metrics.alloc(
            machine, n * arity * self.ctx.cost.bytes_per_id)
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.counter(f"queue {self.ops[level + 1].opid}", machine,
                           {"tuples": q.tuples[machine]})

    def _dequeue(self, level: int, machine: int, arity: int) -> np.ndarray:
        q = self.queues[level]
        batch = q.batches[machine].popleft()
        q.tuples[machine] -= len(batch)
        self.ctx.metrics.free(
            machine, len(batch) * arity * self.ctx.cost.bytes_per_id)
        tracer = self.ctx.tracer
        if tracer.enabled:
            tracer.counter(f"queue {self.ops[level + 1].opid}", machine,
                           {"tuples": q.tuples[machine]})
        return batch

    def _has_input(self, level: int) -> bool:
        """Whether operator ``level`` has input anywhere (-1 = source)."""
        if level < 0:
            return any(self.feed.has_input(m) for m in range(self.k))
        return any(self.queues[level].batches[m] for m in range(self.k))

    # -- stealing ------------------------------------------------------------------

    def _steal(self, level: int) -> None:
        """Inter-machine stealing on the input channel of ``level``."""
        mode = self.config.stealing
        if mode == "none":
            return
        if mode == "region-group" and level >= 0:
            return  # RGP only redistributes initial pivots
        metrics = self.ctx.metrics
        tracer = self.ctx.tracer
        if tracer.enabled:
            t0s = tracer.now_all()
        bytes_per_id = self.ctx.cost.bytes_per_id
        threshold = self.config.steal_threshold
        moved: dict[tuple[int, int], int] = {}
        unit = "ids"
        if level < 0:
            if self.source_op is not None:  # only pivot chunks re-home
                for src, dst, chunk in rebalance(self.feed.chunks,
                                                 threshold=threshold):
                    moved[(src, dst)] = moved.get((src, dst), 0) + len(chunk)
                    metrics.record_steal(dst)
                for (src, dst), ids in moved.items():
                    metrics.send(src, dst, ids * bytes_per_id)
        else:
            unit = "bytes"
            q = self.queues[level]
            arity = self._in_arity(level)
            # one StealWork RPC moves a bulk of batches per (donor, thief)
            # pair
            for src, dst, batch in rebalance(q.batches, threshold=threshold):
                q.tuples[src] -= len(batch)
                q.tuples[dst] += len(batch)
                nbytes = len(batch) * arity * bytes_per_id
                metrics.free(src, nbytes)
                metrics.alloc(dst, nbytes)
                moved[(src, dst)] = moved.get((src, dst), 0) + nbytes
                metrics.record_steal(dst)
            for (src, dst), nbytes in moved.items():
                metrics.send(src, dst, nbytes)
        if tracer.enabled and moved:
            for (src, dst), amount in moved.items():
                tracer.instant("steal", dst,
                               {"src": src, unit: amount, "level": level})
            t1s = tracer.now_all()
            for m in range(self.k):
                if t1s[m] > t0s[m]:
                    tracer.complete("steal window", m, t0s[m], t1s[m],
                                    {"level": level})

    # -- scheduling ---------------------------------------------------------------------

    def _schedule(self, level: int) -> None:
        """Run operator ``level`` on every machine until its output queue
        fills or its input empties (the inner loop of Algorithm 5)."""
        ctx = self.ctx
        t = ctx.cost.ticks
        metrics = ctx.metrics
        tracer = ctx.tracer
        traced = tracer.enabled
        config = self.config
        stealing_workers = config.stealing == "full"
        workers = ctx.cluster.workers_per_machine
        last = len(self.extend_ops) - 1
        opid, _, span_name, _ = self.ops[level + 1]
        if traced:
            # snapshot every clock before any charge: spans on machine d
            # caused by machine m's sends must nest inside d's round span
            t_round = tracer.now_all()

        for m in range(self.k):
            metrics.charge_ops(m, t.sched_switch)
        self._steal(level)

        for m in range(self.k):
            while True:
                if level < 0:
                    if not self.feed.has_input(m):
                        break
                else:
                    if not self.queues[level].batches[m]:
                        break
                # yield when the output queue is already at capacity; an
                # empty queue never blocks, so capacity 0 degrades to
                # process-one-batch-then-yield (pure DFS) instead of
                # livelocking
                if level < last:
                    pending = self.queues[level + 1].tuples[m]
                    if pending and pending >= config.output_queue_capacity:
                        if traced:
                            tracer.instant("yield", m, {"op": opid,
                                                        "queued": pending})
                        break

                if traced:
                    t0 = tracer.now(m)
                    bytes0 = tracer.bytes_moved(m)
                counted = 0
                if level < 0:
                    batch = self.feed.next_batch(m)
                    if self.source_op is not None:
                        out, item_costs, counted = self.source_op.process(
                            m, batch)
                        out_arity = 2
                    else:
                        out = batch  # join output / replay: already a batch
                        item_costs = ()
                        out_arity = out.shape[1]
                else:
                    op = self.extend_ops[level]
                    batch = self._dequeue(level, m, self._in_arity(level))
                    count_only = level == last and self.compress_final
                    out, item_costs, counted = op.process(
                        m, batch, count_only=count_only)
                    out_arity = op.out_arity
                # without stealing, work sticks to the worker that owns
                # the batch's firstly matched (pivot) vertex (§5.3): the
                # first element of a pivot chunk and of a block of rows
                pivot = batch.item(0) if batch.size else 0
                n_in = len(batch)

                if traced:
                    t_mid = tracer.now(m)
                if len(item_costs):
                    per_worker = distribute_to_workers(
                        item_costs, workers, stealing_workers,
                        assign_key=pivot)
                    metrics.charge_worker_ops(m, per_worker)
                metrics.charge_ops(m, t.batch_overhead)

                if traced:
                    t1 = tracer.now(m)
                    if level >= 0:
                        # the cost model charges the intersection /
                        # verification ops after ``process`` returns, so
                        # [t_mid, t1] is exactly the intersect stage and the
                        # fetch span (emitted inside ``_fetch``) ends at
                        # t_mid: fetch + intersect == the operator span
                        tracer.complete("intersect", m, t_mid, t1,
                                        {"op": opid})
                    tracer.complete(
                        span_name, m, t0, t1,
                        {"op": opid, "in": n_in, "out": len(out) + counted,
                         "bytes": tracer.bytes_moved(m) - bytes0})
                    if len(item_costs):
                        if stealing_workers and workers > 1:
                            tracer.instant(
                                "intra steal", m,
                                {"op": opid, "items": len(item_costs)})
                        tracer.counter(
                            "worker ops", m,
                            {str(w): ticks / TICKS_PER_OP for w, ticks
                             in enumerate(metrics.machines[m].worker_ops)})

                if level < last:
                    self._enqueue(level + 1, m, out, out_arity)
                elif counted and not len(out):
                    self.consumer.consume_count(m, counted)
                else:
                    self.consumer.consume(m, out)
                if traced:
                    t2 = tracer.now(m)
                    if t2 > t1:
                        # local cost of handing the batch downstream (e.g.
                        # the send side of a PUSH-JOIN shuffle)
                        tracer.complete("emit", m, t1, t2, {"op": opid})
        if traced:
            for m in range(self.k):
                t_end = tracer.now(m)
                if t_end > t_round[m]:
                    tracer.complete("schedule", m, t_round[m], t_end,
                                    {"op": opid, "level": level})
        metrics.check_time()

    def _in_arity(self, level: int) -> int:
        """Arity of tuples entering extend ``level``."""
        spec = self.extend_ops[level].spec
        if spec.is_verify:
            return len(spec.out_schema)
        return len(spec.out_schema) - 1

    def run(self) -> None:
        """Drive the chain to completion (the outer loop of Algorithm 5)."""
        tracer = self.ctx.tracer
        token = self.config.cancellation
        last = len(self.extend_ops) - 1
        cur = -1  # -1 = the source operator
        while True:
            if token is not None:
                token.check()
            if not self._has_input(cur):
                if cur > -1:
                    cur -= 1
                    if tracer.enabled:
                        tracer.instant("backtrack", ENGINE,
                                       {"op": self.ops[cur + 1].opid,
                                        "level": cur})
                    continue
                # source exhausted: jump forward to the first loaded operator
                pending = [i for i in range(len(self.extend_ops))
                           if self._has_input(i)]
                if not pending:
                    break
                cur = pending[0]
                continue
            self._schedule(cur)
            if cur < last:
                cur += 1
            # at the last operator the sink consumed everything; the next
            # iteration's input check backtracks (Algorithm 5 line 10)


def _run_tree(ctx: ExecContext, config: SchedulerConfig, segment: Segment,
              consumer, rows: Iterator[Sequence[Operator]]) -> None:
    """Run a segment tree: children (PUSH-JOIN sides) first, then the
    segment's own chain (§5.4's topological order over the join DAG) —
    the post-order the operator table was numbered in, so each chain
    takes the table's next rows.  (Module-level on purpose: a recursive
    closure is a reference cycle that holds ``ctx`` until the cyclic GC.)"""
    spec = segment.source
    sides = []
    if isinstance(spec, JoinSpec):
        for child, key in ((segment.left, spec.left_key),
                           (segment.right, spec.right_key)):
            sides.append(JoinBuffer(ctx, key, len(child.out_schema),
                                    config.join_buffer_tuples))
            _run_tree(ctx, config, child, sides[-1], rows)
    ops = next(rows)
    feed = _JoinFeed([
        join_stream(ctx, spec, *sides, m, config.batch_size,
                    opid=ops[0].opid)
        for m in range(ctx.cluster.num_machines)
    ]) if sides else None
    _ChainRunner(ctx, config, segment, consumer, feed, ops).run()


def run_program(ctx: ExecContext, config: SchedulerConfig, program: Program,
                sinks: Sequence[SinkConsumer]) -> None:
    """Execute a compiled program into one sink per member: a group of
    one runs its head straight into its sink; a head with several
    consumers runs into a tee buffer and is replayed into each tail."""
    rows = iter(program.ops)
    if not program.tails:
        _run_tree(ctx, config, program.head, sinks[0], rows)
        return
    tee = _TeeBuffer(ctx, len(program.head.out_schema))
    try:
        _run_tree(ctx, config, program.head, tee, rows)
        for tail, sink in zip(program.tails, sinks):
            _ChainRunner(ctx, config, tail, sink, tee.replay(),
                         next(rows)).run()
    finally:
        tee.release()
