"""The DFS/BFS-adaptive scheduler (paper Algorithm 5 and §5.4).

Every operator owns a fixed-capacity output queue.  A scheduled operator
consumes input batches until its output queue is full (then it *yields*
and the successor is scheduled — BFS-style progress turning DFS-like under
memory pressure) or its input is empty (then the scheduler backtracks to
the precursor).  Shrinking the queue capacity toward zero degrades to pure
DFS scheduling; growing it to infinity degrades to pure BFS — exactly the
sweep of Exp-7 (Figure 9).

A scheduling round runs as *stacked steps*: each step takes the head
batch of every machine that still has input and room in its output
queue, and makes one operator call over all of them with a machine
column; outputs, item costs and charges are split back by that column.
Machines exchange work only at round boundaries (§5.3), so each machine
processes exactly the batch sequence a machine-at-a-time round would.
(A PUSH-JOIN's output has no operator call to stack; it streams one
machine at a time.)

``PUSH-JOIN`` is a global synchronisation barrier (§5.4): the two child
segments run to completion into shuffled join buffers before the parent
segment streams the join output through its own adaptive chain.

:func:`run_tree` is the one driver over a translated segment tree:
``PUSH-JOIN`` children into join buffers, the root chain into the sink.
Operator ids, kinds and span names come from the tree's operator table
(:meth:`~repro.core.dataflow.Segment.operator_table`); nothing here
numbers operators.

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
from .dataflow import JoinSpec, Operator, ScanSpec, Segment
from .operators import (ExecContext, ExtendOp, JoinBuffer, ScanOp,
                        SinkConsumer, join_stream)
from .stealing import STEALING_MODES, distribute_to_workers, rebalance

__all__ = ["SchedulerConfig", "memory_bound_bytes", "run_tree"]


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
        # NaN fails every comparison: a NaN capacity would never yield
        if not self.output_queue_capacity >= 0:
            raise ValueError("output_queue_capacity must be >= 0 (inf = "
                             f"BFS), got {self.output_queue_capacity!r}")
        if self.join_buffer_tuples < 0:
            raise ValueError("join_buffer_tuples must be >= 0, got "
                             f"{self.join_buffer_tuples!r}")


def memory_bound_bytes(pattern_vertices: int, max_degree: int,
                       queue_capacity: float, batch_size: int,
                       cache_ids: int, joins: int, join_buffer_tuples: int,
                       bytes_per_id: int) -> float:
    """Theorem 5.4's ``O(|V_q|² · D_G)`` memory bound of one machine.

    Each of the ≤ ``|V_q|²`` operator queues holds at most its capacity
    plus one in-flight batch's expansion, ``queue_capacity + batch_size ·
    D_G`` tuples of ≤ ``|V_q|`` ids.  On top come the constant
    reservations the caller names: ``cache_ids`` of pulled adjacency and
    ``joins`` PUSH-JOINs, each buffering two sides of
    ``join_buffer_tuples`` tuples.
    """
    q = max(1, pattern_vertices)
    queue_ids = (q * q) * q * (queue_capacity
                               + batch_size * max(1, max_degree))
    join_ids = joins * 2 * join_buffer_tuples * q
    return (queue_ids + cache_ids + join_ids) * bytes_per_id


# -- source feeds -------------------------------------------------------------------


class _Feed:
    """A chain's source batches per machine: an edge SCAN's pivot chunks,
    or a PUSH-JOIN's output, drawn from one generator per machine a batch
    at a time when :meth:`has_input` finds the machine's deque empty."""

    def __init__(self, chunks: Iterable[Iterable[np.ndarray]],
                 generators: Sequence[Iterator[np.ndarray]] = ()):
        self.chunks = [deque(per_machine) for per_machine in chunks]
        self._gens = generators

    def has_input(self, machine: int) -> bool:
        queue = self.chunks[machine]
        if not queue and self._gens:
            batch = next(self._gens[machine], None)
            if batch is not None:
                queue.append(batch)
        return bool(queue)

    def next_batch(self, machine: int) -> np.ndarray:
        return self.chunks[machine].popleft()


# -- the chain scheduler ---------------------------------------------------------------


def _compress_final(consumer: "SinkConsumer | JoinBuffer") -> bool:
    """Whether a chain's last operator counts instead of materialising
    (the compression optimisation [63], §7.1): whenever it feeds a
    non-collecting SINK.  The last operator is the chain's last
    PULL-EXTEND, or, in a chain without extends, its PUSH-JOIN feed."""
    return isinstance(consumer, SinkConsumer) and not consumer.collect


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
                 consumer: "SinkConsumer | JoinBuffer",
                 feed: "_Feed | None" = None,
                 ops: Sequence[Operator] | None = None):
        """``feed`` is the chain's source when it is not the segment's own
        edge SCAN: a PUSH-JOIN's output stream.  ``ops`` is the chain's
        rows of the tree's operator table (a bare segment run on its own
        is segment 0)."""
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
            feed = _Feed(
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
        self.compress_final = _compress_final(consumer)

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

    def _ready(self, level: int, machine: int) -> bool:
        """Whether ``machine`` takes another batch of operator ``level``
        this round: it has input and room in its output queue.  An empty
        queue never blocks, so capacity 0 degrades to one batch, then
        yield (pure DFS), instead of livelocking."""
        if level < 0:
            if not self.feed.has_input(machine):
                return False
        elif not self.queues[level].batches[machine]:
            return False
        if level < len(self.extend_ops) - 1:
            pending = self.queues[level + 1].tuples[machine]
            if pending and pending >= self.config.output_queue_capacity:
                tracer = self.ctx.tracer
                if tracer.enabled:
                    tracer.instant("yield", machine,
                                   {"op": self.ops[level + 1].opid,
                                    "queued": pending})
                return False
        return True

    def _schedule(self, level: int) -> None:
        """Run operator ``level`` on every machine until its output queue
        fills or its input empties (the inner loop of Algorithm 5), as
        stacked steps: each step takes the head batch of every machine
        still ready and makes one operator call over all of them, so
        every machine processes the batch sequence it would alone."""
        ctx = self.ctx
        metrics = ctx.metrics
        tracer = ctx.tracer
        opid = self.ops[level + 1].opid
        if tracer.enabled:
            # snapshot every clock before any charge: spans on machine d
            # caused by machine m's sends must nest inside d's round span
            t_round = tracer.now_all()

        metrics.charge_ops(range(self.k), ctx.cost.ticks.sched_switch)
        self._steal(level)

        if level < 0 and self.source_op is None:
            # a PUSH-JOIN's output has no operator call to stack: it
            # streams one machine at a time, so the process holds one
            # machine's join block, as the ledger charges it
            for m in range(self.k):
                while self._ready(level, m):
                    self._step(level, [m])
        else:
            ready = range(self.k)
            while ready := [m for m in ready if self._ready(level, m)]:
                self._step(level, ready)
        if isinstance(self.consumer, JoinBuffer) and level == len(
                self.extend_ops) - 1:
            self.consumer.file(opid)  # the round barrier
        if tracer.enabled:
            for m in range(self.k):
                t_end = tracer.now(m)
                if t_end > t_round[m]:
                    tracer.complete("schedule", m, t_round[m], t_end,
                                    {"op": opid, "level": level})
        metrics.check_time()

    def _step(self, level: int, machines: list[int]) -> None:
        """One stacked step of operator ``level``: the head batch of each
        of ``machines`` (ascending), one operator call, then outputs and
        charges split back by the machine column.  Each machine's workers
        are charged its batch's ticks as dealt (§5.3): a PULL-EXTEND deals
        its own step's (:meth:`ExtendOp.step`, in the compiled step where
        there is one), a SCAN step's are dealt here."""
        ctx = self.ctx
        metrics, tracer = ctx.metrics, ctx.tracer
        workers = ctx.cluster.workers_per_machine
        last = len(self.extend_ops) - 1
        opid, _, span_name, _ = self.ops[level + 1]
        if level < 0:
            batches = [self.feed.next_batch(m) for m in machines]
        else:
            arity = self._in_arity(level)
            batches = [self._dequeue(level, m, arity) for m in machines]
        sizes = [len(b) for b in batches]
        ids = np.array(machines)
        column = np.repeat(ids, sizes)
        rows = np.concatenate(batches) if len(batches) > 1 else batches[0]
        count_only = level == last and self.compress_final
        if tracer.enabled:
            t0s = tracer.now_all()
            bytes0 = metrics.bytes_sent[ids] + metrics.bytes_received[ids]
        per_worker = None
        if level >= 0:
            out, per_worker, produced = self.extend_ops[level].step(
                column, rows, count_only, self.config.stealing == "full")
        elif self.source_op is not None:
            out, item_costs, produced = self.source_op.process(column, rows)
            # without stealing, work sticks to the worker that owns the
            # batch's firstly matched (pivot) vertex (§5.3): the first
            # element of a pivot chunk
            per_worker = distribute_to_workers(
                item_costs, workers, self.config.stealing == "full",
                assign_key=[b.item(0) for b in batches],
                segments=np.repeat(np.arange(len(machines)), sizes))
        else:  # join output: already batches
            out, produced = rows, None
        per_machine = sizes
        if produced is not None:
            per_machine = np.add.reduceat(
                produced, np.cumsum([0] + sizes[:-1])).tolist()

        if tracer.enabled:
            t_mids = tracer.now_all()
        if per_worker is not None:
            metrics.charge_worker_ops(ids, per_worker)
        metrics.charge_ops(ids, ctx.cost.ticks.batch_overhead)
        if tracer.enabled:
            moved = (metrics.bytes_sent[ids] + metrics.bytes_received[ids]
                     - bytes0).tolist()
            dealt = (metrics.worker_ops[ids] / TICKS_PER_OP).tolist()
            for i, m in enumerate(machines):
                t1 = tracer.now(m)
                if level >= 0:
                    # the cost model charges the intersection /
                    # verification ops after ``step`` returns, so [t_mid,
                    # t1] is exactly the intersect stage and the fetch
                    # span (emitted inside ``step``, after the fetch
                    # charges) ends at t_mid: fetch + intersect == the
                    # operator span
                    tracer.complete("intersect", m, t_mids[m], t1,
                                    {"op": opid})
                tracer.complete(span_name, m, t0s[m], t1,
                                {"op": opid, "in": sizes[i],
                                 "out": per_machine[i], "bytes": moved[i]})
                if per_worker is not None:
                    if self.config.stealing == "full" and workers > 1:
                        tracer.instant("intra steal", m,
                                       {"op": opid, "items": sizes[i]})
                    tracer.counter("worker ops", m, dict(
                        zip(map(str, range(workers)), dealt[i])))

        if level < last:
            cut = 0
            for m, n in zip(machines, per_machine):
                self._enqueue(level + 1, m, out[cut:cut + n], out.shape[1])
                cut += n
        elif count_only:
            self.consumer.consume_count(machines, sum(per_machine))
        else:  # the output's machine column
            self.consumer.consume(column if produced is None
                                  else np.repeat(column, produced), out)

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
    k = ctx.cluster.num_machines
    # a join that is its chain's last operator counts into a counting SINK
    materialise = bool(segment.extends) or not _compress_final(consumer)
    feed = _Feed([()] * k, [
        join_stream(ctx, spec, *sides, m, config.batch_size,
                    opid=ops[0].opid, materialise=materialise)
        for m in range(k)]) if sides else None
    _ChainRunner(ctx, config, segment, consumer, feed, ops).run()


def run_tree(ctx: ExecContext, config: SchedulerConfig, root: Segment,
             sink: SinkConsumer, table: Sequence[Sequence[Operator]]) -> None:
    """Execute a translated segment tree into ``sink``; ``table`` is the
    tree's operator table (:meth:`Segment.operator_table`)."""
    _run_tree(ctx, config, root, sink, iter(table))
