"""Common machinery for the baseline distributed engines.

SEED / BiGJoin / RADS all materialise *distributed relations* — partial
results partitioned across machines — and move them with hash shuffles.
This module provides those building blocks with full cost/memory
accounting, so each baseline implementation stays a faithful, readable
transcription of its algorithm.

Relations are **columnar**: each machine's partition is a 2-D ``int64``
array (one row per tuple), and the relational operators — hash shuffle,
hash join, star materialisation — run on the shared kernels of
:mod:`repro.core.kernels` (the join's blocks and the star combinations
as its compiled loops, whose numpy references the tests keep in
``tests/reference_kernels.py``).  Compute is charged
in integer ticks (counts × tick weights, :mod:`repro.cluster.cost`);
what stays sequential is the *modelled* incremental memory-charge /
budget-check sequence (alloc → charge → check, every ``_CHUNK`` emitted
tuples), which decides where a ``00M``/``0T`` abort trips — its calls
are issued in order, their positions found on running sums
(:func:`chunk_flushes`).

Memory is charged **incrementally while results are generated**, so an
exploding star expansion or join aborts with the paper's ``00M`` / ``0T``
outcome as soon as the budget is crossed, instead of grinding through the
full explosion first.  Star expansion additionally pre-flights its
predicted output size (``Σ_u C(d_u, |L|)`` patterns) for the same reason.
On abort, the inputs consumed by an operator and its partially charged
output are released, so the ledger balances on every exit path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations
from typing import Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.errors import OutOfMemoryError, OvertimeError
from ..cluster.metrics import RunReport
from ..core import kernels
from ..core.kernels import (csr_gather, hash_destinations, join_blocks,
                            join_chunks)
from ..query.symmetry import PartialOrder

__all__ = [
    "Tuple",
    "BaselineResult",
    "DistributedRelation",
    "BaselineEngine",
    "new_conditions",
    "valid_leaf_patterns",
    "materialize_star",
    "split_by_destination",
]

Tuple = tuple[int, ...]

#: incremental memory-charge granularity (tuples)
_CHUNK = 4096
#: the most combinations before the conditions a :func:`combo_rows` call
#: holds room for; one with more counts its kept rows first
COMBO_BLOCK_ROWS = 1 << 17


@dataclass
class BaselineResult:
    """Outcome of one baseline run (mirrors the HUGE result shape)."""

    name: str
    count: int
    report: RunReport

    @property
    def throughput_per_s(self) -> float:
        """Matches per simulated second."""
        if self.report.total_time_s <= 0:
            return 0.0
        return self.count / self.report.total_time_s

    def as_dict(self) -> dict:
        """JSON-ready summary (same shape as ``EnumerationResult.as_dict``)."""
        return {
            "engine": self.name,
            "count": self.count,
            "throughput_per_s": self.throughput_per_s,
            "report": self.report.as_dict(),
        }


def new_conditions(schema: Sequence[int], applied: set[tuple[int, int]],
                   conditions: PartialOrder) -> list[tuple[int, int]]:
    """Conditions newly checkable on ``schema``; returned as positional
    pairs ``(i, j)`` meaning ``f[i] < f[j]`` and marked as applied."""
    out: list[tuple[int, int]] = []
    for (u, v) in conditions:
        if (u, v) in applied:
            continue
        if u in schema and v in schema:
            out.append((schema.index(u), schema.index(v)))
            applied.add((u, v))
    return out


def destination_order(dests: np.ndarray, k: int
                      ) -> tuple[np.ndarray, np.ndarray]:
    """``(order, sizes)``: positions of ``dests`` (machine ids ``0 ..
    k-1``) grouped by destination, ascending, each group in its original
    order, and each destination's group size.  A stable sort of the ids
    as ``int16``, which numpy does as a radix sort."""
    narrow = dests.astype(np.int16) if k <= 1 << 15 else dests
    return (np.argsort(narrow, kind="stable"),
            np.bincount(dests, minlength=k))


def split_by_destination(rows: np.ndarray, dests: np.ndarray,
                         k: int) -> list[np.ndarray]:
    """``[rows[dests == d] for d in range(k)]`` from one stable sort
    instead of ``k`` masks: the same rows in the same order."""
    order, sizes = destination_order(dests, k)
    grouped = rows[order]
    ends = np.cumsum(sizes).tolist()
    return [grouped[end - size:end]
            for size, end in zip(sizes.tolist(), ends)]


def _as_partition(part, arity: int) -> np.ndarray:
    """One machine's partition as a ``(n, arity)`` int64 array."""
    if isinstance(part, np.ndarray):
        rows = np.asarray(part, dtype=np.int64)
    else:
        seq = list(part)
        if not seq:
            return np.empty((0, arity), dtype=np.int64)
        rows = np.asarray(seq, dtype=np.int64)
    if rows.ndim == 1:
        rows = rows.reshape(-1, arity) if arity else rows.reshape(len(rows), 0)
    if rows.ndim != 2 or rows.shape[1] != arity:
        raise ValueError(
            f"partition shape {rows.shape} does not match arity {arity}")
    return rows


class DistributedRelation:
    """A materialised, partitioned bag of partial-result tuples.

    Partitions are columnar ``(n, arity)`` int64 arrays (list-of-tuples
    input is coerced).  Creation (or incremental generation) charges
    simulated memory on each machine; :meth:`drop` releases it.  Baselines
    that keep every intermediate alive (as SEED does) never drop until the
    end — that is what drives their peak memory in Table 1.
    """

    def __init__(self, cluster: Cluster, schema: tuple[int, ...],
                 partitions: list, charge_memory: bool = True):
        if len(partitions) != cluster.num_machines:
            raise ValueError("one partition per machine required")
        self.cluster = cluster
        self.schema = schema
        self.partitions = [_as_partition(p, len(schema)) for p in partitions]
        #: tuples per machine at construction: what the ledger charged and
        #: what :meth:`drop` frees, after :meth:`shuffle` let go of the rows
        self._counts = np.array([len(p) for p in self.partitions],
                                dtype=np.int64)
        self._alive = True
        if charge_memory:
            charged = self._counts * self.tuple_bytes()
            try:
                cluster.metrics.alloc(np.arange(len(charged)), charged)
            except OutOfMemoryError as exc:
                # the raising alloc still charges its machine
                cluster.metrics.free(np.arange(exc.machine + 1),
                                     charged[:exc.machine + 1])
                self._alive = False
                raise

    @property
    def total(self) -> int:
        """Total tuple count across machines (at construction)."""
        return int(self._counts.sum())

    def tuple_bytes(self) -> int:
        """Bytes per tuple."""
        return len(self.schema) * self.cluster.cost.bytes_per_id

    def drop(self) -> None:
        """Release the relation's simulated memory."""
        if not self._alive:
            return
        self.cluster.metrics.free(np.arange(len(self._counts)),
                                  self._counts * self.tuple_bytes())
        self._alive = False

    # -- relational ops ---------------------------------------------------------

    def shuffle(self, key_pos: tuple[int, ...]) -> "DistributedRelation":
        """Hash-shuffle by key positions (pushing communication).  Consumes
        this relation: each partition's rows are let go of once the split
        holds them (the caller keeps the relation until the join returns),
        and the relation is dropped."""
        cluster = self.cluster
        k = cluster.num_machines
        arity = len(self.schema)
        by_dest: list[list[np.ndarray]] = [[] for _ in range(k)]
        for src in range(k):
            part = self.partitions[src]
            # a fresh empty array: a slice would hold the rows' buffer
            self.partitions[src] = np.empty((0, arity), dtype=np.int64)
            dests = hash_destinations(part[:, list(key_pos)], k)
            for dest, rows in enumerate(split_by_destination(part, dests, k)):
                by_dest[dest].append(rows)
                cluster.push(src, dest, len(rows), arity)
            del part
        parts = [np.concatenate(by_dest[d]) if by_dest[d]
                 else np.empty((0, arity), dtype=np.int64)
                 for d in range(k)]
        shuffled = DistributedRelation(cluster, self.schema, parts)
        self.drop()
        try:
            cluster.metrics.check_time()
        except OvertimeError:
            shuffled.drop()
            raise
        return shuffled

    def hash_join(self, other: "DistributedRelation",
                  conditions: PartialOrder,
                  applied: set[tuple[int, int]],
                  count_only: bool = False
                  ) -> "DistributedRelation | int":
        """Distributed hash join: shuffle both sides on the shared key,
        then join locally per machine.  Consumes both inputs (also on
        ``00M``/``0T`` aborts).  Output memory is charged incrementally so
        explosions abort early.

        With ``count_only`` (for a plan's final join, under the counting
        decompression of §7.1) outputs are counted, not materialised, and
        the total count is returned instead of a relation.
        """
        cluster = self.cluster
        cost = cluster.cost
        metrics = cluster.metrics
        shared = sorted(set(self.schema) & set(other.schema))
        if not shared:
            raise ValueError("join with empty key")
        lkey = tuple(self.schema.index(v) for v in shared)
        rkey = tuple(other.schema.index(v) for v in shared)
        left = right = None
        out_charged = np.zeros(cluster.num_machines, dtype=np.int64)
        t = cost.ticks
        try:
            left = self.shuffle(lkey)
            right = other.shuffle(rkey)

            out_schema = left.schema + tuple(
                v for v in right.schema if v not in left.schema)
            carry = tuple(right.schema.index(v) for v in right.schema
                          if v not in left.schema)
            left_only = [v for v in left.schema if v not in shared]
            right_only = [v for v in right.schema if v not in left.schema]
            distinct = [(out_schema.index(u), out_schema.index(v))
                        for u in left_only for v in right_only]
            positional = new_conditions(out_schema, applied, conditions)
            out_bytes = len(out_schema) * cost.bytes_per_id

            parts: list[np.ndarray] = []
            counted = 0
            workers = cluster.workers_per_machine
            for m in range(cluster.num_machines):
                lpart, rpart = left.partitions[m], right.partitions[m]
                build_left = len(lpart) <= len(rpart)
                bpart, ppart = (lpart, rpart) if build_left else (rpart, lpart)
                bkey, pkey = (lkey, rkey) if build_left else (rkey, lkey)
                blocks = join_blocks(bpart, ppart, bkey, pkey, build_left,
                                     carry, distinct, positional,
                                     materialise=not count_only)
                build_base = len(bpart) * t.hash_build
                if count_only:
                    total = sum(int(kept.sum()) for _, _, kept in blocks)
                    counted += total
                    metrics.charge_worker_ops(m, _even_split(
                        build_base + len(ppart) * t.hash_probe
                        + total * 2 * t.emit, workers))
                    continue
                # one charge per _CHUNK-tuple memory charge; build-side
                # hashing lands on the first
                chunks, ticks_due = [], build_base
                for rows, ticks in join_chunks(blocks, _CHUNK, t.hash_probe,
                                               len(out_schema) * t.emit):
                    ticks_due += ticks
                    out_charged[m] += len(rows) * out_bytes
                    metrics.alloc(m, len(rows) * out_bytes)
                    if len(rows) < _CHUNK:  # the residual chunk comes last
                        metrics.charge_worker_ops(
                            m, _even_split(ticks_due, workers))
                    else:
                        metrics.charge_ops(m, ticks_due)
                        metrics.check_time()
                    ticks_due = 0
                    chunks.append(rows)
                parts.append(np.concatenate(chunks))
            left.drop()
            right.drop()
            metrics.check_time()
        except (OutOfMemoryError, OvertimeError):
            # balance the ledger on abort: both inputs (wherever the abort
            # hit) and the partially charged output are released
            for rel in (self, other, left, right):
                if rel is not None:
                    rel.drop()
            metrics.free(np.arange(len(out_charged)), out_charged)
            raise
        if count_only:
            return counted
        return DistributedRelation(cluster, out_schema, parts,
                                   charge_memory=False)


def _even_split(ticks: int, workers: int) -> list[int]:
    """``ticks`` shared evenly over ``workers`` (the remainder's ticks go
    one each to the first workers, so the parts sum to ``ticks``)."""
    q, r = divmod(ticks, workers)
    return [q + (w < r) for w in range(workers)]


def valid_leaf_patterns(num_leaves: int,
                         leaf_conditions: Sequence[tuple[int, int]]
                         ) -> list[tuple[int, ...]]:
    """Permutation patterns of leaf positions consistent with the leaf-leaf
    symmetry conditions; applied to an ascending value combination, pattern
    ``p`` places the ``p[i]``-smallest value at leaf ``i``."""
    valid = []
    for perm in permutations(range(num_leaves)):
        if all(perm[i] < perm[j] for i, j in leaf_conditions):
            valid.append(perm)
    return valid


# -- star expansion kernels ----------------------------------------------------

def combo_rows(prefix: np.ndarray, cand_flat: np.ndarray,
               cand_counts: np.ndarray, nl: int, patterns_arr: np.ndarray,
               conds: Sequence[tuple[int, int]], count_only: bool = False
               ) -> tuple[np.ndarray | None, np.ndarray]:
    """Star-style combination emission.

    For each input row ``i`` (``prefix[i]`` plus its candidate list, the
    ``cand_counts[i]``-sized slice of the row-major ``cand_flat``), emit
    ``prefix[i] + leaves`` for every ascending ``nl``-combination of its
    candidates × every leaf pattern — row-major, combination-major,
    pattern-minor: the exact order of the scalar
    ``for combo: for pattern:`` loops.  Rows violating a positional
    condition ``(i, j)`` (requiring ``row[i] < row[j]``) are dropped.

    Returns ``(rows, kept_counts)`` where ``kept_counts[i]`` is row
    ``i``'s surviving emission count; with ``count_only`` no row is built
    and ``rows`` is ``None``.  Rows with fewer than ``nl`` candidates emit
    nothing.

    It runs as one compiled loop over the input rows (``combo_rows`` of
    ``repro.core.kernels``' C library: per row the combinations, the
    patterns and the conditions, each kept row written out in place).
    Past :data:`COMBO_BLOCK_ROWS` combinations it sizes its buffer by a
    counting pass.
    """
    args = (prefix, cand_flat, cand_counts, nl, patterns_arr, conds)
    cap = 0 if count_only else predicted_star_total(
        cand_counts, nl, len(patterns_arr))
    if cap > COMBO_BLOCK_ROWS:  # count first: room for the kept rows only
        cap = int(kernels._combo_compiled(*args, 0, True)[1].sum())
    return kernels._combo_compiled(*args, cap, count_only)


def star_partition(cluster: Cluster, machine: int, local: np.ndarray,
                   nl: int, patterns_arr: np.ndarray,
                   root_conds: Sequence[tuple[int, int]], tuple_bytes: int
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Materialise one machine's star matches columnar-ly.

    Emits ``(u, leaves...)`` for every local root ``u``.  Each root costs
    ``deg·scan_op`` plus ``(nl+1)·emit_op`` per emitted tuple; memory is
    charged incrementally — whenever ``_CHUNK`` tuples are pending, then
    ``check_time`` — with a final partial-chunk charge.  Returns the
    partition rows and the per-root tick costs (the caller distributes
    them to workers).
    """
    cost = cluster.cost
    metrics = cluster.metrics
    g = cluster.pgraph.graph
    local = np.asarray(local, dtype=np.int64)
    n = len(local)
    deg = (g.indptr[local + 1] - g.indptr[local]) if n else \
        np.zeros(0, dtype=np.int64)
    el = np.flatnonzero(deg >= nl)
    roots = local[el]
    _, cand_flat = csr_gather(g.indptr, g.indices, roots)
    rows, kept = combo_rows(roots[:, None], cand_flat, deg[el], nl,
                            patterns_arr, root_conds)
    c_full = np.zeros(n, dtype=np.int64)
    c_full[el] = kept
    item_ops = (deg * cost.ticks.scan
                + c_full * ((nl + 1) * cost.ticks.emit))
    # pending accumulates per eligible root, flushing (alloc then
    # check_time) whenever it reaches _CHUNK
    flushed, pending = chunk_flushes(kept)
    for tuples in flushed:
        metrics.alloc(machine, tuples * tuple_bytes)
        metrics.check_time()
    metrics.alloc(machine, pending * tuple_bytes)
    return rows, item_ops


def chunk_flushes(counts: np.ndarray) -> tuple[list[int], int]:
    """A per-row loop's incremental charges: row ``i`` adds ``counts[i]``
    tuples to a pending total, flushed whenever ``_CHUNK`` or more are
    pending.  Returns the totals flushed, in order, and what is left
    pending after the last row — one ``searchsorted`` per flush on the
    running sum instead of a step per row."""
    ran = np.cumsum(counts)
    flushed: list[int] = []
    done = 0
    while (at := int(np.searchsorted(ran, done + _CHUNK))) < len(ran):
        flushed.append(int(ran[at]) - done)
        done = int(ran[at])
    return flushed, (int(ran[-1]) if len(ran) else 0) - done


def predicted_star_total(degrees: np.ndarray, choose: int,
                         patterns: int) -> int:
    """The pre-flight size prediction ``Σ_u C(d_u, choose)·patterns`` —
    an exact (arbitrary-precision) integer."""
    return sum(math.comb(d, choose) * patterns * c
               for d, c in enumerate(np.bincount(degrees).tolist())
               if c and d >= choose)


def machine_star_totals(cluster: Cluster, choose: int,
                        patterns: int) -> np.ndarray:
    """:func:`predicted_star_total` over each machine's local vertices:
    an object column of exact integers, from one ``bincount`` of the
    (owner, degree) pairs."""
    g = cluster.pgraph.graph
    k = cluster.num_machines
    degrees = g.indptr[1:] - g.indptr[:-1]
    width = int(degrees.max(initial=0)) + 1
    counts = np.bincount(cluster.pgraph.owner * width + degrees,
                         minlength=k * width).reshape(k, width)
    d = np.flatnonzero(counts[:, choose:].any(0)) + choose
    return counts[:, d].astype(object) @ np.array(
        [math.comb(x, choose) * patterns for x in d.tolist()], dtype=object)


def materialize_star(cluster: Cluster, root: int, leaves: Sequence[int],
                     conditions: PartialOrder,
                     applied: set[tuple[int, int]]) -> DistributedRelation:
    """Materialise all matches of the star ``(root; leaves)`` from each
    machine's local partition (how StarJoin/SEED/RADS compute join units
    [45]): leaf assignments are combinations of each root vertex's
    neighbours, ordered consistently with the symmetry conditions.

    For hub vertices the output is ``C(d, |L|)``-sized — the star explosion
    that makes those systems memory-hungry.  Predicted size is pre-flighted
    against the memory budget and generation charges memory incrementally,
    so the explosion aborts with ``00M``/``0T`` early (releasing whatever
    partial output had been charged).
    """
    cost = cluster.cost
    metrics = cluster.metrics
    schema = (root,) + tuple(leaves)
    positional = new_conditions(schema, applied, conditions)
    root_conds = [(i, j) for i, j in positional if i == 0 or j == 0]
    leaf_conds = [(i - 1, j - 1) for i, j in positional if i != 0 and j != 0]
    patterns = valid_leaf_patterns(len(leaves), leaf_conds)
    patterns_arr = np.asarray(patterns, dtype=np.int64).reshape(
        len(patterns), len(leaves))
    nl = len(leaves)
    tuple_bytes = (nl + 1) * cost.bytes_per_id

    # everything charged from here on is this star's output: an abort
    # frees the difference (the raising alloc still charges the ledger)
    before = metrics.cur_mem_bytes.copy()
    try:
        # pre-flight: predicted output size and ops per machine; the
        # first machine that cannot fit or finish aborts (00M first)
        predicted = machine_star_totals(cluster, nl, len(patterns))
        predicted_bytes = predicted * tuple_bytes // 2 ** len(root_conds)
        oom = (metrics.cur_mem_bytes + predicted_bytes
               > cost.memory_budget_bytes)
        overtime = (metrics.compute_time() + cost.ticks_to_seconds(
            predicted * ((nl + 1) * cost.ticks.emit)) > cost.time_budget_s)
        failing = np.flatnonzero(oom | overtime)
        if len(failing):
            m = int(failing[0])
            if oom[m]:  # would not fit even before filtering: 00M now
                metrics.alloc(m, int(predicted_bytes[m]))  # raises
            raise OvertimeError(cost.time_budget_s + 1, cost.time_budget_s)

        parts: list[np.ndarray] = []
        workers = cluster.workers_per_machine
        for m in range(cluster.num_machines):
            rows, item_ops = star_partition(
                cluster, m, cluster.local_vertices(m), nl, patterns_arr,
                root_conds, tuple_bytes)
            # roots are dealt to workers round-robin
            metrics.charge_worker_ops(
                m, [item_ops[w::workers].sum() for w in range(workers)])
            parts.append(rows)
            metrics.check_time()
    except (OutOfMemoryError, OvertimeError):
        metrics.free(np.arange(len(before)), metrics.cur_mem_bytes - before)
        raise
    return DistributedRelation(cluster, schema, parts, charge_memory=False)


class BaselineEngine:
    """Base class: holds the cluster and wraps result reporting."""

    name = "baseline"

    def __init__(self, cluster: Cluster):
        self.cluster = cluster

    def _check_query(self, query) -> None:
        """The baseline reproductions implement the papers' unlabelled
        algorithms; labelled matching is a HUGE-engine feature."""
        if query.is_labelled:
            raise NotImplementedError(
                f"{self.name} does not support labelled queries; "
                "use the HUGE engine")

    def _result(self, count: int) -> BaselineResult:
        return BaselineResult(self.name, count, self.cluster.metrics.report())
