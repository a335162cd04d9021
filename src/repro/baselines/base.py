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
as compiled loops where its C library loaded, numpy array programs
otherwise).  Compute is charged
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
from itertools import combinations, permutations
from typing import Callable, Sequence

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.errors import OutOfMemoryError, OvertimeError
from ..cluster.metrics import RunReport
from ..core import kernels
from ..core.kernels import (chunk_charges, csr_gather, hash_destinations,
                            join_blocks)
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
        self._counts = [len(p) for p in self.partitions]
        self._alive = True
        if charge_memory:
            bytes_per_id = cluster.cost.bytes_per_id
            charged: list[int] = []
            try:
                for m, tuples in enumerate(self._counts):
                    b = tuples * len(schema) * bytes_per_id
                    charged.append(b)  # the raising alloc still charges
                    cluster.metrics.alloc(m, b)
            except OutOfMemoryError:
                for m, b in enumerate(charged):
                    cluster.metrics.free(m, b)
                self._alive = False
                raise

    @property
    def total(self) -> int:
        """Total tuple count across machines (at construction)."""
        return sum(self._counts)

    def tuple_bytes(self) -> int:
        """Bytes per tuple."""
        return len(self.schema) * self.cluster.cost.bytes_per_id

    def drop(self) -> None:
        """Release the relation's simulated memory."""
        if not self._alive:
            return
        for m, tuples in enumerate(self._counts):
            self.cluster.metrics.free(m, tuples * self.tuple_bytes())
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
        out_charged = [0] * cluster.num_machines
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
                emit_per_probe = np.zeros(len(ppart), dtype=np.int64)
                pieces = []
                for rows, p0, kept in blocks:
                    emit_per_probe[p0:p0 + len(kept)] += kept
                    pieces.append(rows)
                emitted = np.concatenate(pieces)
                total = len(emitted)
                # one charge per _CHUNK-tuple memory charge; build-side
                # hashing lands on the first
                charges = chunk_charges(
                    emit_per_probe, total, _CHUNK, t.hash_probe,
                    len(out_schema) * t.emit, base=build_base)
                num_full = total // _CHUNK
                for c in range(num_full):
                    out_charged[m] += _CHUNK * out_bytes
                    metrics.alloc(m, _CHUNK * out_bytes)
                    metrics.charge_ops(m, charges[c])
                    metrics.check_time()
                pending = total - num_full * _CHUNK
                out_charged[m] += pending * out_bytes
                metrics.alloc(m, pending * out_bytes)
                metrics.charge_worker_ops(
                    m, _even_split(charges[num_full], workers))
                parts.append(emitted)
            left.drop()
            right.drop()
            metrics.check_time()
        except (OutOfMemoryError, OvertimeError):
            # balance the ledger on abort: both inputs (wherever the abort
            # hit) and the partially charged output are released
            for rel in (self, other, left, right):
                if rel is not None:
                    rel.drop()
            for m, b in enumerate(out_charged):
                metrics.free(m, b)
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

#: ``(pool_size, choose)`` -> index combinations, lexicographic, shared
#: across vertices/rounds/runs (index patterns depend only on the sizes)
_COMB_CACHE: dict[tuple[int, int], np.ndarray] = {}


def _comb_indices(pool: int, choose: int) -> np.ndarray:
    """All ``choose``-combinations of ``range(pool)`` as a 2-D index
    array, in ``itertools.combinations`` (lexicographic) order."""
    key = (pool, choose)
    got = _COMB_CACHE.get(key)
    if got is None:
        got = np.asarray(list(combinations(range(pool), choose)),
                         dtype=np.int64).reshape(-1, choose)
        _COMB_CACHE[key] = got
    return got


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
    Where the library did not load the numpy program runs: rows grouped
    by candidate count, each group one dense gather, then the input-row
    order restored.  Both give the same arrays.
    """
    if kernels._LIB is not None:
        cap = 0 if count_only else predicted_star_total(
            cand_counts, nl, len(patterns_arr))
        return kernels._combo_compiled(prefix, cand_flat, cand_counts, nl,
                                       patterns_arr, conds, cap, count_only)
    n, pw = prefix.shape
    width = pw + nl
    kept = np.zeros(n, dtype=np.int64)
    empty = None if count_only else np.empty((0, width), dtype=np.int64)
    if n == 0 or len(patterns_arr) == 0:
        return empty, kept
    # group rows by candidate-list size so each group expands as one
    # dense (rows, combos, patterns, nl) gather
    row_order = np.argsort(cand_counts, kind="stable")
    sorted_counts = cand_counts[row_order]
    rep = np.repeat(np.arange(n), cand_counts)
    cand_sorted = cand_flat[np.argsort(cand_counts[rep], kind="stable")]
    uniq_c, r_cnts = np.unique(sorted_counts, return_counts=True)
    pieces: list[np.ndarray] = []
    piece_ids: list[np.ndarray] = []
    e_off = r_off = 0
    for c, r_cnt in zip(uniq_c.tolist(), r_cnts.tolist()):
        grp_rows = row_order[r_off:r_off + r_cnt]
        seg = cand_sorted[e_off:e_off + c * r_cnt]
        r_off += r_cnt
        e_off += c * r_cnt
        if c < nl:
            continue
        leaves = seg.reshape(r_cnt, c)[:, _comb_indices(c, nl)]
        emit = leaves[:, :, patterns_arr].reshape(r_cnt, -1, nl)
        keep = np.ones(emit.shape[:2], dtype=bool)
        for i, j in conds:
            a, b = (prefix[grp_rows, p][:, None] if p < pw
                    else emit[:, :, p - pw] for p in (i, j))
            keep &= a < b
        kept[grp_rows] = keep.sum(axis=1)
        if count_only:
            continue
        per_row = emit.shape[1]  # combos x patterns
        keep = keep.reshape(-1)
        pieces.append(np.concatenate(
            (np.repeat(prefix[grp_rows], per_row, axis=0),
             emit.reshape(-1, nl)), axis=1)[keep])
        piece_ids.append(np.repeat(grp_rows, per_row)[keep])
    if count_only or not pieces:
        return empty, kept
    # restore input-row order (stable: within a row the combination-major
    # order is already right)
    perm = np.argsort(np.concatenate(piece_ids), kind="stable")
    return np.concatenate(pieces)[perm], kept


def star_partition(cluster: Cluster, machine: int, local: np.ndarray,
                   nl: int, patterns_arr: np.ndarray,
                   root_conds: Sequence[tuple[int, int]], tuple_bytes: int,
                   alloc_fn: Callable[[int, int], None]
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
        alloc_fn(machine, tuples * tuple_bytes)
        metrics.check_time()
    alloc_fn(machine, pending * tuple_bytes)
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

    charged = [0] * cluster.num_machines

    def _alloc(m: int, b: int) -> None:
        charged[m] += b  # the raising alloc still charges the ledger
        metrics.alloc(m, b)

    try:
        # pre-flight: predicted output size and ops per machine
        indptr = cluster.pgraph.graph.indptr
        for m in range(cluster.num_machines):
            local = cluster.local_vertices(m)
            degs = indptr[local + 1] - indptr[local]
            predicted = predicted_star_total(degs, nl, len(patterns))
            predicted_bytes = predicted * tuple_bytes // 2 ** len(root_conds)
            used = metrics.machines[m].cur_mem_bytes
            if used + predicted_bytes > cost.memory_budget_bytes:
                # would not fit even before filtering: report 00M now
                _alloc(m, predicted_bytes)  # raises OutOfMemoryError
            est_ops = predicted * (nl + 1) * cost.ticks.emit
            if (metrics.compute_time(m) + cost.ticks_to_seconds(est_ops)
                    > cost.time_budget_s):
                raise OvertimeError(cost.time_budget_s + 1, cost.time_budget_s)

        parts: list[np.ndarray] = []
        workers = cluster.workers_per_machine
        for m in range(cluster.num_machines):
            rows, item_ops = star_partition(
                cluster, m, cluster.local_vertices(m), nl, patterns_arr,
                root_conds, tuple_bytes, _alloc)
            # roots are dealt to workers round-robin
            metrics.charge_worker_ops(
                m, [item_ops[w::workers].sum() for w in range(workers)])
            parts.append(rows)
            metrics.check_time()
    except (OutOfMemoryError, OvertimeError):
        for m, b in enumerate(charged):
            metrics.free(m, b)
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
