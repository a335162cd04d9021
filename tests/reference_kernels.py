"""The numpy programs the compiled loops of ``core/kernels.c`` are held
to, one per entry point, each taking and returning what the package's
function of that name does.  A kernel test calls one beside the
package's function; an engine-level test runs the package with every
call site bound to them (:func:`bind`, :func:`bound`).
"""

from __future__ import annotations

import contextlib
from functools import partial
from itertools import combinations
from types import SimpleNamespace
from typing import Sequence

import numpy as np
import pytest

from repro.baselines import base, bigjoin, rads
from repro.cluster import Cluster
from repro.core import cache as cache_module
from repro.core import kernels, operators, scheduler
from repro.core.kernels import _check_survivors, _gather_slices, _pair_ranges

from .reference_cache import ReferenceLRBU

#: the package as it is, and with the references bound (:func:`bound`)
PATHS = ("compiled", "numpy")


def fused_extend_candidates(graph, rows: np.ndarray,
                            verts_sorted: np.ndarray,
                            lt: Sequence[int], gt: Sequence[int],
                            labels: np.ndarray | None = None,
                            new_label: int | None = None,
                            survivors: np.ndarray | None = None,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused PULL-EXTEND candidate pass: window → gather → shrink.

    ``verts_sorted`` is each row's extend vertices sorted by adjacency
    length (column 0 = the smallest list, the candidate source).

    * **Window first.**  The symmetry order bounds a row's candidates to
      ``max(rows[:, gt]) < c < min(rows[:, lt])``.  Adjacency lists are
      sorted and a key's position in the composite index is its arc's
      position in ``indices``, so the bounds are a slice of the smallest
      list — two row-level searches — and what lies outside is never
      gathered.  An empty window (``hi <= lo``) clamps to length 0;
      ``lo == n`` lands on ``indptr[v0 + 1]`` because ``v0 * n + n`` is
      the next vertex's first possible key.
    * **Shrink as you go.**  Every other list is probed one column at a
      time with a compaction after each, so a list only sees what the
      lists before it left: the probe keys are the row's ``v * n``
      spread by ``row_ids`` plus the candidate, and the graph answers
      them (:meth:`~repro.graph.graph.Graph.has_arc_keys`).  The label
      filter and the distinctness test (against *every* column of the
      partial match — a CSR handed to ``Graph(indptr, indices)`` may
      carry self-loops, so adjacency does not imply distinctness) run on
      the survivors only.

    Every filter is a boolean conjunction and compaction keeps (row,
    ascending id) order, so the returned ``(cand, row_ids, counts)``
    equal a gather-everything, pass-per-filter pipeline's element for
    element; ``counts[i]`` is row ``i``'s emit count, which the caller
    multiplies by the emit tick weight.  The intersection *charge* is
    not this function's business: callers compute it from the full
    sorted lengths, windowed or not.

    With ``survivors``, an ``(n, |ext|)`` ``int64`` array, the whole
    smallest list is the candidates and ``survivors[i, w]`` receives how
    many of row ``i``'s stand after list ``w`` (column 0: all of them);
    the symmetry order then filters the survivors instead of cutting a
    window, so the counts do not depend on it.
    """
    indptr, comp, n = (graph.indptr, graph.composite_index(),
                       graph.num_vertices)
    _check_survivors(survivors, verts_sorted)
    windowed = survivors is None
    v0 = verts_sorted[:, 0]
    start = (np.searchsorted(comp, v0 * n + rows[:, list(gt)].max(axis=1)
                             + 1)
             if len(gt) and windowed else indptr[v0])
    stop = (np.searchsorted(comp, v0 * n + rows[:, list(lt)].min(axis=1))
            if len(lt) and windowed else indptr[v0 + 1])
    row_ids, cand = _gather_slices(graph.indices, start,
                                   np.maximum(stop - start, 0))
    if not windowed:
        survivors[:, 0] = stop - start
    for w in range(1, verts_sorted.shape[1]):
        base = verts_sorted[:, w] * n
        keep = graph.has_arc_keys(base[row_ids] + cand)
        cand, row_ids = cand[keep], row_ids[keep]
        if not windowed:
            survivors[:, w] = np.bincount(row_ids, minlength=len(rows))
    if new_label is not None and labels is not None:
        keep = labels[cand] == new_label
        cand, row_ids = cand[keep], row_ids[keep]
    keep = np.ones(len(cand), dtype=bool)
    for p in range(rows.shape[1]):
        keep &= cand != rows[row_ids, p]
    if not windowed:
        for p in lt:
            keep &= cand < rows[row_ids, p]
        for p in gt:
            keep &= cand > rows[row_ids, p]
    cand, row_ids = cand[keep], row_ids[keep]
    return cand, row_ids, np.bincount(row_ids, minlength=len(rows))


def fused_verify_mask(graph, verts: np.ndarray, targets: np.ndarray,
                      labels: np.ndarray | None = None,
                      new_label: int | None = None) -> np.ndarray:
    """Fused VERIFY: does each row's target close every pattern edge?

    Row ``i`` is ``True`` iff ``targets[i]`` is adjacent to **every**
    ``verts[i, w]`` and carries ``new_label``.  Each row has one fixed
    target and nothing to shrink, so each of the ``W`` columns goes to
    the graph as one batch of composite keys, folded into one mask: the
    process holds one column's keys, not the ``(E, W)`` block.
    """
    found = np.ones(len(verts), dtype=bool)
    for w in range(verts.shape[1]):
        found &= graph.has_arc_keys(verts[:, w] * graph.num_vertices
                                    + targets)
    if new_label is not None and labels is not None:
        found &= labels[targets] == new_label
    return found


def extend_candidates(graph, rows, verts, lens, lt, gt, labels=None,
                      new_label=None, survivors=None):
    """:func:`repro.core.kernels.extend_candidates`: a stable by-length
    sort of each row's extend vertices, then the fused pass."""
    if verts.shape[1] > 1:
        by_len = lens.argsort(axis=1, kind="stable")
        verts = np.take_along_axis(verts, by_len, axis=1)
    return fused_extend_candidates(graph, rows, verts, lt, gt, labels,
                                   new_label, survivors)


def extend_block(graph, rows, verts, lens, lt, gt, intersect, probe_ticks,
                 labels=None, new_label=None, count_only=False,
                 survivors=None, verify=-1):
    """:func:`repro.core.kernels.extend_block` over the candidates, or a
    VERIFY at column ``verify`` over :func:`fused_verify_mask`; the ticks
    from each row's lengths in ascending order."""
    by_len = np.sort(lens, axis=1)
    ticks = by_len[:, 0] * (intersect
                            + probe_ticks[by_len[:, 1:]].sum(axis=1))
    if verify >= 0:
        found = fused_verify_mask(graph, verts, rows[:, verify], labels,
                                  new_label)
        return (None if count_only else rows[found],
                found.astype(np.int64), ticks)
    cand, row_ids, counts = extend_candidates(
        graph, rows, verts, lens, lt, gt, labels, new_label, survivors)
    out = None if count_only else np.column_stack((rows[row_ids], cand))
    return out, counts, ticks


def join_pairs(build: np.ndarray, probe: np.ndarray,
               build_key: tuple[int, ...], probe_key: tuple[int, ...]):
    """The key matches of ``repro.core.kernels._pair_ranges``' blocks:
    yields ``(p0, counts, build_idx)`` per block, ``counts[i]`` of its
    pairs belonging to probe row ``p0 + i`` and ``build_idx`` their build
    rows in order."""
    order, ranges = _pair_ranges(build, probe, build_key, probe_key)
    for p0, counts, lo in ranges:
        yield p0, counts, _build_rows(order, counts, lo)


def _build_rows(order: np.ndarray, counts: np.ndarray,
                lo: np.ndarray) -> np.ndarray:
    """The build rows of a block's pairs, in order, from its ranges."""
    ramp = np.arange(int(counts.sum()), dtype=np.int64)
    return order[np.repeat(lo - (np.cumsum(counts) - counts), counts)
                 + ramp]


def join_block(build, probe, p0, counts, pairs, build_left, carry, tests,
               materialise):
    """``repro.core.kernels._join_block``: the filters on the index pairs
    — each output column they name gathered once, build side by index,
    probe side by ``np.repeat`` — and only the survivors' rows gathered
    in full."""
    left, right = (build, probe) if build_left else (probe, build)
    width = left.shape[1]
    order, lo = pairs
    build_idx = _build_rows(order, counts, lo)
    local = np.repeat(np.arange(len(counts)), counts)
    cols: dict[int, np.ndarray] = {}

    def column(pos: int) -> np.ndarray:
        if pos not in cols:
            col = pos if pos < width else int(carry[pos - width])
            if (pos < width) == build_left:
                cols[pos] = build[build_idx, col]
            else:
                cols[pos] = np.repeat(probe[p0:p0 + len(counts), col],
                                      counts)
        return cols[pos]

    kept = counts
    if len(tests):
        keep = np.ones(len(build_idx), dtype=bool)
        for i, j, less in tests.tolist():
            keep &= (np.less if less else np.not_equal)(column(i),
                                                        column(j))
        build_idx, local = build_idx[keep], local[keep]
        kept = np.bincount(local, minlength=len(counts))
    if not materialise:
        return np.empty((len(local), 0), dtype=left.dtype), p0, kept
    probe_idx = local + p0
    lidx, ridx = ((build_idx, probe_idx) if build_left
                  else (probe_idx, build_idx))
    rows = np.concatenate((left[lidx], right[ridx[:, None], carry]), axis=1)
    return rows, p0, kept


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


def combo_rows(prefix, cand_flat, cand_counts, nl, patterns_arr, conds,
               count_only=False):
    """:func:`repro.baselines.base.combo_rows`: rows grouped by candidate
    count, each group one dense gather, then the input-row order
    restored."""
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


def distribute_to_workers(item_costs, workers, stealing, assign_key=0,
                          segments=None):
    """:func:`repro.core.stealing.distribute_to_workers`: the items
    ranked, rank ``r`` dealt left-to-right on even laps of ``workers``
    items and right-to-left on odd ones, summed by a weighted
    ``bincount``."""
    costs = np.asarray(item_costs, dtype=np.int64)
    seg = (np.zeros(len(costs), np.int64) if segments is None
           else np.asarray(segments))
    keys = np.atleast_1d(np.asarray(assign_key, dtype=np.int64))
    if not stealing:
        worker = keys[seg] % workers
    else:
        # per batch, heaviest first: one sort of batch-major keys leaves
        # each batch in place (costs are far below 2**53, so the keys
        # fit)
        base = seg * (int(costs.max(initial=0)) + 1)
        costs = base - np.sort(base - costs)
        # rank r goes left-to-right on even laps of `workers` items and
        # right-to-left on odd ones
        sizes = np.bincount(seg, minlength=len(keys))
        lap, pos = np.divmod(
            np.arange(len(seg)) - (np.cumsum(sizes) - sizes)[seg], workers)
        worker = np.where(lap % 2, workers - 1 - pos, pos)
    # weighted bincount sums in float64: exact below 2**53 ticks
    totals = np.bincount(seg * workers + worker, costs,
                         len(keys) * workers).astype(np.int64)
    totals = totals.reshape(len(keys), workers)
    return totals if segments is not None else totals[0].tolist()


def pull_extend(cache, cluster, machines, rows, spec, labels, count_only,
                steal):
    """:meth:`repro.core.cache.LRBUCache.pull_extend` as numpy composes
    it, extending or VERIFY: the reference cache's
    :meth:`~reference_cache.ReferenceLRBU.fetch` (its ``GetNbrs`` counted
    by ``Cluster.pull``, not charged), ``ExtendOp._process_vector``, the
    reference ``release`` and :func:`distribute_to_workers`, on
    ``cache``'s state."""
    cache = ReferenceLRBU.over(cache)
    pulls = np.zeros((2, cluster.num_machines, cluster.num_machines),
                     dtype=np.int64)

    def account_pulls(pairs, requests, response_ids):
        pulls.reshape(2, -1)[:, pairs] = requests, response_ids

    counting = SimpleNamespace(num_machines=cluster.num_machines,
                               pgraph=cluster.pgraph,
                               account_pulls=account_pulls)
    counting.pull = partial(Cluster.pull, counting)
    verts = rows[:, list(spec.ext)]
    *fetched, lost = cache.fetch(counting, machines, verts)
    if len(lost):
        return (None,) * 4 + (np.stack(fetched), pulls, lost)
    out, ticks, counts = operators.ExtendOp(
        spec, operators.ExecContext(cluster, cache))._process_vector(
            machines, rows, verts, count_only)
    cache.release()
    starts = np.flatnonzero(np.r_[len(rows) > 0,
                                  machines[1:] != machines[:-1]])
    totals = distribute_to_workers(
        ticks, cluster.workers_per_machine, steal, rows[starts, 0],
        np.repeat(np.arange(len(starts)), np.diff(np.r_[starts, len(rows)])))
    return out, ticks, counts, totals, np.stack(fetched), pulls, lost


def bind(monkeypatch) -> None:
    """Bind every call site of a compiled loop in ``src/repro`` to its
    reference here, for as long as ``monkeypatch`` holds."""
    for module, names in (
            (kernels, ("extend_candidates", "extend_block")),
            (operators, ("extend_block", "distribute_to_workers")),
            (bigjoin, ("extend_block", "distribute_to_workers")),
            (scheduler, ("distribute_to_workers",)),
            (base, ("combo_rows",)),
            (rads, ("combo_rows",))):
        for name in names:
            monkeypatch.setattr(module, name, globals()[name])
    monkeypatch.setattr(kernels, "_join_block", join_block)
    monkeypatch.setattr(cache_module.LRBUCache, "pull_extend", pull_extend)


@contextlib.contextmanager
def bound(path: str):
    """The block on ``path``, one of :data:`PATHS`."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "numpy":
            bind(mp)
        yield
