"""Shared vectorised kernels of the columnar runtime.

Both the HUGE runtime (:mod:`repro.core.operators`) and the baseline
engines (:mod:`repro.baselines`) run their inner loops as array programs
over ``int64`` columns.  The cost they charge is counted in integer ticks
(:mod:`repro.cluster.cost`), so a vectorised charge is a multiplication
and a sum — exact in any order, with nothing to replay.  This module
holds the array programs themselves:

* :func:`hash_destinations` — the routing function of every hash shuffle,
  *defined* here as an xxHash-style integer mix over the key columns.
* :func:`edge_composite_index` / :func:`edge_member` /
  :func:`edge_member_rows` — the whole data graph's edge set as one sorted
  ``u * n + v`` array, answering batched "is ``v`` adjacent to ``u``"
  membership tests with one ``searchsorted``.
* :func:`csr_gather` / :func:`fused_extend_candidates` /
  :func:`fused_verify_mask` — PULL-EXTEND's candidate pass: the symmetry
  order as a window on the smallest sorted list, the gather, then one
  membership probe and one compaction per remaining list, label and
  distinctness filters on the survivors.  :func:`extend_block` is the
  whole step for a gathered block (by-length sort, then the fused pass);
  :func:`extend_step` gathers the block for one ``ExtendSpec`` first.
* :func:`join_pairs` / :func:`join_rows` / :func:`chunk_charges` —
  grouped-argsort hash-join matching, the filtered output rows, and the
  tick charge of each output chunk of a probe loop.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "chunk_charges",
    "csr_gather",
    "edge_composite_index",
    "edge_member",
    "edge_member_rows",
    "extend_block",
    "extend_step",
    "fused_extend_candidates",
    "fused_verify_mask",
    "hash_destinations",
    "intersect_sorted",
    "join_pairs",
    "join_rows",
]

# -- shuffle routing ------------------------------------------------------------

_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = np.uint64(2870177450012600261)


def hash_destinations(keys: np.ndarray, k: int) -> np.ndarray:
    """Destination machine (``0 .. k-1``) of every row of ``keys``.

    Hash partitioning is this function by definition: one xxHash-style
    round per key column over the ids as unsigned 64-bit lanes, a
    width-dependent finaliser, then the signed result modulo ``k``.
    """
    keys = np.ascontiguousarray(keys, dtype=np.int64)
    n, width = keys.shape
    acc = np.full(n, _XXPRIME_5, dtype=np.uint64)
    for j in range(width):
        acc += keys[:, j].astype(np.uint64) * _XXPRIME_2
        acc = (acc << np.uint64(31)) | (acc >> np.uint64(33))
        acc *= _XXPRIME_1
    acc += np.uint64(width) ^ (_XXPRIME_5 ^ np.uint64(3527539))
    return acc.view(np.int64) % k


# -- adjacency membership -------------------------------------------------------


def intersect_sorted(cand: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Intersection of two sorted unique id arrays, preserving order."""
    if len(cand) == 0 or len(other) == 0:
        return cand[:0]
    idx = other.searchsorted(cand)
    idx[idx == len(other)] = 0
    return cand[other[idx] == cand]


def edge_composite_index(graph) -> np.ndarray:
    """Sorted composite edge keys ``u * n + v`` of the whole data graph.

    Built and cached by :meth:`~repro.graph.graph.Graph.composite_index`
    (deterministic derived data of an immutable snapshot, so every run
    and every shm attach shares one O(E) haystack).  One binary search
    answers "is ``v`` adjacent to ``u``" for any pair — or "where does
    ``u``'s sorted list pass ``v``", which is a symmetry bound as a slice
    — so a batch's membership tests and windows are vectorised
    ``searchsorted`` calls.
    """
    return graph.composite_index()


def edge_member(comp: np.ndarray, num_vertices: int, src: np.ndarray,
                dst: np.ndarray) -> np.ndarray:
    """Vectorised adjacency test against a composite edge index:
    is ``dst[i]`` a neighbour of ``src[i]``?"""
    if len(comp) == 0:
        return np.zeros(len(src), dtype=bool)
    q = src * num_vertices + dst
    idx = np.searchsorted(comp, q)
    idx[idx == len(comp)] = 0
    return comp[idx] == q


def edge_member_rows(comp: np.ndarray, num_vertices: int, srcs: np.ndarray,
                     dst: np.ndarray) -> np.ndarray:
    """Conjunction of adjacency tests across the columns of ``srcs``.

    Row ``i`` is ``True`` iff ``dst[i]`` is adjacent to **every**
    ``srcs[i, w]`` — VERIFY's membership test, where each row has one
    fixed target and nothing to shrink, so all ``W`` columns resolve
    through **one** ``searchsorted`` over the stacked composite keys
    instead of ``W`` separate :func:`edge_member` passes.  Bit-for-bit
    equal to ANDing the per-column results (boolean algebra has no
    rounding).
    """
    E, W = srcs.shape
    if E == 0 or W == 0:
        return np.ones(E, dtype=bool)
    if len(comp) == 0:
        return np.zeros(E, dtype=bool)
    q = (srcs * num_vertices + dst[:, None]).ravel()
    idx = np.searchsorted(comp, q)
    idx[idx == len(comp)] = 0
    return (comp[idx] == q).reshape(E, W).all(axis=1)


def _gather_slices(indices: np.ndarray, start: np.ndarray,
                   L: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``indices[start[i] : start[i] + L[i]]`` for every ``i``,
    concatenated, and the ``i`` each element came from."""
    row_ids = np.repeat(np.arange(len(L), dtype=np.int64), L)
    # output position j holds slice i's element j - (where slice i's
    # output began), i.e. indices[start[i] - begin[i] + j]
    shift = np.repeat(start - (np.cumsum(L) - L), L)
    return row_ids, indices[shift + np.arange(len(shift), dtype=np.int64)]


def csr_gather(indptr: np.ndarray, indices: np.ndarray,
               vids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concatenated adjacency lists of ``vids`` straight from CSR.

    Returns ``(row_ids, flat)`` where ``flat`` is the neighbour ids of
    ``vids[0]``, then ``vids[1]``, … and ``row_ids[i]`` names the input
    row ``flat[i]`` came from.
    """
    start = indptr[vids]
    return _gather_slices(indices, start, indptr[vids + 1] - start)


def fused_verify_mask(comp: np.ndarray, num_vertices: int,
                      verts: np.ndarray, targets: np.ndarray,
                      labels: np.ndarray | None = None,
                      new_label: int | None = None) -> np.ndarray:
    """Fused VERIFY: does each row's target close every pattern edge?

    One stacked membership pass plus the label filter; replaces the
    per-extend-column :func:`edge_member` loop with identical output.
    """
    found = edge_member_rows(comp, num_vertices, verts, targets)
    if new_label is not None and labels is not None:
        found &= labels[targets] == new_label
    return found


def fused_extend_candidates(indptr: np.ndarray, indices: np.ndarray,
                            comp: np.ndarray, num_vertices: int,
                            rows: np.ndarray, verts_sorted: np.ndarray,
                            lt: Sequence[int], gt: Sequence[int],
                            labels: np.ndarray | None = None,
                            new_label: int | None = None,
                            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fused PULL-EXTEND candidate pass: window → gather → shrink.

    ``verts_sorted`` is each row's extend vertices sorted by adjacency
    length (column 0 = the smallest list, the candidate source).

    * **Window first.**  The symmetry order bounds a row's candidates to
      ``max(rows[:, gt]) < c < min(rows[:, lt])``.  Adjacency lists are
      sorted and a key's position in ``comp`` is its arc's position in
      ``indices``, so the bounds are a slice of the smallest list — two
      row-level searches — and what lies outside is never gathered.  An
      empty window (``hi <= lo``) clamps to length 0; ``lo == n`` lands
      on ``indptr[v0 + 1]`` because ``v0 * n + n`` is the next vertex's
      first possible key.
    * **Shrink as you go.**  Every other list is probed one column at a
      time with a compaction after each, so a list only sees what the
      lists before it left; the label filter and the distinctness test
      (against *every* column of the partial match — a CSR handed to
      ``Graph(indptr, indices)`` may carry self-loops, so adjacency does
      not imply distinctness) run on the survivors only.

    Every filter is a boolean conjunction and compaction keeps (row,
    ascending id) order, so the returned ``(cand, row_ids, counts)``
    equal a gather-everything, pass-per-filter pipeline's element for
    element; ``counts[i]`` is row ``i``'s emit count, which the caller
    multiplies by the emit tick weight.  The intersection *charge* is
    not this function's business: callers compute it from the full
    sorted lengths, windowed or not.
    """
    v0 = verts_sorted[:, 0]
    start = (np.searchsorted(comp, v0 * num_vertices
                             + (rows[:, list(gt)].max(axis=1) + 1))
             if len(gt) else indptr[v0])
    stop = (np.searchsorted(comp, v0 * num_vertices
                            + rows[:, list(lt)].min(axis=1))
            if len(lt) else indptr[v0 + 1])
    row_ids, cand = _gather_slices(indices, start,
                                   np.maximum(stop - start, 0))
    for w in range(1, verts_sorted.shape[1]):
        keep = edge_member(comp, num_vertices, verts_sorted[row_ids, w], cand)
        cand, row_ids = cand[keep], row_ids[keep]
    if new_label is not None and labels is not None:
        keep = labels[cand] == new_label
        cand, row_ids = cand[keep], row_ids[keep]
    keep = np.ones(len(cand), dtype=bool)
    for p in range(rows.shape[1]):
        keep &= cand != rows[row_ids, p]
    cand, row_ids = cand[keep], row_ids[keep]
    return cand, row_ids, np.bincount(row_ids, minlength=len(rows))


def extend_block(graph, rows: np.ndarray, verts: np.ndarray,
                 lens: np.ndarray, lt: Sequence[int], gt: Sequence[int],
                 labels: np.ndarray | None = None,
                 new_label: int | None = None,
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One PULL-EXTEND step over a block of partial matches whose extend
    vertices ``verts = rows[:, ext]`` and their adjacency lengths ``lens``
    are already gathered.

    Each row's extend vertices are put smallest adjacency list first (a
    stable sort, so equal lengths keep ``ext`` order) and the block goes
    through :func:`fused_extend_candidates`.  Returns its ``(cand,
    row_ids, counts)`` plus the ``(n, |ext|)`` lengths in that sorted
    order — column 0 is the list the candidates came from, the rest are
    the lists probed, which is what the intersection cost formula reads
    (the *full* lengths: the symmetry window saves our gather, not the
    modelled machine's scan).
    """
    if verts.shape[1] > 1:
        by_len = lens.argsort(axis=1, kind="stable")
        row = np.arange(len(rows))[:, None]
        verts, lens = verts[row, by_len], lens[row, by_len]
    cand, row_ids, counts = fused_extend_candidates(
        graph.indptr, graph.indices, graph.composite_index(),
        graph.num_vertices, rows, verts, lt, gt, labels, new_label)
    return cand, row_ids, counts, lens


def extend_step(graph, rows: np.ndarray, ext: Sequence[int],
                lt: Sequence[int], gt: Sequence[int],
                labels: np.ndarray | None = None,
                new_label: int | None = None,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One PULL-EXTEND step of an :class:`~repro.core.dataflow.ExtendSpec`
    (its ``ext`` / ``candidate_lt`` / ``candidate_gt`` / ``new_label``)
    over a block of partial matches: gather ``rows[:, ext]`` and the
    adjacency lengths, then :func:`extend_block`.  The delta pass and the
    sampling estimator extend through here; the engine's operator, whose
    fetch stage has gathered the block already, enters at
    :func:`extend_block`.
    """
    verts = rows[:, list(ext)]
    lens = graph.indptr[verts + 1] - graph.indptr[verts]
    return extend_block(graph, rows, verts, lens, lt, gt, labels, new_label)


# -- grouped hash-join matching -------------------------------------------------


def join_pairs(build: np.ndarray, probe: np.ndarray,
               build_key: tuple[int, ...], probe_key: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
    """All (build row index, probe row index) key matches, emitted
    probe-major with build rows in insertion order within each bucket —
    the exact emission order of the scalar dict-of-buckets join."""
    nb = len(build)
    all_keys = np.concatenate(
        (build[:, list(build_key)], probe[:, list(probe_key)]))
    _, inv = np.unique(all_keys, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    build_gid, probe_gid = inv[:nb], inv[nb:]
    num_groups = int(inv.max()) + 1 if len(inv) else 0
    group_counts = np.bincount(build_gid, minlength=num_groups)
    # stable sort by group: within a group, ascending row index = the
    # order rows were inserted into the bucket
    build_order = np.argsort(build_gid, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(group_counts)))
    per_probe = group_counts[probe_gid]
    total = int(per_probe.sum())
    probe_idx = np.repeat(np.arange(len(probe)), per_probe)
    ramp = np.arange(total) - np.repeat(
        np.cumsum(per_probe) - per_probe, per_probe)
    build_idx = build_order[np.repeat(offsets[probe_gid], per_probe) + ramp]
    return build_idx, probe_idx


def join_rows(build: np.ndarray, probe: np.ndarray,
              build_key: tuple[int, ...], probe_key: tuple[int, ...],
              build_left: bool, right_carry: Sequence[int],
              distinct: Sequence[tuple[int, int]],
              conditions: Sequence[tuple[int, int]]
              ) -> tuple[np.ndarray, np.ndarray]:
    """One machine's local hash join, output rows included.

    All key matches in :func:`join_pairs` order, each written left row
    then the right row's ``right_carry`` columns (``build_left`` says
    which side the build rows are), keeping a row only if its
    ``distinct`` position pairs differ (injectivity across the sides)
    and every ``conditions`` pair ``(i, j)`` has ``row[i] < row[j]``.
    Returns the emitted rows and the per-probe-row emit counts the
    chunked charges need — PUSH-JOIN and the baselines' relation join
    are this one program.
    """
    build_idx, probe_idx = join_pairs(build, probe, build_key, probe_key)
    brows, prows = build[build_idx], probe[probe_idx]
    lf, rf = (brows, prows) if build_left else (prows, brows)
    joined = np.concatenate((lf, rf[:, list(right_carry)]), axis=1)
    keep = np.ones(len(joined), dtype=bool)
    for i, j in distinct:
        keep &= joined[:, i] != joined[:, j]
    for i, j in conditions:
        keep &= joined[:, i] < joined[:, j]
    return joined[keep], np.bincount(probe_idx[keep], minlength=len(probe))


# -- per-chunk probe charges ------------------------------------------------------


def chunk_charges(emit_per_probe: np.ndarray, total: int, batch_size: int,
                  hash_ticks: int, emit_ticks: int,
                  base: int = 0) -> np.ndarray:
    """Tick charge of each output chunk of a hash-join probe loop.

    The loop emits ``total`` rows in chunks of ``batch_size`` and charges
    as it goes: one ``hash_ticks`` per probe row, one ``emit_ticks`` per
    emitted row.  Chunk ``c`` is charged for the emits of rows
    ``[c*B, (c+1)*B)`` plus the probe rows first *reached* while it
    fills — a probe row is reached once all earlier rows' emissions are
    out, i.e. at emitted-row index ``T_p`` (the exclusive running sum of
    per-row emit counts).  The last entry is the residual chunk together
    with everything after the final full one; ``base`` (a pre-loop
    charge such as build-side hashing) lands on chunk 0.
    """
    num_full = total // batch_size
    reached_at = np.cumsum(emit_per_probe) - emit_per_probe
    hash_counts = np.bincount(np.minimum(reached_at // batch_size, num_full),
                              minlength=num_full + 1)
    emit_counts = np.full(num_full + 1, batch_size, dtype=np.int64)
    emit_counts[num_full] = total - num_full * batch_size
    charges = hash_counts * hash_ticks + emit_counts * emit_ticks
    charges[0] += base
    return charges
