"""Shared vectorised kernels of the columnar runtime.

Both the HUGE runtime (:mod:`repro.core.operators`) and the baseline
engines (:mod:`repro.baselines`) run their inner loops as array programs
over ``int64`` columns.  The cost they charge is counted in integer ticks
(:mod:`repro.cluster.cost`), so a vectorised charge is a multiplication
and a sum — exact in any order, with nothing to replay.  This module
holds the array programs themselves:

* :func:`hash_destinations` — the routing function of every hash shuffle,
  *defined* here as an xxHash-style integer mix over the key columns.
* :func:`csr_gather` / :func:`extend_candidates` /
  :func:`extend_block` — PULL-EXTEND's candidate pass: the symmetry
  order as a window on the smallest sorted list, then one membership
  probe per candidate and remaining list, label and distinctness filters
  on the survivors; a VERIFY is the same pass with one fixed candidate
  per row, the row's own vertex at the verified column.  Membership is
  the graph's (:meth:`~repro.graph.graph.Graph.has_arc_keys`): a probe
  is a composite key ``u * n + v``, answered by a hashed slot table
  once the snapshot has served enough probes to pay for it, by the
  composite index before.  :func:`extend_candidates` is the pass for a
  gathered block (by-length sort, then the pass) and
  :func:`extend_step` gathers the block for one ``ExtendSpec`` first;
  :func:`extend_block`, the engine's intersect stage behind an
  ``LRUCache`` (extending or VERIFY), returns the output rows and each
  row's intersection ticks instead of the candidates.
* :func:`join_blocks` / :func:`join_chunks` — the
  hash join in bounded blocks: each key becomes one ``int64`` and the
  build side is sorted once, probe buckets are ``searchsorted`` ranges,
  and the key matches come in blocks of at most :data:`JOIN_BLOCK_PAIRS`
  pairs; the cross-side filters run on each block's pairs and only
  survivors become rows (none, when the join is only counted: its rows
  are column-less); the rows are re-cut into output chunks, each charged
  as its probe rows are reached.  So a machine's join holds one block
  and one chunk, not its whole output.  :func:`chunk_charges` is the
  same charge for a join whose per-probe emit counts are all known.
* Five entry points compiled: ``kernels.c`` holds :func:`extend_block` /
  :func:`extend_candidates` as one loop over the rows (sort, window, one
  probe per candidate and list, filters, then the kept rows and the
  ticks written out; BiGJoin's rounds run it with per-list survivor
  counts and the window as a filter, an ``LRUCache`` step's VERIFY with
  one candidate per row), a whole PULL-EXTEND step over an
  LRBU cache, extending or VERIFY (:func:`pull_extend_step`: the fetch
  stage's classification, pull counts and admission, that extend loop,
  the worker deal and the release, on the cache's arrays; see
  :meth:`repro.core.cache.LRBUCache.pull_extend`), the worker deal
  (:func:`repro.core.stealing.distribute_to_workers`) as one loop over
  the sorted costs, a join block as one loop over its pairs (filters,
  then the kept row written out), and the star baselines' combination
  builder (:func:`repro.baselines.base.combo_rows`) as one loop over its
  input rows.  The library is built once per source hash with the
  system C compiler and loaded through cffi (:func:`_load_library`),
  both of which the package needs; each caller checks its inputs before
  it passes a pointer.  Each loop is the one program of its job here;
  ``tests/reference_kernels.py`` holds the numpy program the tests hold
  it to.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import itertools
import os
import subprocess
import tempfile
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "JOIN_BLOCK_PAIRS",
    "chunk_charges",
    "csr_gather",
    "edge_composite_index",
    "extend_block",
    "extend_candidates",
    "extend_step",
    "hash_destinations",
    "intersect_sorted",
    "join_blocks",
    "join_chunks",
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
    """:meth:`~repro.graph.graph.Graph.composite_index`, under the name the
    perf benchmark's ``stream-updates`` replay times it by; code in the
    package calls the method."""
    return graph.composite_index()


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


def _check_survivors(survivors: np.ndarray | None,
                     verts: np.ndarray) -> None:
    """Refuse a survivor-count array that is not a writable C-contiguous
    ``int64`` array shaped like ``verts`` (one count per row and list)."""
    if survivors is not None and not (
            isinstance(survivors, np.ndarray)
            and survivors.shape == verts.shape
            and survivors.dtype == np.int64
            and survivors.flags.c_contiguous
            and survivors.flags.writeable):
        raise ValueError("survivors must be a writable C-contiguous int64 "
                         f"array of shape {verts.shape}")


def extend_candidates(graph, rows: np.ndarray, verts: np.ndarray,
                      lens: np.ndarray, lt: Sequence[int], gt: Sequence[int],
                      labels: np.ndarray | None = None,
                      new_label: int | None = None,
                      survivors: np.ndarray | None = None,
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PULL-EXTEND's candidate pass over a block of partial matches whose
    extend vertices ``verts = rows[:, ext]`` and their adjacency lengths
    ``lens`` are already gathered.

    Each row's extend vertices are put smallest adjacency list first (a
    stable sort, so equal lengths keep ``ext`` order) and the block goes
    through the candidate pass (see the module's summary): its
    ``(cand, row_ids, counts)``.  ``survivors``, when given, receives the
    per-list survivor counts (in that sorted order) and turns the window
    into a filter: the whole smallest list is the candidates.

    The pass runs as one compiled loop over the rows (``extend_rows`` of
    ``kernels.c``: per row the sort, the window's two searches in the
    smallest list, one slot-table read per probe — a galloping search
    while the snapshot has no table — and the filters), loaded by
    :func:`_load_library`.  It counts its searched probes toward the
    snapshot's slot table as ``has_arc_keys`` would.
    """
    _, cand, row_ids, counts, _ = _extend_compiled(
        graph, rows, verts, lens, lt, gt, labels, new_label, pairs=True,
        survivors=survivors)
    return cand, row_ids, counts


def extend_block(graph, rows: np.ndarray, verts: np.ndarray,
                 lens: np.ndarray, lt: Sequence[int], gt: Sequence[int],
                 intersect: int, probe_ticks: np.ndarray,
                 labels: np.ndarray | None = None,
                 new_label: int | None = None, count_only: bool = False,
                 survivors: np.ndarray | None = None, verify: int = -1,
                 ) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """One PULL-EXTEND step's intersect stage over a gathered block (see
    :func:`extend_candidates`): ``(out, counts, ticks)``.

    ``out`` is every kept ``row ‖ candidate``, an ``(n, width + 1)``
    block in (row, ascending candidate) order — ``None`` with
    ``count_only`` (a final PULL-EXTEND into a counting SINK).
    ``counts[i]`` is row ``i``'s emit count and ``ticks[i]`` its
    intersection charge, :meth:`~repro.cluster.cost.CostModel.intersection_ops`
    over its *full* adjacency lengths: ``len₀ · (intersect + Σ
    probe_ticks[lenᵥ])``, the smallest list scanned and every other one
    probed once per element.  ``survivors`` is as in
    :func:`extend_candidates` (BiGJoin's rounds read it).

    A ``verify`` column (a VERIFY step; −1 extends) makes each row's one
    candidate its own vertex there, kept when it is in every list and
    carries ``new_label``: ``out`` is then the kept rows as they are,
    ``(n, width)``, and ``lt`` / ``gt`` play no part.

    The compiled ``extend_rows`` writes the output rows and the ticks in
    its one pass over the rows.
    """
    out, _, _, counts, ticks = _extend_compiled(
        graph, rows, verts, lens, lt, gt, labels, new_label,
        ticks=(intersect, probe_ticks), block=not count_only,
        survivors=survivors, verify=verify)
    return out, counts, ticks


def _extend_compiled(graph, rows, verts, lens, lt, gt, labels, new_label,
                     ticks=None, pairs=False, block=False, survivors=None,
                     verify=-1):
    """The candidate pass through ``extend_rows`` of ``kernels.c``:
    ``(out, cand, row_ids, counts, ticks)``, all but ``counts`` ``None``
    unless asked for — ``block`` for the output rows, ``pairs`` for the
    candidates and their rows, ``ticks = (intersect, probe_ticks)`` for
    the intersection charges; ``survivors``, when given, receives the
    per-list survivor counts; ``verify`` is a VERIFY's column, or −1."""
    n_rows, k = verts.shape
    n, width = graph.num_vertices, rows.shape[1]
    label = new_label is not None and labels is not None
    verifying = verify >= 0
    # the loop indexes CSR by vertex, rows by position, labels by
    # candidate and the probe-tick table by length without checks of its
    # own
    if (lens.shape != verts.shape or len(rows) != n_rows or k < 1
            or (n_rows and not 0 <= verts.min() <= verts.max() < n)
            or not all(0 <= p < width for p in (*lt, *gt))
            or not -1 <= verify < width
            or (verifying and survivors is not None)
            or (verifying and n_rows and not 0 <= rows[:, verify].min()
                <= rows[:, verify].max() < n)
            or (label and len(labels) < n)
            or (ticks is not None and n_rows
                and not 0 <= lens.min() <= lens.max() < len(ticks[1]))):
        raise ValueError("extend block outside the graph or its rows")
    _check_survivors(survivors, verts)
    counts = np.empty(n_rows, dtype=np.int64)
    cap = 0
    if pairs or block:
        # a VERIFY row keeps itself or nothing
        cap = n_rows if verifying else int(lens.min(axis=1).sum())
    cand = row_ids = out = row_ticks = None
    if pairs:
        cand, row_ids = np.empty(cap, np.int64), np.empty(cap, np.int64)
    if block:
        out = np.empty((cap, width + (not verifying)), dtype=np.int64)
    if ticks is not None:
        row_ticks = np.empty(n_rows, dtype=np.int64)
    table = graph.arc_table_due(0)
    probes = _FFI.new("int64_t *")
    total = _LIB.extend_rows(
        n_rows, width, _buf(rows), k, _buf(verts), _buf(lens), _buf(lt),
        len(lt), _buf(gt), len(gt), _buf(graph.indptr), _buf(graph.indices),
        n, _ptr(table), 0 if table is None else len(table).bit_length() - 1,
        _buf(labels) if label else _FFI.NULL, int(new_label) if label else 0,
        int(verify), _FFI.NULL if ticks is None else _buf(ticks[1]),
        0 if ticks is None else int(ticks[0]), _ptr(row_ticks),
        _ptr(cand), _ptr(row_ids), _ptr(out), cap, _buf(counts),
        _ptr(survivors), probes)
    if table is None:
        graph.arc_table_due(probes[0])
    if (pairs or block) and total > cap:
        raise ValueError("lens are not the adjacency lengths of verts")
    if pairs:
        cand, row_ids = cand[:total], row_ids[:total]
    if block:
        # a view, not a copy: the buffer's pages past the kept rows were
        # never written, so they hold no resident memory
        out = out[:total]
    return out, cand, row_ids, counts, row_ticks


def extend_step(graph, rows: np.ndarray, ext: Sequence[int],
                lt: Sequence[int], gt: Sequence[int],
                labels: np.ndarray | None = None,
                new_label: int | None = None,
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One PULL-EXTEND candidate pass of an
    :class:`~repro.core.dataflow.ExtendSpec` (its ``ext`` /
    ``candidate_lt`` / ``candidate_gt`` / ``new_label``) over a block of
    partial matches: gather ``rows[:, ext]`` and the adjacency lengths,
    then :func:`extend_candidates`.  The delta pass, the sampling
    estimator and RADS' star candidates extend through here; the engine's
    operator, whose fetch stage has gathered the block already, enters at
    :func:`extend_block`.
    """
    verts = rows[:, list(ext)]
    lens = graph.indptr[verts + 1] - graph.indptr[verts]
    return extend_candidates(graph, rows, verts, lens, lt, gt, labels,
                             new_label)


# -- the compiled loops --------------------------------------------------------

_SOURCE = Path(__file__).with_name("kernels.c")
# -z nodelete: the library stays loaded to the process's end, so its pool's
# helpers, which run its code until then, never run unmapped
_CFLAGS = ("-O2", "-shared", "-fPIC", "-pthread", "-Wl,-z,nodelete")
_CDEF = """
int64_t extend_rows(int64_t, int64_t, const int64_t *, int64_t,
                    const int64_t *, const int64_t *,
                    const int64_t *, int64_t, const int64_t *, int64_t,
                    const int64_t *, const int64_t *, int64_t,
                    const int64_t *, int64_t, const int64_t *, int64_t,
                    int64_t, const int64_t *, int64_t, int64_t *,
                    int64_t *, int64_t *, int64_t *, int64_t, int64_t *,
                    int64_t *, int64_t *);
int64_t pull_extend_step(int64_t, int64_t, const int64_t *,
                         const int64_t *, int64_t, int64_t, const int64_t *,
                         const int64_t *, int64_t, const int64_t *, int64_t,
                         const int64_t *, const int64_t *, int64_t,
                         const int64_t *, int64_t, const int64_t *,
                         const int64_t *, int64_t, int64_t,
                         const int64_t *, int64_t,
                         const int64_t *, int64_t, int64_t,
                         int64_t, int64_t *, int64_t *, int64_t *,
                         int64_t *, int64_t, int64_t *, int64_t *,
                         int64_t, int64_t, int64_t, int64_t,
                         int64_t *, int64_t, int64_t *, int64_t *,
                         int64_t *, int64_t, int64_t *, int64_t *,
                         int64_t *);
int64_t deal_items(int64_t, const int64_t *, const int64_t *, int64_t,
                   int64_t, int64_t *);
int64_t join_block(int64_t, const int64_t *, int64_t,
                   const int64_t *, const int64_t *,
                   const int64_t *, int64_t, const int64_t *,
                   int64_t, const int64_t *, const int64_t *,
                   int64_t, const int64_t *, const int64_t *,
                   const int64_t *, int64_t *, int64_t *);
int64_t combo_rows(int64_t, const int64_t *, int64_t,
                   const int64_t *, const int64_t *, int64_t,
                   int64_t, const int64_t *,
                   int64_t, const int64_t *, const int64_t *,
                   int64_t *, int64_t *, int64_t);
"""


def _buf(a):
    """``a`` as an ``int64_t[]`` pointer (a C-contiguous ``int64`` copy
    first where it is not one already)."""
    return _FFI.from_buffer("int64_t[]", np.ascontiguousarray(
        a, dtype=np.int64))


def _ptr(a):
    """:func:`_buf`, or ``NULL`` for ``None``."""
    return _FFI.NULL if a is None else _buf(a)


def _load_library():
    """``(ffi, lib)`` of ``kernels.c`` through cffi's out-of-line ABI mode.

    Both halves are built once per hash of the source, the declaration,
    the flags and the cffi version, into ``$XDG_CACHE_HOME/repro``
    (``~/.cache/repro``): the library by ``cc``, and beside it the FFI as
    the Python module cffi generates from the declaration, so a later
    process — process-pool workers included — opens both without
    parsing any C.  Without cffi or ``cc``, or when the build or the
    load fails, raises one :class:`ImportError` that says so.
    """
    try:
        import _cffi_backend
        digest = hashlib.sha256(b"\0".join((
            _SOURCE.read_bytes(), _CDEF.encode(), repr(_CFLAGS).encode(),
            _cffi_backend.__version__.encode()))).hexdigest()
        stem = Path(os.environ.get("XDG_CACHE_HOME")
                    or Path.home() / ".cache") / "repro" / (
                        f"kernels-{digest[:16]}")
        lib_path, ffi_path = stem.with_suffix(".so"), stem.with_suffix(".py")
        if not (lib_path.exists() and ffi_path.exists()):
            _build_library(lib_path, ffi_path)
        spec = importlib.util.spec_from_file_location(stem.name, ffi_path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.ffi, module.ffi.dlopen(str(lib_path))
    except (ImportError, OSError, RuntimeError,
            subprocess.SubprocessError) as exc:
        # a failed cc says why on its stderr
        detail = getattr(exc, "stderr", None)
        detail = detail.decode(errors="replace").strip() if detail else exc
        raise ImportError("repro.core.kernels needs cffi and the C compiler "
                          f"cc to build and load kernels.c: {detail!s}"
                          ) from exc


def _build_library(lib_path: Path, ffi_path: Path) -> None:
    """Compile ``kernels.c`` to ``lib_path`` and write its FFI module to
    ``ffi_path``, each through a temporary file renamed into place, so
    first processes racing each other are harmless."""
    from cffi import FFI, recompiler
    ffi = FFI()
    ffi.cdef(_CDEF)
    lib_path.parent.mkdir(parents=True, exist_ok=True)
    for path, write in (
            (lib_path, lambda tmp: subprocess.run(
                ["cc", *_CFLAGS, "-o", tmp, str(_SOURCE)], check=True,
                capture_output=True)),
            (ffi_path, lambda tmp: recompiler.make_py_source(
                ffi, ffi_path.stem, tmp))):
        fd, tmp = tempfile.mkstemp(dir=path.parent)
        os.close(fd)
        try:
            write(tmp)
            os.replace(tmp, path)
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(tmp)


def _combo_compiled(prefix, cand, counts, nl, patterns, conds, cap,
                    count_only):
    """:func:`repro.baselines.base.combo_rows` through ``combo_rows`` of
    ``kernels.c``, with room for ``cap`` rows (the combinations before
    the conditions)."""
    n, pw = prefix.shape
    width = pw + nl
    patterns = np.asarray(patterns, dtype=np.int64)
    conds = np.asarray(conds, dtype=np.int64).reshape(-1, 2)
    # the loop reads candidates by the running count, leaves by pattern
    # entry and the row by condition position without checks of its own
    if (counts.shape != (n,) or nl < 1 or patterns.ndim != 2
            or patterns.shape[1] != nl or (n and counts.min() < 0)
            or int(counts.sum()) != len(cand)
            or not np.all((0 <= patterns) & (patterns < nl))
            or not np.all((0 <= conds) & (conds < width))):
        raise ValueError("combinations outside their rows or candidates")
    kept = np.empty(n, dtype=np.int64)
    rows = np.empty((cap, width), dtype=np.int64)
    total = _LIB.combo_rows(
        n, _buf(prefix), pw, _buf(cand), _buf(counts), nl, len(patterns),
        _buf(patterns), len(conds), _buf(conds[:, 0]), _buf(conds[:, 1]),
        _buf(kept), _FFI.NULL if count_only else _buf(rows), cap)
    if count_only:
        return None, kept
    if total > cap:
        raise ValueError("more combinations than the candidate counts give")
    # conditions that drop most rows let go of the unfiltered buffer
    return rows[:total] if 2 * total >= cap else rows[:total].copy(), kept


#: ``pull_extend_step``'s result array, by position (``kernels.c``'s
#: ``KEPT`` .. ``LOST``)
STEP_RESULTS = ("kept", "probes", "pinned", "lost")


def pull_extend_step(graph, owner, k, rows, machines, ext, verify, lt, gt,
                     labels, new_label, probe_ticks, weights, cache, workers,
                     steal, out, batches):
    """One PULL-EXTEND step over an LRBU cache through ``pull_extend_step``
    of ``kernels.c`` (its comment says what each array holds; ``weights``
    is in its ``SEAL`` .. ``EMIT`` order): the fetch stage, the extend
    pass — a VERIFY at column ``verify``, unless it is −1 — the worker
    deal and the release in one call.
    ``cache`` is ``(capacity, entry, order, queue, stamps, queue_state,
    pins, n_pins)``, updated in place.  ``out`` (``None`` for a counted
    step) receives the kept rows.  Returns the loop's status — 0 done, a
    queue capacity the pins wait for, or −2 when a pinned key was lost —
    then ``(counts, ticks, totals, fetched, pulls, result)``, per row, per
    row, ``batches × workers``, ``3 k``, ``2 k²`` and
    :data:`STEP_RESULTS` long: views of one report array.

    Here the arrays' types, layouts and lengths are checked; the loop
    checks every id, position and length, and the room in ``pins`` and
    ``out``, before it writes, so a step it refuses leaves everything as
    it was.
    """
    capacity, entry, order, queue, stamps, state, pins, n_pins = cache
    n_rows, width = rows.shape
    n = graph.num_vertices
    label = new_label is not None and labels is not None
    table = graph.arc_table_due(0)
    cuts = list(itertools.accumulate(
        (n_rows, n_rows, batches * workers, 3 * k, 2 * k * k,
         len(STEP_RESULTS)), initial=0))
    if (len(machines) != n_rows or len(owner) < n
            or (label and len(labels) < n) or len(weights) != 6
            or not all(isinstance(a, np.ndarray) and a.dtype == np.int64
                       and a.flags.c_contiguous and a.flags.writeable
                       for a in (entry, order, queue, stamps, state, pins,
                                 *(() if out is None else (out,))))
            or order.shape != entry.shape or stamps.shape != queue.shape
            or len(queue) != len(entry) or state.shape != (len(entry), 6)
            or (out is not None and out.shape[1:] != (width + (verify < 0),))):
        raise ValueError("PULL-EXTEND step arrays of the wrong shape")
    report = np.empty(cuts[-1], dtype=np.int64)
    at = _FFI.from_buffer("int64_t[]", report)
    counts, ticks, totals, fetched, pulls, result = (at + c for c in cuts[:-1])
    status = _LIB.pull_extend_step(
        n_rows, width, _buf(rows), _buf(machines), k, len(ext), _buf(ext),
        _buf(lt), len(lt), _buf(gt), len(gt), _buf(graph.indptr),
        _buf(graph.indices), n, _ptr(table),
        0 if table is None else len(table).bit_length() - 1, _buf(owner),
        _buf(labels) if label else _FFI.NULL, int(new_label) if label else 0,
        verify, _buf(probe_ticks), len(probe_ticks), _buf(weights), len(entry),
        entry.shape[1], -1 if capacity is None else capacity,
        *(_FFI.from_buffer("int64_t[]", a) for a in (entry, order, queue,
                                                     stamps)),
        queue.shape[1], _FFI.from_buffer("int64_t[]", state),
        _FFI.from_buffer("int64_t[]", pins), n_pins, len(pins), workers,
        int(steal), _FFI.NULL if out is None else _FFI.from_buffer(
            "int64_t[]", out), 0 if out is None else len(out), counts, ticks,
        totals, batches * workers, fetched, pulls, result)
    if status == -1:
        raise ValueError("PULL-EXTEND step outside its graph, cache or "
                         "buffers")
    if status == -3:
        raise MemoryError("no scratch memory for a PULL-EXTEND step")
    parts = [report[a:b] for a, b in zip(cuts, cuts[1:])]
    if table is None:
        graph.arc_table_due(int(parts[-1][1]))
    return (status, *parts)


def _deal_compiled(costs, seg, batches, workers):
    """:func:`repro.core.stealing.distribute_to_workers`' snake deal
    through ``deal_items`` of ``kernels.c``: the ``(batches, workers)``
    totals of ``costs``, sorted heaviest first within each batch."""
    if seg.shape != costs.shape or workers < 1:
        raise ValueError("a deal needs one batch number per item")
    totals = np.zeros((batches, workers), dtype=np.int64)
    # the loop checks each batch number before it writes the item
    if _LIB.deal_items(len(costs), _buf(costs), _buf(seg), batches,
                       workers, _buf(totals)) < 0:
        raise ValueError("batch numbers out of range or decreasing")
    return totals


#: the loaded library's FFI and the library
_FFI, _LIB = _load_library()


# -- blocked hash join ----------------------------------------------------------

#: the most (build row, probe row) key matches one join block holds — the
#: working set of a machine's local join, however many rows it emits in
#: total (a module constant, like ``stream.delta.DELTA_BLOCK``, so a test
#: can shrink it)
JOIN_BLOCK_PAIRS = 1 << 16


def _join_keys(build: np.ndarray, probe: np.ndarray,
               build_key: tuple[int, ...], probe_key: tuple[int, ...]
               ) -> tuple[np.ndarray, np.ndarray]:
    """Every row's join key as one ``int64``, equal across the sides iff
    the key columns are.  The first column is the key as it is; each
    further column ``c`` densely re-ranks the key so far and appends
    itself, ``rank * (max(c) + 1) + c`` — below 2**62, because ids are
    below 2**31 (:func:`~repro.graph.graph.edge_rows` enforces it)."""
    key = np.empty(0, dtype=np.int64)
    for j, (b, p) in enumerate(zip(build_key, probe_key)):
        col = np.concatenate((build[:, b], probe[:, p]))
        if j == 0 or not len(col):
            key = col
            continue
        rank = np.unique(key, return_inverse=True)[1].reshape(-1)
        key = rank * (int(col.max()) + 1) + col
    return key[:len(build)], key[len(build):]


def _pair_ranges(build: np.ndarray, probe: np.ndarray,
                 build_key: tuple[int, ...], probe_key: tuple[int, ...]):
    """All (build row, probe row) key matches — probe-major, build rows
    in insertion order within a bucket — in blocks of at most
    :data:`JOIN_BLOCK_PAIRS` pairs (a bucket crossing a cut is split
    between two blocks), each block's build rows as ranges:
    ``(order, blocks)``, the build rows in bucket order and an iterator
    of ``(p0, counts, lo)`` — probe row ``p0 + i``'s pairs in the block
    match build rows ``order[lo[i]:lo[i] + counts[i]]``."""
    order, bounds, shift = _buckets(build, probe, build_key, probe_key)

    def blocks():
        budget = JOIN_BLOCK_PAIRS
        starts, ends = bounds[:-1], bounds[1:]
        total = int(bounds[-1])
        p0 = 0
        for a in range(0, max(total, 1), budget):
            b = min(a + budget, total)
            # probe rows whose pairs all end by b, then the one running
            # past it
            done = int(np.searchsorted(ends, b, side="right"))
            p1 = done + 1 if b < total else len(probe)
            s = np.clip(starts[p0:p1], a, b)
            yield p0, np.clip(ends[p0:p1], a, b) - s, shift[p0:p1] + s
            p0 = done
    return order, blocks()


def _buckets(build: np.ndarray, probe: np.ndarray,
             build_key: tuple[int, ...], probe_key: tuple[int, ...]
             ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, bounds, shift)``: the build rows in bucket order; probe
    row ``p``'s pairs are pair indices ``bounds[p] .. bounds[p + 1]``,
    pair ``j`` matching build row ``order[shift[p] + j]``.  (A function of
    its own so the keys and sorted keys are freed before the first
    block.)"""
    build_keys, probe_keys = _join_keys(build, probe, build_key, probe_key)
    order = np.argsort(build_keys, kind="stable")
    sorted_keys = build_keys[order]
    lo = np.searchsorted(sorted_keys, probe_keys, side="left")
    bounds = np.zeros(len(probe) + 1, dtype=np.int64)
    np.cumsum(np.searchsorted(sorted_keys, probe_keys, side="right") - lo,
              out=bounds[1:])
    return order, bounds, lo - bounds[:-1]


def join_blocks(build: np.ndarray, probe: np.ndarray,
                build_key: tuple[int, ...], probe_key: tuple[int, ...],
                build_left: bool, right_carry: Sequence[int],
                distinct: Sequence[tuple[int, int]],
                conditions: Sequence[tuple[int, int]],
                materialise: bool = True):
    """One machine's local hash join, one :func:`_pair_ranges` block at a
    time — PUSH-JOIN and the baselines' relation join are this program.

    An output row is the left row then the right row's ``right_carry``
    columns (``build_left`` says which side the build rows are).  It is
    kept only if its ``distinct`` position pairs differ (injectivity
    across the sides) and every ``conditions`` pair ``(i, j)`` has
    ``row[i] < row[j]``.  Yields ``(rows, p0, kept)`` per block,
    ``kept[i]`` the rows it emits for probe row ``p0 + i``.  Unless
    ``materialise`` (a join whose output is only counted) ``rows`` is
    column-less, ``(kept.sum(), 0)``.

    Each block runs as one compiled loop over its pairs (``join_block``
    of ``kernels.c``): per pair the build row read through the sort
    order, the filters, then the kept row written straight into the
    block's output.
    """
    carry = np.asarray(right_carry, dtype=np.intp)
    tests = np.asarray([(i, j, 0) for i, j in distinct]
                       + [(i, j, 1) for i, j in conditions],
                       dtype=np.int64).reshape(-1, 3)
    order, ranges = _pair_ranges(build, probe, build_key, probe_key)
    build = np.ascontiguousarray(build, dtype=np.int64)
    probe = np.ascontiguousarray(probe, dtype=np.int64)
    for p0, counts, lo in ranges:
        yield _join_block(build, probe, p0, counts, (order, lo), build_left,
                          carry, tests, materialise)


def _join_block(build, probe, p0, counts, pairs, build_left, carry, tests,
                materialise):
    """:func:`join_blocks` on one block through ``join_block`` of
    ``kernels.c``, as ``(rows, p0, kept)``: probe row ``p0 + i`` against
    the build rows ``pairs = (order, lo)`` name (see
    :func:`_pair_ranges`)."""
    order, lo = pairs
    n = len(counts)
    left_width = (build if build_left else probe).shape[1]
    width = left_width + len(carry)
    # the loop reads build rows through order (an argsort of the build
    # keys, so a permutation of its rows) and columns by position without
    # checks of its own
    if (lo.shape != counts.shape or not 0 <= p0 <= p0 + n <= len(probe)
            or len(order) != len(build)
            or (n and (counts.min() < 0 or lo.min() < 0
                       or (lo + counts).max() > len(build)))
            or not np.all((0 <= carry) & (carry < (
                probe if build_left else build).shape[1]))
            or not np.all((0 <= tests[:, :2]) & (tests[:, :2] < width))):
        raise ValueError("join block outside its sides")
    from_build = np.arange(width) < left_width
    if not build_left:
        from_build = ~from_build
    col = np.concatenate((np.arange(left_width), carry)).astype(np.int64)
    kept = np.empty(n, dtype=np.int64)
    cap = int(counts.sum())
    rows = np.empty((cap if materialise else 0, width), dtype=np.int64)
    total = _LIB.join_block(
        n, _buf(probe[p0:p0 + n]), probe.shape[1], _buf(counts), _buf(lo),
        _buf(build), build.shape[1], _buf(order), width,
        _buf(from_build), _buf(col), len(tests),
        _buf(tests[:, 0]), _buf(tests[:, 1]), _buf(tests[:, 2]),
        _buf(kept), _buf(rows) if materialise else _FFI.NULL)
    if not materialise:
        return np.empty((total, 0), dtype=np.int64), p0, kept
    # a block that keeps little lets go of its pair-sized buffer
    return (rows[:total] if 2 * total >= cap else rows[:total].copy(),
            p0, kept)


def join_chunks(blocks, batch_size: int, hash_ticks: int, emit_ticks: int):
    """Cut :func:`join_blocks`' rows into chunks of ``batch_size``, each
    with the tick charge :func:`chunk_charges` gives it for the whole
    join — computed as the blocks arrive.

    A probe row is charged to the chunk filling when it is *reached*, at
    emitted-row index ``T_p``; ``T_p`` is known once the first block
    holding the row is done, and every row reached before a full chunk's
    end is known by the time the chunk is.  Yields ``(rows, ticks)`` for
    each full chunk, then the residual: the one item with fewer than
    ``batch_size`` rows (possibly none), carrying every row not yet
    charged.  Between chunks the carried rows are under one chunk plus
    one block.

    Over a counting :func:`join_blocks` (``materialise=False``) the rows
    are column-less, so the same cuts and charges come from the blocks'
    ``kept`` counts alone and each chunk is an ``(n, 0)`` batch: a count.
    """
    parts: list[np.ndarray] = []
    held = 0            # rows in parts
    produced = 0        # rows emitted so far, parts included
    seen = 0            # probe rows whose reach point is known
    pending: list[np.ndarray] = []  # reach points not yet charged, ascending
    for rows, p0, kept in blocks:
        reach = produced + np.cumsum(kept) - kept
        pending.append(reach[seen - p0:])
        seen = p0 + len(kept)
        produced += len(rows)
        parts.append(rows)
        held += len(rows)
        if held < batch_size:
            continue
        # hold the block's rows once while the chunks are out
        carried, parts, rows = np.concatenate(parts), [], None
        reached = np.concatenate(pending)
        num_full = held // batch_size
        chunk_ends = (produced - held
                      + batch_size * np.arange(1, num_full + 1))
        cuts = np.searchsorted(reached, chunk_ends, side="left")
        hashed = np.diff(cuts, prepend=0)
        for c in range(num_full):
            yield (carried[c * batch_size:(c + 1) * batch_size],
                   int(hashed[c]) * hash_ticks + batch_size * emit_ticks)
        parts = [carried[num_full * batch_size:]]
        held -= num_full * batch_size
        pending = [reached[cuts[-1]:]]
    yield (np.concatenate(parts),
           sum(map(len, pending)) * hash_ticks + held * emit_ticks)


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
