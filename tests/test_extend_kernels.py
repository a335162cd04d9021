"""PULL-EXTEND's candidate pass — the compiled per-row loop
(``extend_rows`` of ``core/kernels.c``) and its numpy reference
(``tests/reference_kernels.py``) — against a gather-everything
reference: candidates, row ids and counts element for element, the
output block and the per-row intersection ticks against
the rows beside their candidates and ``CostModel.intersection_ops``, and
the same membership probes counted, on a graph with and without its slot
table.  The ``numpy`` cases run the package with the references bound at
its call sites (:func:`reference_kernels.bound`);
``tests/test_procpool.py::TestFusedKernels`` runs the operator-level
kernel tests through both with these helpers."""

from __future__ import annotations

import os
import shutil
import subprocess
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.cluster import CostModel
from repro.graph import Graph
from repro.graph import generators as gen
from repro.graph.graph import _SHARED, _slots
from repro.testing.strategies import graphs

from .reference_kernels import PATHS, bound
from .test_graph import arc_table_sides, with_self_loop


@pytest.fixture(params=PATHS)
def kernel_path(request):
    with bound(request.param):
        yield request.param


# -- the reference --------------------------------------------------------------


def _member(g, src, dst):
    """Reference adjacency test: a set lookup of the composite keys."""
    return np.isin(src * g.num_vertices + dst, g.composite_index())


def _reference_extend(g, rows, verts_sorted, lt, gt, labels, new_label):
    """The historical multi-pass pipeline: per-column membership loop with
    two compactions (pre-fusion ``ExtendOp._process_vector``)."""
    indptr, indices = g.indptr, g.indices
    n = len(rows)
    cand_vid = verts_sorted[:, 0]
    L = indptr[cand_vid + 1] - indptr[cand_vid]
    E = int(L.sum())
    row_ids = np.repeat(np.arange(n), L)
    ramp = np.arange(E) - np.repeat(np.cumsum(L) - L, L)
    cand = indices[np.repeat(indptr[cand_vid], L) + ramp]
    keep = np.ones(E, dtype=bool)
    for w in range(1, verts_sorted.shape[1]):
        keep &= _member(g, verts_sorted[row_ids, w], cand)
    if new_label is not None and labels is not None:
        keep &= labels[cand] == new_label
    cand, row_ids = cand[keep], row_ids[keep]
    keep = ~(cand[:, None] == rows[row_ids]).any(axis=1)
    for p in lt:
        keep &= cand < rows[row_ids, p]
    for p in gt:
        keep &= cand > rows[row_ids, p]
    cand, row_ids = cand[keep], row_ids[keep]
    return cand, row_ids, np.bincount(row_ids, minlength=n)


def _by_degree(g, verts):
    """Each row of ``verts`` smallest adjacency first, ties in column
    order (``sorted`` is stable)."""
    return np.asarray([sorted(r, key=g.degree) for r in verts.tolist()],
                      dtype=np.int64).reshape(verts.shape)


@st.composite
def _extend_cases(draw):
    """A data graph (edgeless ones included; sometimes rebuilt through
    ``Graph(indptr, indices)`` with a self-loop, which ``from_edges``
    would drop), a block of partial matches that reaches for ids ``0``
    and ``n - 1``, an ``ext`` of width 1–3, 0–2 ``lt`` and 0–2 ``gt``
    positions (so windows are often empty), labels on or off."""
    g = draw(graphs(min_vertices=2, max_vertices=12, min_edges=0))
    n = g.num_vertices
    if draw(st.booleans()):
        g = with_self_loop(g, draw(st.integers(0, n - 1)))
    arity = draw(st.integers(1, 4))
    ident = st.one_of(st.sampled_from([0, n - 1]), st.integers(0, n - 1))
    rows = draw(st.lists(st.lists(ident, min_size=arity, max_size=arity),
                         max_size=10))
    pos = st.integers(0, arity - 1)
    ext = draw(st.lists(pos, min_size=1, max_size=min(3, arity), unique=True))
    lt = draw(st.lists(pos, max_size=2, unique=True))
    gt = draw(st.lists(pos, max_size=2, unique=True))
    labels = draw(st.one_of(st.none(), st.lists(
        st.integers(0, 1), min_size=n, max_size=n).map(np.asarray)))
    return (g, np.asarray(rows, dtype=np.int64).reshape(-1, arity),
            tuple(ext), tuple(lt), tuple(gt), labels)


@st.composite
def _layout_cases(draw):
    """:func:`_extend_cases` in the layouts the compiled pass must copy
    or convert first: rows as a strided or column-major view, labels in
    a narrower integer dtype."""
    g, rows, ext, lt, gt, labels = draw(_extend_cases())
    layout = draw(st.sampled_from(["contiguous", "strided", "fortran"]))
    if layout == "strided":
        rows = np.repeat(rows, 2, axis=1)[:, ::2]
    elif layout == "fortran":
        rows = np.asfortranarray(rows)
    if labels is not None:
        labels = labels.astype(draw(st.sampled_from(
            [np.int64, np.int32, np.int8, np.uint8])))
    return g, rows, ext, lt, gt, labels


# -- the compiled pass and its reference against the gather-all one ------------


class TestExtendPaths:
    @pytest.mark.parametrize("path", PATHS)
    @given(case=_layout_cases())
    @settings(max_examples=200)    # ~1 s; 25 examples miss an off-by-one bound
    def test_extend_block_equals_reference(self, path, case):
        """self-loops, empty windows and ``lo == n``, width 1, zero rows,
        strided and column-major rows, narrow labels: every output array
        equals the reference's, the output block is each kept row beside
        its candidate, the ticks are ``CostModel.intersection_ops`` of the
        row's lengths, and a counted block has the same counts and ticks"""
        g, rows, ext, lt, gt, labels = case
        new_label = None if labels is None else 1
        verts = rows[:, list(ext)]
        lens = g.degrees()[verts]
        ref = _reference_extend(g, rows, _by_degree(g, verts), lt, gt,
                                labels, new_label)
        cost = CostModel(intersect_op=0.1)
        probe_ticks = cost.probe_tick_table(g.max_degree)
        want_block = np.column_stack((rows[ref[1]], ref[0]))
        want_ticks = [cost.intersection_ops(r, probe_ticks)
                      for r in lens.tolist()]
        with bound(path):
            for h in arc_table_sides(g):
                got = kernels.extend_candidates(
                    h, rows, verts, lens, lt, gt, labels, new_label)
                for a, b in zip(got, ref, strict=True):
                    assert a.dtype == b.dtype and np.array_equal(a, b)
                step = kernels.extend_step(h, rows, ext, lt, gt, labels,
                                           new_label)
                assert all(map(np.array_equal, step, ref))
                for count_only in (False, True):
                    out, counts, ticks = kernels.extend_block(
                        h, rows, verts, lens, lt, gt, cost.ticks.intersect,
                        probe_ticks, labels, new_label, count_only)
                    if count_only:
                        assert out is None
                    else:
                        assert out.dtype == np.int64
                        assert np.array_equal(out, want_block)
                    assert np.array_equal(counts, ref[2])
                    assert ticks.dtype == np.int64
                    assert ticks.tolist() == want_ticks

    def test_probes_on_shared_slots(self, kernel_path):
        """every vertex pair extended on a graph whose slot table has
        shared slots, some probe keys landing on them: answered as the
        composite index answers them"""
        g = next(g for g in (gen.erdos_renyi(30, 0.3, seed=s)
                             for s in range(20))
                 if (g.arc_table() == _SHARED).any())
        n = g.num_vertices
        rows = np.stack(np.meshgrid(np.arange(n), np.arange(n)),
                        axis=-1).reshape(-1, 2)
        lens = g.degrees()[rows]
        verts = _by_degree(g, rows)
        table = g.arc_table()
        keys = np.concatenate([v1 * n + g.neighbours(v0)
                               for v0, v1 in verts.tolist()])
        bits = len(table).bit_length() - 1
        assert (table[_slots(keys, bits)] == _SHARED).any()
        ref = _reference_extend(g, rows, verts, (), (), None, None)
        got = kernels.extend_candidates(g, rows, rows, lens, (), ())
        assert all(map(np.array_equal, got, ref))


# -- per-list survivor counts and the symmetry order as a filter ------------------


def _reference_survivors(g, rows, verts_sorted):
    """Row by row and list by list with sets: how many of each row's
    whole smallest list stand after each list."""
    survivors = np.zeros(verts_sorted.shape, dtype=np.int64)
    for i, verts in enumerate(verts_sorted.tolist()):
        standing = g.neighbours(verts[0]).tolist()
        survivors[i, 0] = len(standing)
        for w, v in enumerate(verts[1:], 1):
            adjacent = set(g.neighbours(v).tolist())
            standing = [c for c in standing if c in adjacent]
            survivors[i, w] = len(standing)
    return survivors


def _survivor_block(g, rows, ext, lt, gt, labels, new_label):
    """Both entries with a survivor array: ``(cand, row_ids, counts,
    survivors)`` from :func:`extend_candidates` and ``(out, counts,
    ticks, survivors)`` from :func:`extend_block`."""
    verts = rows[:, list(ext)]
    lens = g.degrees()[verts]
    survivors = np.full(verts.shape, -1, dtype=np.int64)
    pairs = kernels.extend_candidates(g, rows, verts, lens, lt, gt, labels,
                                      new_label, survivors=survivors)
    cost = CostModel(intersect_op=0.1)
    block_survivors = np.full(verts.shape, -1, dtype=np.int64)
    block = kernels.extend_block(
        g, rows, verts, lens, lt, gt, cost.ticks.intersect,
        cost.probe_tick_table(g.max_degree), labels, new_label,
        survivors=block_survivors)
    return (*pairs, survivors), (*block, block_survivors)


def _assert_same(got, want):
    for a, b in zip(got, want, strict=True):
        assert (a is None) == (b is None)
        if a is not None:
            assert a.dtype == b.dtype and np.array_equal(a, b)


class TestSurvivorCounts:
    @given(case=_layout_cases())
    @settings(max_examples=150)
    def test_both_paths_equal_the_reference(self, case):
        """per-list survivor counts over the whole smallest list, and the
        symmetry order as a filter after the last list: the candidates
        equal the windowed pass's, the counts a list-by-list set
        reference, from the compiled pass and its numpy reference
        element for element, each on a searching and a hashed copy"""
        g, rows, ext, lt, gt, labels = case
        new_label = None if labels is None else 1
        verts = rows[:, list(ext)]
        want = _reference_extend(g, rows, _by_degree(g, verts), lt, gt,
                                 labels, new_label)
        want_survivors = _reference_survivors(g, rows, _by_degree(g, verts))
        seen = {}
        for path in PATHS:
            with bound(path):
                for side, h in enumerate(arc_table_sides(g)):
                    pairs, block = _survivor_block(h, rows, ext, lt, gt,
                                                   labels, new_label)
                    _assert_same(pairs[:3], want)
                    assert np.array_equal(pairs[3], want_survivors)
                    assert np.array_equal(block[3], want_survivors)
                    assert np.array_equal(block[1], want[2])
                    seen[path, side] = (pairs, block)
        for (pairs, block) in seen.values():
            first_pairs, first_block = next(iter(seen.values()))
            _assert_same(pairs, first_pairs)
            _assert_same(block, first_block)

    @pytest.mark.parametrize("ext, lt, gt", [
        ((0,), (), ()),              # one list: nothing probed
        ((0,), (2,), (3,)),          # one list, both conditions
        ((0, 1), (2,), (3,)),        # lt and gt on both sides
        ((0, 1, 2), (3,), (3,)),     # an empty window
    ])
    def test_edge_blocks(self, kernel_path, ext, lt, gt):
        """an empty block; row 0, whose whole smallest list (8's) fails
        its first probe (the hub 0 shares none of it); ``k = 1``; ``lt``
        and ``gt`` together: the counts ignore the conditions, the
        output applies them"""
        g = Graph.from_edges([(0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                              (0, 6), (7, 8), (8, 9), (1, 2), (2, 3),
                              (3, 4)], num_vertices=10)
        rows = np.array([[8, 0, 2, 5], [1, 3, 9, 0], [0, 2, 5, 1],
                         [3, 0, 4, 9]], dtype=np.int64)
        for block in (rows[:0], rows):
            verts = _by_degree(g, block[:, list(ext)])
            want = _reference_extend(g, block, verts, lt, gt, None, None)
            want_survivors = _reference_survivors(g, block, verts)
            pairs, out = _survivor_block(g, block, ext, lt, gt, None, None)
            _assert_same(pairs[:3], want)
            assert np.array_equal(pairs[3], want_survivors)
            assert np.array_equal(out[3], want_survivors)
        assert pairs[3][0, 0] == 2 and not pairs[3][0, 1:].any()
        if len(ext) < 3:
            # a filtered survivor is still counted
            assert want[2].sum() < pairs[3][:, -1].sum()

    def test_wrong_survivor_arrays_are_refused(self, kernel_path):
        """the loop writes one count per row and list, so a survivor
        array of another shape, dtype or layout is refused first"""
        g = gen.erdos_renyi(10, 0.3, seed=1)
        rows = np.array([[0, 3], [2, 5]], dtype=np.int64)
        lens = g.degrees()[rows]
        cost = CostModel()
        table = cost.probe_tick_table(g.max_degree)
        frozen = np.zeros((2, 2), dtype=np.int64)
        frozen.flags.writeable = False
        bad = [np.zeros((2, 1), dtype=np.int64),
               np.zeros((3, 2), dtype=np.int64),
               np.zeros(4, dtype=np.int64),
               np.zeros((2, 2), dtype=np.int32),
               np.zeros((2, 4), dtype=np.int64)[:, ::2],
               np.zeros((2, 3), dtype=np.int64, order="F")[:, :2],
               [[0, 0], [0, 0]],
               frozen]
        for survivors in bad:
            with pytest.raises(ValueError):
                kernels.extend_block(g, rows, rows, lens, (), (),
                                     cost.ticks.intersect, table,
                                     survivors=survivors)
            with pytest.raises(ValueError):
                kernels.extend_candidates(g, rows, rows, lens, (), (),
                                          survivors=survivors)


def test_both_paths_count_the_same_probes():
    """on fresh snapshots, call for call: the compiled pass reports the
    probes its numpy reference makes through ``has_arc_keys``, so both
    build the slot table after the same call"""
    g = gen.erdos_renyi(120, 0.08, seed=4)
    rng = np.random.default_rng(4)
    blocks = [rng.integers(0, g.num_vertices, size=(int(m), 4))
              for m in rng.integers(1, 300, size=12)]
    seen = {}
    for path in PATHS:
        h = Graph(g.indptr, g.indices)
        with bound(path):
            seen[path] = []
            for rows in blocks:
                kernels.extend_step(h, rows, (0, 1, 2), (3,), ())
                seen[path].append(h._probes if h._arcs is None else "table")
    assert seen["compiled"] == seen["numpy"]
    assert seen["numpy"][0] > 0 and seen["numpy"][-1] == "table"


def test_compiled_pass_rejects_blocks_outside_the_graph():
    """the C loop reads CSR, rows, labels and the probe-tick table
    unchecked, so a vertex id, a window position, a label array or a
    tick table out of range is refused first"""
    g = gen.erdos_renyi(10, 0.3, seed=1)
    rows = np.array([[0, 3]], dtype=np.int64)
    lens = g.degrees()[rows]
    cost = CostModel()
    table = cost.probe_tick_table(g.max_degree)
    bad = [(rows + [0, 7], lens, (), (), None, table),
           (rows - [1, 0], lens, (), (), None, table),
           (rows, lens[:, :1], (), (), None, table),
           (rows, lens, (2,), (), None, table),
           (rows, lens, (), (-1,), None, table),
           (rows, lens, (), (), np.zeros(9, dtype=np.int64), table),
           (rows, lens, (), (), None, table[:lens.max()])]
    for verts, lens_, lt, gt, labels, ticks in bad:
        with pytest.raises(ValueError):
            kernels.extend_block(g, rows, verts, lens_, lt, gt,
                                 cost.ticks.intersect, ticks, labels, 0)
        if ticks is table:
            with pytest.raises(ValueError):
                kernels.extend_candidates(g, rows, verts, lens_, lt, gt,
                                          labels, 0)


#: what :func:`test_refusals_reach_no_compiled_loop` breaks in a valid call
_REFUSALS = ("vertex", "lt", "gt", "verify", "verified vertex", "labels",
             "lens")


@given(case=_extend_cases(), kind=st.sampled_from(_REFUSALS),
       data=st.data())
@settings(max_examples=150)
def test_refusals_reach_no_compiled_loop(case, kind, data):
    """``_extend_compiled``'s checks as a property: a valid block with one
    thing broken — a vertex outside the graph, an ``lt`` / ``gt`` /
    ``verify`` position outside the row, a verified vertex outside the
    graph, labels shorter than the graph, a length past the probe-tick
    table — raises ``ValueError`` before any call of the library, and
    leaves the snapshot's searched-probe count as it was; the same call
    unbroken is accepted"""
    g, rows, ext, lt, gt, labels = case
    assume(len(rows))
    n, width = g.num_vertices, rows.shape[1]
    verts = rows[:, list(ext)]
    lens = g.degrees()[verts]
    cost = CostModel()
    args = dict(verts=verts, lens=lens, lt=lt, gt=gt, labels=labels,
                probe_ticks=cost.probe_tick_table(g.max_degree),
                verify=data.draw(st.sampled_from([-1, *range(width)])))
    outside = st.sampled_from([-1, width, width + 3])
    cell = (data.draw(st.integers(0, len(rows) - 1)),
            data.draw(st.integers(0, len(ext) - 1)))
    broken = dict(args, rows=rows.copy(), verts=verts.copy())
    if kind == "vertex":
        broken["verts"][cell] = data.draw(st.sampled_from([-1, n]))
    elif kind in ("lt", "gt"):
        broken[kind] = (*args[kind], data.draw(outside))
    elif kind == "verify":
        broken["verify"] = data.draw(st.sampled_from([-2, width, width + 1]))
    elif kind == "verified vertex":
        broken["verify"] = data.draw(st.integers(0, width - 1))
        broken["rows"][cell[0], broken["verify"]] = data.draw(
            st.sampled_from([-1, n]))
    elif kind == "labels":
        broken["labels"] = np.zeros(n - 1, dtype=np.int64)
    else:
        broken["probe_ticks"] = args["probe_ticks"][:int(lens.max())]

    def call(rows, verts, lens, lt, gt, labels, probe_ticks, verify):
        h = Graph(g.indptr, g.indices)
        kernels.extend_block(h, rows, verts, lens, lt, gt,
                             cost.ticks.intersect, probe_ticks, labels, 1,
                             verify=verify)
        return h

    call(rows, **args)
    lib, calls = kernels._LIB, []

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    h = Graph(g.indptr, g.indices)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "_LIB", Spy())
        with pytest.raises(ValueError):
            kernels.extend_block(h, broken["rows"], broken["verts"], lens,
                                 broken["lt"], broken["gt"],
                                 cost.ticks.intersect, broken["probe_ticks"],
                                 broken["labels"], 1,
                                 verify=broken["verify"])
    assert calls == [] and h._probes == 0 and h._arcs is None


def test_a_failed_build_raises_and_leaves_nothing(monkeypatch, tmp_path):
    """C that does not compile: one ``ImportError`` that names ``cc`` and
    cffi, and no library, FFI module or temporary file left in the cache
    directory for a later process to open"""
    broken = tmp_path / "kernels.c"
    broken.write_text("int64_t extend_rows(\n")
    cache = tmp_path / "cache"
    monkeypatch.setenv("XDG_CACHE_HOME", str(cache))
    monkeypatch.setattr(kernels, "_SOURCE", broken)
    with pytest.raises(ImportError, match=r"cffi and the C compiler cc"):
        kernels._load_library()
    assert cache.is_dir()
    assert not [p for p in cache.rglob("*") if p.is_file()]


def test_threaded_passes_are_race_free(tmp_path):
    """``tests/threaded_extend.c`` under ThreadSanitizer: four threads'
    counted passes above the row threshold, one on the pool and the
    others alone, each equal to a serial pass, with no data race
    reported (gcc's ``libtsan`` needed; another sanitizer's runtime
    preloaded into this process is kept out of the driver)."""
    env = {k: v for k, v in os.environ.items() if k != "LD_PRELOAD"}
    gcc = shutil.which("gcc")
    if not gcc or not Path(subprocess.run(
            [gcc, "-print-file-name=libtsan.so"], capture_output=True,
            text=True).stdout.strip()).is_absolute():
        pytest.skip("no gcc with ThreadSanitizer")
    driver = tmp_path / "threaded_extend"
    subprocess.run([gcc, "-O1", "-g", "-pthread", "-fsanitize=thread", "-o",
                    str(driver), str(Path(__file__).with_name(
                        "threaded_extend.c")), str(kernels._SOURCE)],
                   check=True, env=env)
    done = subprocess.run([str(driver)], capture_output=True, text=True,
                          timeout=120, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith("ok:")
