"""The star baselines' combination builder (``baselines.base.combo_rows``)
— the compiled per-row loop (``combo_rows`` of ``core/kernels.c``) and
its numpy reference (``tests/reference_kernels.py``) — against scalar
``itertools.combinations`` × patterns loops: rows in input-row,
combination-major, pattern-minor order, the positional conditions, and
the per-row kept counts, materialised and counted."""

from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.baselines import RadsEngine, count_matches
from repro.baselines import base, rads
from repro.cluster import Cluster
from repro.graph import generators as gen
from repro.query import get_query

from . import reference_kernels


def reference_combos(prefix, cand, counts, nl, patterns, conds):
    """The scalar loops: per row, per ascending combination, per
    pattern; then the conditions."""
    rows, kept = [], []
    offsets = np.concatenate(([0], np.cumsum(counts))).tolist()
    for r, head in enumerate(prefix.tolist()):
        mine = cand[offsets[r]:offsets[r + 1]].tolist()
        n_kept = 0
        for combo in combinations(mine, nl):
            for pattern in patterns.tolist():
                row = head + [combo[p] for p in pattern]
                if all(row[i] < row[j] for i, j in conds):
                    rows.append(row)
                    n_kept += 1
        kept.append(n_kept)
    width = prefix.shape[1] + nl
    return (np.asarray(rows, dtype=np.int64).reshape(-1, width),
            np.asarray(kept, dtype=np.int64))


@st.composite
def combo_cases(draw):
    """0–8 rows of a 1–3 column prefix, each with 0–6 candidates (so
    rows short of ``nl`` occur), ``nl`` 1–3, one or more leaf patterns,
    and 0–3 positional conditions over the whole output row."""
    n = draw(st.integers(0, 8))
    pw = draw(st.integers(1, 3))
    nl = draw(st.integers(1, 3))
    ids = st.integers(0, 20)
    prefix = np.asarray(draw(st.lists(st.lists(ids, min_size=pw,
                                               max_size=pw),
                                      min_size=n, max_size=n)),
                        dtype=np.int64).reshape(n, pw)
    counts = np.asarray(draw(st.lists(st.integers(0, 6), min_size=n,
                                      max_size=n)),
                        dtype=np.int64).reshape(n)
    cand = np.asarray(draw(st.lists(ids, min_size=int(counts.sum()),
                                    max_size=int(counts.sum()))),
                      dtype=np.int64)
    every = list(permutations(range(nl)))
    patterns = np.asarray(draw(st.lists(st.sampled_from(every), min_size=1,
                                        max_size=len(every), unique=True)),
                          dtype=np.int64).reshape(-1, nl)
    pos = st.integers(0, pw + nl - 1)
    conds = draw(st.lists(st.tuples(pos, pos), max_size=3))
    return prefix, cand, counts, nl, patterns, conds


@pytest.mark.parametrize("path", reference_kernels.PATHS)
@given(case=combo_cases())
@example(case=(np.empty((0, 2), dtype=np.int64), np.empty(0, np.int64),
               np.empty(0, np.int64), 2, np.asarray([[0, 1]]), []))
@example(case=(np.asarray([[5], [1], [9]]), np.asarray([3, 7, 2, 4, 8, 6]),
               np.asarray([2, 0, 4]), 1, np.asarray([[0]]), [(0, 1)]))
def test_combo_rows_equal_the_scalar_loops(path, case):
    """zero rows, ``nl = 1``, one pattern, rows with fewer candidates
    than ``nl``, conditions on prefix and leaf columns: the same rows in
    the same order, and the same kept counts when only counted"""
    want_rows, want_kept = reference_combos(*case)
    combo_rows = (base.combo_rows if path == "compiled"
                  else reference_kernels.combo_rows)
    rows, kept = combo_rows(*case)
    none, counted = combo_rows(*case, count_only=True)
    assert rows.dtype == np.int64 and rows.shape == want_rows.shape
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(kept, want_kept)
    assert none is None and np.array_equal(counted, want_kept)


def test_compiled_combos_reject_inputs_outside_their_rows():
    """the C loop reads candidates by running count, leaves by pattern
    entry and row columns by condition position unchecked, so any of
    those out of range is refused first"""
    prefix = np.asarray([[0], [1]], dtype=np.int64)
    cand = np.asarray([2, 3, 4], dtype=np.int64)
    counts = np.asarray([2, 1], dtype=np.int64)
    ok = np.asarray([[0, 1]], dtype=np.int64)
    bad = [(cand[:2], counts, 2, ok, []),           # counts sum to 3
           (cand, np.asarray([4, -1]), 2, ok, []),
           (cand, counts[:1], 2, ok, []),
           (cand, counts, 2, np.asarray([[0, 2]]), []),
           (cand, counts, 1, ok, []),               # patterns are 2 wide
           (cand, counts, 2, ok, [(0, 3)]),          # rows are 3 wide
           (cand, counts, 2, ok, [(-1, 1)])]
    rows, kept = base.combo_rows(prefix, cand, counts, 2, ok, [(0, 1)])
    assert rows.tolist() == [[0, 2, 3]] and kept.tolist() == [1, 0]
    for args in bad:
        with pytest.raises(ValueError):
            base.combo_rows(prefix, *args)


@pytest.mark.parametrize("path", reference_kernels.PATHS)
def test_rads_counts_its_final_round(monkeypatch, path):
    """RADS' counted round asks for kept counts only — no row is built —
    and the count is the brute-force one, as the collecting rounds'"""
    if path == "numpy":
        reference_kernels.bind(monkeypatch)
    calls = []
    combo_rows = base.combo_rows

    def spy(*args, count_only=False):
        rows, kept = combo_rows(*args, count_only=count_only)
        calls.append((count_only, rows is None))
        return rows, kept
    monkeypatch.setattr(rads, "combo_rows", spy)
    graph = gen.erdos_renyi(30, 0.25, seed=2)
    cluster = Cluster(graph, num_machines=3, workers_per_machine=2, seed=1)
    q = get_query("q6")    # stars (1; 0, 2), (2; 3), (3; 4)
    count = RadsEngine(cluster).run(q).count
    assert count == count_matches(graph, q) > 0
    assert (True, True) in calls and (False, False) in calls
    assert all(counted == built_none for counted, built_none in calls)


@pytest.mark.parametrize("path", reference_kernels.PATHS)
def test_a_large_call_holds_room_for_its_kept_rows_only(monkeypatch, path):
    """conditions that drop most combinations: past ``COMBO_BLOCK_ROWS``
    combinations the call counts its kept rows first, so its traced peak
    is about its kept rows, not every combination before the conditions
    — and its rows and counts are the scalar loops'"""
    import tracemalloc
    if path == "numpy":
        reference_kernels.bind(monkeypatch)
    n, deg = 40, 60
    prefix = np.full((n, 1), 5, dtype=np.int64)
    counts = np.full(n, deg, dtype=np.int64)
    cand = np.tile(np.arange(deg, dtype=np.int64), n)
    # the smaller leaf below the prefix: 285 of 1 770 pairs per row
    args = (prefix, cand, counts, 2, np.asarray([[0, 1]]), [(1, 0)])
    want_rows, want_kept = reference_combos(*args)
    predicted = base.predicted_star_total(counts, 2, 1)
    assert predicted > 6 * len(want_rows)
    monkeypatch.setattr(base, "COMBO_BLOCK_ROWS", predicted - 1)
    tracemalloc.start()
    try:
        rows, kept = base.combo_rows(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(kept, want_kept)
    if path == "compiled":
        assert peak < 2 * rows.nbytes < predicted * rows.shape[1] * 8 // 3
