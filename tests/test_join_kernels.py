"""The blocked hash join (``join_blocks`` / ``join_chunks``) against a
one-shot reference that materialises every key match at once: rows,
per-probe emit counts and per-chunk charges must be identical at any
block budget, and a counting join (``materialise=False``) must cut the
same chunks with the same charges — with each block through the
compiled loop (``join_block`` of ``core/kernels.c``) and through its
numpy reference (``tests/reference_kernels.py``, bound in its place)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.core.kernels import chunk_charges, join_blocks, join_chunks

from .reference_kernels import PATHS, bound, join_pairs


def reference_join(build, probe, build_key, probe_key, build_left,
                   right_carry, distinct, conditions):
    """Every key match at once (grouped by ``np.unique(axis=0)``),
    probe-major with build rows in insertion order; full rows first,
    filters after.  Returns the kept rows and per-probe emit counts."""
    nb = len(build)
    keys = np.concatenate((build[:, list(build_key)],
                           probe[:, list(probe_key)]))
    _, inv = np.unique(keys, axis=0, return_inverse=True)
    inv = inv.reshape(-1)
    build_gid, probe_gid = inv[:nb], inv[nb:]
    groups = np.bincount(build_gid, minlength=int(inv.max(initial=-1)) + 1)
    build_order = np.argsort(build_gid, kind="stable")
    offsets = np.concatenate(([0], np.cumsum(groups)))
    per_probe = groups[probe_gid]
    probe_idx = np.repeat(np.arange(len(probe)), per_probe)
    ramp = np.arange(int(per_probe.sum())) - np.repeat(
        np.cumsum(per_probe) - per_probe, per_probe)
    build_idx = build_order[np.repeat(offsets[probe_gid], per_probe) + ramp]
    brows, prows = build[build_idx], probe[probe_idx]
    lf, rf = (brows, prows) if build_left else (prows, brows)
    joined = np.concatenate((lf, rf[:, list(right_carry)]), axis=1)
    keep = np.ones(len(joined), dtype=bool)
    for i, j in distinct:
        keep &= joined[:, i] != joined[:, j]
    for i, j in conditions:
        keep &= joined[:, i] < joined[:, j]
    return joined[keep], np.bincount(probe_idx[keep], minlength=len(probe))


@st.composite
def join_cases(draw):
    """Two sides of a join: key widths 1-3, empty sides, a few distinct
    key values (so all-equal keys and long buckets occur), and cross-side
    filters that may reject everything."""
    width = draw(st.integers(1, 3))
    arity_l = draw(st.integers(width, width + 2))
    arity_r = draw(st.integers(width, width + 2))
    ids = st.integers(0, draw(st.sampled_from([0, 1, 3, 40])))

    def side(arity):
        n = draw(st.integers(0, 30))
        return np.asarray(draw(st.lists(st.lists(ids, min_size=arity,
                                                 max_size=arity),
                                        min_size=n, max_size=n)),
                          dtype=np.int64).reshape(n, arity)

    left, right = side(arity_l), side(arity_r)
    left_key = tuple(draw(st.permutations(range(arity_l)))[:width])
    right_key = tuple(draw(st.permutations(range(arity_r)))[:width])
    carry = tuple(c for c in range(arity_r) if c not in right_key)
    out_width = arity_l + len(carry)
    pairs = st.tuples(st.integers(0, out_width - 1),
                      st.integers(0, out_width - 1))
    distinct = draw(st.lists(pairs, max_size=2))
    conditions = draw(st.lists(pairs, max_size=2))
    build_left = draw(st.booleans())
    return (left, right, left_key, right_key, build_left, carry, distinct,
            conditions)


def _sides(case):
    left, right, lkey, rkey, build_left, carry, distinct, conds = case
    if build_left:
        return left, right, lkey, rkey, build_left, carry, distinct, conds
    return right, left, rkey, lkey, build_left, carry, distinct, conds


@pytest.mark.parametrize("budget", [1, 7, kernels.JOIN_BLOCK_PAIRS])
@given(case=join_cases(), batch_size=st.sampled_from([1, 3, 64]))
def test_blocks_equal_the_one_shot_join(budget, case, batch_size):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "JOIN_BLOCK_PAIRS", budget)
        for path in PATHS:
            with bound(path):
                _check_against_reference(_sides(case), budget, batch_size)


def _check_against_reference(args, budget, batch_size):
    build, probe = args[0], args[1]
    want_rows, want_emit = reference_join(*args)

    blocks = list(join_blocks(*args))
    for _, p0, kept in blocks:
        assert 0 <= p0 and p0 + len(kept) <= len(probe)
    emit = np.zeros(len(probe), dtype=np.int64)
    for _, p0, kept in blocks:
        emit[p0:p0 + len(kept)] += kept
    rows = np.concatenate([r for r, _, _ in blocks])
    assert rows.tolist() == want_rows.tolist()
    assert rows.shape[1] == want_rows.shape[1]
    assert emit.tolist() == want_emit.tolist()
    counted = sum(int(k.sum())
                  for _, _, k in join_blocks(*args, materialise=False))
    assert counted == len(want_rows)

    # every block within budget, and the blocks cover every probe row
    covered = np.zeros(len(probe), dtype=bool)
    for p0, counts, build_idx in join_pairs(build, probe, args[2], args[3]):
        assert len(build_idx) == counts.sum() <= budget
        covered[p0:p0 + len(counts)] = True
    assert covered.all()

    chunks = list(join_chunks(join_blocks(*args), batch_size, 5, 3))
    want = chunk_charges(want_emit, len(want_rows), batch_size, 5, 3)
    assert [ticks for _, ticks in chunks] == want.tolist()
    assert all(len(r) == batch_size for r, _ in chunks[:-1])
    assert len(chunks[-1][0]) < batch_size
    assert np.concatenate([r for r, _ in chunks]).tolist() \
        == want_rows.tolist()

    # counting: the same cuts and charges from the kept counts alone, in
    # column-less batches
    counted = list(join_chunks(join_blocks(*args, materialise=False),
                               batch_size, 5, 3))
    assert [(len(r), ticks) for r, ticks in counted] \
        == [(len(r), ticks) for r, ticks in chunks]
    assert all(r.shape[1] == 0 for r, _ in counted)


def test_wide_keys_do_not_collide():
    """a 3-column key packs to one int64 that is equal only where every
    column is — no pair of distinct keys shares a bucket"""
    build = np.asarray([[1, 2, 3], [1, 3, 2], [2, 1, 3], [1, 2, 3]],
                       dtype=np.int64)
    probe = np.asarray([[1, 2, 3], [3, 2, 1], [1, 3, 2]], dtype=np.int64)
    (p0, counts, build_idx), = join_pairs(build, probe, (0, 1, 2),
                                          (0, 1, 2))
    assert p0 == 0
    assert counts.tolist() == [2, 0, 1]
    assert build_idx.tolist() == [0, 3, 1]


def test_compiled_block_rejects_columns_outside_its_sides():
    """the C loop reads rows by position unchecked, so a carried column
    or a filtered output position outside the sides is refused first"""
    build = np.asarray([[1, 2], [3, 4]], dtype=np.int64)
    probe = np.asarray([[1, 5], [3, 6], [7, 8]], dtype=np.int64)
    bad = [((2,), [], []),          # the right side has 2 columns
           ((-1,), [], []),
           ((1,), [(0, 3)], []),    # the output has 3 columns
           ((1,), [], [(-1, 2)])]
    assert sum(len(r) for r, _, _ in join_blocks(
        build, probe, (0,), (0,), True, (1,), [(1, 2)], [])) == 2
    for carry, distinct, conditions in bad:
        with pytest.raises(ValueError):
            list(join_blocks(build, probe, (0,), (0,), True, carry,
                             distinct, conditions))
