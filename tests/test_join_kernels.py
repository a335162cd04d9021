"""The blocked hash join (``join_blocks`` / ``join_chunks``) against a
one-shot reference that materialises every key match at once: rows,
per-probe emit counts and per-chunk charges must be identical at any
block budget, and a counting join (``materialise=False``) must cut the
same chunks with the same charges — with each block through the
compiled loop (``join_block`` of ``core/kernels.c``) and through its
numpy reference (``tests/reference_kernels.py``, bound in its place).
A counting join orders each bucket by its first cross-side condition
and the loop ends a bucket there, so its tests also hold the bucket
order and the refusals that keep the loop's reads in bounds."""

import itertools

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import repro.core.kernels as kernels
from repro.baselines import DistributedRelation, base
from repro.cluster import Cluster, CostModel, OutOfMemoryError, OvertimeError
from repro.core.kernels import join_blocks, join_chunks
from repro.graph import generators as gen

from .reference_kernels import PATHS, bound, chunk_charges, join_pairs
from .reference_ledger import columns


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
    key values (so all-equal keys, long buckets, repeated values in an
    ordered column and probe keys with an empty bucket occur), and
    filters that may reject everything: random position pairs, plus a
    test within each side (one is the probe side's, run once per probe
    row; the other the build side's, run per pair) and ``<`` conditions
    across the sides in both directions (the build column below or above
    the probe's)."""
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
    pos = st.integers(0, out_width - 1)
    lpos = st.integers(0, arity_l - 1)
    rpos = st.integers(arity_l, out_width - 1) if carry else lpos
    pairs = st.tuples(pos, pos)
    sided = st.one_of(st.tuples(lpos, lpos), st.tuples(rpos, rpos))
    across = st.one_of(st.tuples(lpos, rpos), st.tuples(rpos, lpos))
    distinct = draw(st.lists(st.one_of(pairs, sided, across),
                             max_size=3))
    conditions = draw(st.lists(st.one_of(pairs, sided, across),
                               max_size=3))
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
# a counted bucket whose first row fails a condition other than the
# ordered one, while its second passes both
@example(case=(np.asarray([[1, 0]]), np.asarray([[1, 1, 0], [0, 1, 0]]),
               (0,), (1,), False, (0, 2), [], [(3, 0), (2, 0)]),
         batch_size=3)
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


def _ordered_bucket(build_left, below):
    """One bucket of six build rows ``(key, value, other)`` against one
    probe row ``(key, value, other)``, beside a build row and a probe
    row whose keys the other side lacks: the condition puts the build
    value below the probe's (``below``) or above it, and a ``!=`` test
    on ``other`` fails on the build row met first in the bucket's order
    while later rows pass it; repeated values sit in the ordered
    column.  Returns the join's arguments."""
    build = np.asarray([[7, 1, 0], [7, 2, 9], [7, 5, 9], [7, 2, 9],
                        [7, 3, 9], [7, 6, 0], [8, 0, 9]], dtype=np.int64)
    probe = np.asarray([[7, 4, 0], [6, 4, 0]], dtype=np.int64)
    # output: the build row then the probe's value and other (positions
    # 3, 4) when build_left, the probe row then the build's otherwise
    b, p = (1, 3) if build_left else (3, 1)
    bo, po = (2, 4) if build_left else (4, 2)
    condition = (b, p) if below else (p, b)
    return (build, probe, (0,), (0,), build_left, (1, 2), [(bo, po)],
            [condition])


@pytest.mark.parametrize("below", [True, False])
@pytest.mark.parametrize("build_left", [True, False])
def test_counted_join_ends_a_bucket_only_at_its_ordered_condition(
        build_left, below):
    """a counted join sorts the bucket by the ordered condition's build
    column — ascending when the build value must be below the probe's,
    descending when above, ties in insertion order — and counts every
    row that passes: the ``!=`` failure met first does not end the
    bucket (a loop that stopped at any failed test keeps 0 here), and a
    wrong sort direction would end it at once"""
    args = _ordered_bucket(build_left, below)
    _, want_emit = reference_join(*args)
    assert want_emit.tolist() == ([3, 0] if below else [1, 0])
    orders = []

    def spy(join, p0, counts, lo):
        orders.append(join.order[lo[0]:lo[0] + counts[0]].tolist())
        return block(join, p0, counts, lo)
    for path, budget in itertools.product(PATHS,
                                          (1, 2, kernels.JOIN_BLOCK_PAIRS)):
        with bound(path), pytest.MonkeyPatch.context() as mp:
            block = kernels._join_block
            mp.setattr(kernels, "JOIN_BLOCK_PAIRS", budget)
            mp.setattr(kernels, "_join_block", spy)
            for materialise in (False, True):
                orders.clear()
                blocks = list(join_blocks(*args, materialise=materialise))
                emit = np.zeros(len(args[1]), dtype=np.int64)
                for _, p0, kept in blocks:
                    emit[p0:p0 + len(kept)] += kept
                assert emit.tolist() == want_emit.tolist()
                bucket = [i for part in orders for i in part]
                if materialise:
                    assert bucket == [0, 1, 2, 3, 4, 5]
                else:
                    assert bucket == ([0, 1, 3, 4, 2, 5] if below
                                      else [5, 2, 4, 1, 3, 0])


#: what :func:`test_join_refusals_reach_no_library_call` breaks
_JOIN_REFUSALS = ("carry", "test", "ordered", "lo past the build side",
                  "lo and counts disagree", "p0")


@given(case=join_cases(), kind=st.sampled_from(_JOIN_REFUSALS),
       data=st.data())
def test_join_refusals_reach_no_library_call(case, kind, data):
    """``join_blocks`` / ``_join_block``'s checks as a property: a valid
    join with one thing broken — a carried column or a test position
    outside the sides, an ordered-test index that is not a cross-side
    ``<``, a block whose ``lo + counts`` runs past the build side, whose
    ``lo`` and ``counts`` shapes disagree, or whose probe rows leave the
    probe side — raises ``ValueError`` before any call of the library;
    the same join unbroken is accepted"""
    build, probe, bkey, pkey, build_left, carry, distinct, conds = \
        _sides(case)
    list(join_blocks(*_sides(case)))
    left_width = (build if build_left else probe).shape[1]
    width = left_width + len(carry)
    tests = np.asarray([(i, j, 0) for i, j in distinct]
                       + [(i, j, 1) for i, j in conds],
                       dtype=np.int64).reshape(-1, 3)
    join = kernels._join_inputs(build, probe, bkey, pkey, build_left, carry,
                                tests, -1, True)
    p0, counts, lo = next(join.ranges)
    lib, calls = kernels._LIB, []

    class Spy:
        def __getattr__(self, name):
            calls.append(name)
            return getattr(lib, name)

    def run(call):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kernels, "_LIB", Spy())
            with pytest.raises(ValueError):
                call()

    outside = data.draw(st.sampled_from([-1, width, width + 2]))
    if kind == "carry":
        bad = (*carry, data.draw(st.sampled_from(
            [-1, (probe if build_left else build).shape[1]])))
        run(lambda: list(join_blocks(build, probe, bkey, pkey, build_left,
                                     bad, distinct, conds)))
    elif kind == "test":
        bad = [*conds, (data.draw(st.integers(0, width - 1)), outside)]
        bad_distinct = data.draw(st.sampled_from([distinct, bad]))
        run(lambda: list(join_blocks(build, probe, bkey, pkey, build_left,
                                     carry, bad_distinct, bad)))
    elif kind == "ordered":
        on_build = (np.arange(width) < left_width) == build_left
        cross_lt = [t for t, (i, j, less) in enumerate(tests.tolist())
                    if less and on_build[i] != on_build[j]]
        ordered = data.draw(st.sampled_from(
            [-2, len(tests), len(tests) + 3]
            + [t for t in range(len(tests)) if t not in cross_lt]))
        run(lambda: kernels._join_inputs(build, probe, bkey, pkey,
                                         build_left, carry, tests, ordered,
                                         False))
    elif kind == "lo past the build side":
        assume(len(counts))
        row = data.draw(st.integers(0, len(counts) - 1))
        bad = lo.copy()
        bad[row] = len(build) - counts[row] + data.draw(st.integers(1, 3))
        run(lambda: kernels._join_block(join, p0, counts, bad))
    elif kind == "lo and counts disagree":
        run(lambda: kernels._join_block(join, p0, counts,
                                        np.append(lo, 0)))
    else:
        bad = data.draw(st.sampled_from([-1, len(probe) - len(counts) + 1]))
        run(lambda: kernels._join_block(join, bad, counts, lo))
    assert calls == []


def _relation_pair(cluster, hot=200):
    """Two relations joined on their first column: one hot key whose
    ``hot × hot`` matches (less those the distinctness and ``f[1] <
    f[2]`` filters reject) land on one machine — several ``_CHUNK``
    output chunks there — and thirty cold keys of uneven fan-out."""
    left = [(0, i + 1) for i in range(hot)] + [(k, 1000 + k)
                                               for k in range(1, 31)]
    right = [(0, hot // 2 + i) for i in range(hot)] + [
        (k, 2000 + k + c) for k in range(1, 31) for c in range(k % 4)]
    empty = [[]] * (cluster.num_machines - 2)
    return (DistributedRelation(cluster, (0, 1), [left, []] + empty),
            DistributedRelation(cluster, (0, 2), [[], right] + empty))


def _reference_hash_join(left, right, conditions):
    """``DistributedRelation.hash_join`` with every machine's output
    materialised at once and its chunk charges from
    :func:`chunk_charges`: the same shuffles, then per machine the same
    ledger calls — alloc, charge, time check per full chunk, the residual
    spread over the workers — and the same release on an abort."""
    cluster = left.cluster
    metrics, t = cluster.metrics, cluster.cost.ticks
    lkey, rkey, carry = (0,), (0,), (1,)
    out_schema = (0, 1, 2)
    out_bytes = len(out_schema) * cluster.cost.bytes_per_id
    positional = base.new_conditions(out_schema, set(), conditions)
    out_charged = np.zeros(cluster.num_machines, dtype=np.int64)
    lsh = rsh = None
    try:
        lsh, rsh = left.shuffle(lkey), right.shuffle(rkey)
        parts = []
        for m in range(cluster.num_machines):
            lpart, rpart = lsh.partitions[m], rsh.partitions[m]
            build_left = len(lpart) <= len(rpart)
            bpart, ppart = (lpart, rpart) if build_left else (rpart, lpart)
            blocks = list(join_blocks(bpart, ppart, lkey, rkey, build_left,
                                      carry, [(1, 2)], positional))
            emit = np.zeros(len(ppart), dtype=np.int64)
            for _, p0, kept in blocks:
                emit[p0:p0 + len(kept)] += kept
            rows = np.concatenate([r for r, _, _ in blocks])
            charges = chunk_charges(
                emit, len(rows), base._CHUNK, t.hash_probe,
                len(out_schema) * t.emit, base=len(bpart) * t.hash_build)
            num_full = len(rows) // base._CHUNK
            for c in range(num_full):
                out_charged[m] += base._CHUNK * out_bytes
                metrics.alloc(m, base._CHUNK * out_bytes)
                metrics.charge_ops(m, int(charges[c]))
                metrics.check_time()
            pending = len(rows) - num_full * base._CHUNK
            out_charged[m] += pending * out_bytes
            metrics.alloc(m, pending * out_bytes)
            metrics.charge_worker_ops(m, base._even_split(
                int(charges[num_full]), cluster.workers_per_machine))
            parts.append(rows)
        lsh.drop()
        rsh.drop()
        metrics.check_time()
    except (OutOfMemoryError, OvertimeError):
        for rel in (left, right, lsh, rsh):
            if rel is not None:
                rel.drop()
        metrics.free(np.arange(len(out_charged)), out_charged)
        raise
    return parts


def _relation_join(how, **budgets):
    """``(partitions or the abort, ledger columns)`` of the relation pair
    joined by ``how`` on a fresh four-machine cluster under the
    ``CostModel`` budgets given."""
    cluster = Cluster(gen.erdos_renyi(30, 0.2, seed=2), num_machines=4,
                      workers_per_machine=3, seed=0,
                      cost=CostModel(**budgets))
    left, right = _relation_pair(cluster)
    try:
        got = how(left, right, [(1, 2)])
    except OutOfMemoryError as exc:
        got = (str(exc), exc.machine, exc.used, exc.budget)
    except OvertimeError as exc:
        got = (str(exc), exc.elapsed, exc.budget)
    return got, columns(cluster.metrics), cluster.metrics.elapsed()


def _package_hash_join(left, right, conditions):
    return left.hash_join(right, conditions, set()).partitions


def test_relation_join_charges_its_chunks_like_the_reference():
    """a materialising relation join that cuts ten ``_CHUNK`` chunks on
    one machine: the same rows and every ledger column the same as the
    one-shot reference charged by :func:`chunk_charges`"""
    got, ledger, _ = _relation_join(_package_hash_join)
    want, want_ledger, _ = _relation_join(_reference_hash_join)
    assert max(map(len, want)) >= 3 * base._CHUNK
    assert [p.tolist() for p in got] == [p.tolist() for p in want]
    assert ledger == want_ledger


def test_relation_join_trips_a_chunk_boundary_budget_like_the_reference():
    """a memory budget met exactly at the end of the hot machine's third
    chunk trips on the fourth, and one byte less on the third: the same
    abort, message and per-machine peaks (every ledger column) as the
    reference"""
    parts, _, _ = _relation_join(_reference_hash_join)
    hot = int(np.argmax([len(p) for p in parts]))
    # the hot machine's memory when its output starts: both shuffled sides
    cluster = Cluster(gen.erdos_renyi(30, 0.2, seed=2), num_machines=4,
                      workers_per_machine=3, seed=0)
    left, right = _relation_pair(cluster)
    left.shuffle((0,)), right.shuffle((0,))
    inputs = int(cluster.metrics.cur_mem_bytes[hot])
    chunk = base._CHUNK * 3 * cluster.cost.bytes_per_id
    for budget, tripped in ((inputs + 3 * chunk, 4),
                            (inputs + 3 * chunk - 1, 3)):
        got, ledger, _ = _relation_join(_package_hash_join,
                                        memory_budget_bytes=budget)
        want, want_ledger, _ = _relation_join(_reference_hash_join,
                                              memory_budget_bytes=budget)
        assert want[1:3] == (hot, inputs + tripped * chunk)
        assert got == want
        assert ledger == want_ledger


def test_relation_join_trips_a_time_budget_like_the_reference():
    """a time budget that runs out inside the join aborts at the same
    chunk's time check as the reference: the same message and ledger"""
    _, _, elapsed = _relation_join(_reference_hash_join)
    for share in (0.3, 0.6, 0.9):
        budget = elapsed * share
        got, ledger, _ = _relation_join(_package_hash_join,
                                        time_budget_s=budget)
        want, want_ledger, _ = _relation_join(_reference_hash_join,
                                              time_budget_s=budget)
        assert isinstance(want, tuple)
        assert got == want
        assert ledger == want_ledger
