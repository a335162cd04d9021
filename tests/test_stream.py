"""Tests for :mod:`repro.stream` and the mutable-graph update layer.

The contract under test: ``apply_updates`` implements the batch
semantics ``E' = (E ∪ I) \\ D`` (deletes win, edges normalised, no-op
batches return the same snapshot), the seeded temporal stream replays
deterministically to its source graph, and the delta enumerator emits
exactly the matches that appear (or die) with a batch — bit-identical
to brute-force from-scratch differencing, with no double counting.
"""

import hashlib
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import enumerate_matches
from repro.graph import (Graph, GraphDelta, TemporalStream, UpdateBatch,
                         apply_updates, load_dataset, normalise_edges,
                         temporal_edge_stream)
from repro.graph import generators as gen
from repro.query import QueryGraph, get_query
from repro.stream import DeltaEnumerator, IncrementalMatcher
from repro.stream import delta as delta_module

TRIANGLE = get_query("triangle")
SQUARE = get_query("q1")
CLIQUE4 = get_query("q3")
PATH5 = get_query("q6")
LABELLED_TRIANGLE = QueryGraph(3, [(0, 1), (1, 2), (0, 2)], name="lab-tri",
                               labels=[0, 1, None])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()[:16]


def edge_set(graph):
    return set(graph.edges())


def brute(graph, pattern, labels=None):
    return sorted(enumerate_matches(graph, pattern, labels=labels))


# -- apply_updates semantics ---------------------------------------------------


class TestApplyUpdates:
    def test_insert_new_edge(self):
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        g2, delta = apply_updates(g, inserts=[(1, 2)])
        assert delta == GraphDelta(inserted=((1, 2),), deleted=())
        assert g2.has_edge(1, 2) and g2.has_edge(0, 1)
        assert not g.has_edge(1, 2), "input snapshot is immutable"

    def test_delete_existing_edge(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        g2, delta = apply_updates(g, deletes=[(2, 1)])
        assert delta == GraphDelta(inserted=(), deleted=((1, 2),))
        assert not g2.has_edge(1, 2) and g2.has_edge(0, 1)

    def test_noop_batch_returns_same_snapshot(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        # insert a present edge, delete an absent one: effective Δ is empty
        g2, delta = apply_updates(g, inserts=[(1, 0)], deletes=[(0, 5)])
        assert delta.is_empty and delta.size == 0
        assert g2 is g

    def test_insert_then_delete_same_edge_is_net_noop(self):
        # deletes win within a batch: E' = (E ∪ I) \ D
        g = Graph.from_edges([(0, 1)], num_vertices=3)
        g2, delta = apply_updates(g, inserts=[(1, 2)], deletes=[(1, 2)])
        assert delta.is_empty
        assert g2 is g

    def test_delete_wins_over_present_edge(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        g2, delta = apply_updates(g, inserts=[(0, 1)], deletes=[(0, 1)])
        assert delta.deleted == ((0, 1),) and delta.inserted == ()
        assert g2.num_edges == 0

    def test_duplicate_and_self_loop_edges_normalised(self):
        g = Graph.from_edges([(0, 1)], num_vertices=4)
        g2, delta = apply_updates(
            g, inserts=[(2, 3), (3, 2), (2, 3), (1, 1)])
        assert delta.inserted == ((2, 3),)
        assert g2.num_edges == 2

    def test_insert_grows_vertex_set(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        g2, delta = apply_updates(g, inserts=[(1, 6)])
        assert g2.num_vertices == 7
        assert delta.inserted == ((1, 6),)

    def test_negative_vertex_rejected(self):
        g = Graph.from_edges([(0, 1)], num_vertices=2)
        with pytest.raises(ValueError):
            apply_updates(g, inserts=[(-1, 0)])

    def test_normalise_edges(self):
        assert normalise_edges([(3, 1), (1, 3), (2, 2)]) == {(1, 3)}

    def test_random_batches_match_set_semantics(self):
        rng = np.random.default_rng(11)
        g = gen.erdos_renyi(18, 0.2, seed=1)
        for _ in range(25):
            ins = [tuple(rng.integers(0, 18, 2)) for _ in range(6)]
            dels = [tuple(rng.integers(0, 18, 2)) for _ in range(6)]
            g2, delta = apply_updates(g, ins, dels)
            want = (edge_set(g) | normalise_edges(ins)) - normalise_edges(dels)
            assert edge_set(g2) == want
            assert set(delta.inserted) == want - edge_set(g)
            assert set(delta.deleted) == edge_set(g) - want
            g = g2


# -- the seeded temporal stream ------------------------------------------------


class TestTemporalStream:
    def test_deterministic(self):
        g = gen.erdos_renyi(30, 0.15, seed=2)
        s1 = temporal_edge_stream(g, 40, batch_size=6, seed=9)
        s2 = temporal_edge_stream(g, 40, batch_size=6, seed=9)
        assert s1.batches == s2.batches
        assert edge_set(s1.base) == edge_set(s2.base)

    def test_final_graph_matches_manual_replay(self):
        g = gen.erdos_renyi(30, 0.15, seed=2)
        stream = temporal_edge_stream(g, 40, batch_size=6, seed=9)
        cur = edge_set(stream.base)
        for batch in stream.batches:
            cur = (cur | set(batch.inserts)) - set(batch.deletes)
        assert edge_set(stream.final_graph()) == cur
        # inserts only ever re-add held-out source edges, so the stream
        # stays within the source graph's edge set
        assert cur <= edge_set(g)
        assert stream.num_updates == sum(b.size for b in stream.batches) <= 40

    def test_every_update_is_a_real_state_change(self):
        g = gen.erdos_renyi(25, 0.2, seed=3)
        stream = temporal_edge_stream(g, 50, batch_size=5, seed=4,
                                      delete_fraction=0.4)
        assert stream.num_updates > 0
        cur = edge_set(stream.base)
        for batch in stream.batches:
            assert not (set(batch.inserts) & set(batch.deletes))
            for e in batch.inserts:
                assert e not in cur
            for e in batch.deletes:
                assert e in cur
            cur = (cur | set(batch.inserts)) - set(batch.deletes)

    def test_skewed_stream_targets_hubs(self):
        g = gen.barabasi_albert(50, 3, seed=5)
        stream = temporal_edge_stream(g, 30, batch_size=10, seed=6, skew=1.5)
        assert stream.num_updates > 0
        assert edge_set(stream.base) <= edge_set(g)
        deg = {v: 0 for v in range(g.num_vertices)}
        for u, v in g.edges():
            deg[u] += 1
            deg[v] += 1
        held = edge_set(g) - edge_set(stream.base)
        held_deg = np.mean([deg[u] + deg[v] for u, v in held])
        all_deg = np.mean([deg[u] + deg[v] for u, v in g.edges()])
        assert held_deg > all_deg, "skewed hold-out should prefer hubs"

    def test_update_batch_size(self):
        b = UpdateBatch(inserts=((0, 1),), deletes=((2, 3), (4, 5)))
        assert b.size == 3

    @pytest.mark.parametrize("name,scale", [("LJ", 1), ("LJ", 3), ("GO", 1)])
    def test_streams_identical_to_the_per_delete_resort(self, name, scale):
        """Base CSR + every batch of 480 updates in batches of 8, digested
        at the commit that still re-sorted the whole edge set per delete:
        keeping one sorted pool must not move a single draw."""
        graph = load_dataset(name, scale=scale, seed=7)
        got = {}
        for seed in (1, 2, 3):
            for df, skew in ((0.35, 1.5), (0.0, 0.0), (1.0, 0.0),
                             (0.6, 0.5)):
                s = temporal_edge_stream(graph, 480, batch_size=8, seed=seed,
                                         delete_fraction=df, skew=skew)
                got[f"s{seed}/d{df:g}/k{skew:g}"] = digest(
                    s.base.indptr.tobytes(), s.base.indices.tobytes(),
                    s.batches)
        assert got == STREAM_DIGESTS[f"{name}@{scale}"]


STREAM_DIGESTS = {
    "LJ@1": {
        "s1/d0.35/k1.5": "45d5312d672ab576", "s1/d0/k0": "c5c24826f090c245",
        "s1/d1/k0": "33f8bf99fcc4f634", "s1/d0.6/k0.5": "cf013a2726ee9975",
        "s2/d0.35/k1.5": "521f3ffee76f4bb2", "s2/d0/k0": "26eb7554bd6a11a2",
        "s2/d1/k0": "e6389e9acc07db70", "s2/d0.6/k0.5": "0340b34aff70859f",
        "s3/d0.35/k1.5": "b1b7f373452ebdc9", "s3/d0/k0": "7435b827d997ad16",
        "s3/d1/k0": "cdec58c1759eed73", "s3/d0.6/k0.5": "2668270c7243b579",
    },
    "LJ@3": {
        "s1/d0.35/k1.5": "3263f0500755e04d", "s1/d0/k0": "37fc8dfb3b19d141",
        "s1/d1/k0": "807472a5d46f5054", "s1/d0.6/k0.5": "dffe85661d0e0ba2",
        "s2/d0.35/k1.5": "cfb04dac13b8e54f", "s2/d0/k0": "23b417264838dc3c",
        "s2/d1/k0": "49fa0dfd32ef0b2a", "s2/d0.6/k0.5": "54b02d7f42263a87",
        "s3/d0.35/k1.5": "39569706e1e74f62", "s3/d0/k0": "88494a1fb7f0a0cb",
        "s3/d1/k0": "50d56ac930ff913d", "s3/d0.6/k0.5": "6593c10b37c54410",
    },
    "GO@1": {
        "s1/d0.35/k1.5": "016df18723f3f8ea", "s1/d0/k0": "ca1d5c8948038deb",
        "s1/d1/k0": "932c0a8c1def4f3d", "s1/d0.6/k0.5": "ea4bfe1fc5a5b852",
        "s2/d0.35/k1.5": "a7bcdb777eb2ca9e", "s2/d0/k0": "5c971d8a593fb126",
        "s2/d1/k0": "e9aa82b37c8c709e", "s2/d0.6/k0.5": "399e96bb814f0790",
        "s3/d0.35/k1.5": "05e7c38fa70e9522", "s3/d0/k0": "80439b2c40a1a413",
        "s3/d1/k0": "b45a2394cbaef9c7", "s3/d0.6/k0.5": "bbf37e160512c8dd",
    },
}


# -- delta enumeration vs brute force ------------------------------------------


def check_delta_is_difference(graph, base, pattern, labels=None):
    """Δ-matches on ``graph`` with Δ = E(graph) − E(base) must equal the
    set difference of the two from-scratch enumerations, duplicate-free."""
    delta = sorted(edge_set(graph) - edge_set(base))
    got = DeltaEnumerator(pattern).delta_matches(graph, delta, labels=labels)
    assert len(got) == len(set(got)), "a match was emitted twice"
    want = set(brute(graph, pattern, labels)) - set(brute(base, pattern,
                                                          labels))
    assert set(got) == want


@pytest.mark.parametrize("pattern", [TRIANGLE, SQUARE, CLIQUE4, PATH5],
                         ids=lambda p: p.name)
def test_delta_matches_equal_scratch_difference(pattern):
    rng = np.random.default_rng(17)
    for trial in range(10):
        g = gen.erdos_renyi(14, 0.3, seed=100 + trial)
        edges = sorted(edge_set(g))
        keep = rng.random(len(edges)) < 0.6
        base = Graph.from_edges(
            [e for e, k in zip(edges, keep) if k],
            num_vertices=g.num_vertices)
        check_delta_is_difference(g, base, pattern)


def test_bootstrap_full_edge_delta_is_from_scratch():
    g = gen.erdos_renyi(16, 0.3, seed=8)
    for pattern in (TRIANGLE, SQUARE):
        got = DeltaEnumerator(pattern).delta_matches(g, g.edges())
        assert sorted(got) == brute(g, pattern)
        assert len(got) == len(set(got))


def test_delta_edges_absent_from_graph_are_ignored():
    g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=4)
    got = DeltaEnumerator(TRIANGLE).delta_matches(g, [(0, 3), (0, 1)])
    assert sorted(got) == brute(g, TRIANGLE)


def test_labelled_delta_matches():
    rng = np.random.default_rng(23)
    labels = rng.integers(0, 2, 14).astype(np.int64)
    for trial in range(6):
        g = gen.erdos_renyi(14, 0.35, seed=300 + trial)
        edges = sorted(edge_set(g))
        base = Graph.from_edges(edges[: len(edges) // 2],
                                num_vertices=g.num_vertices)
        check_delta_is_difference(g, base, LABELLED_TRIANGLE, labels=labels)
    # a labelled pattern over an unlabelled graph matches nothing
    assert DeltaEnumerator(LABELLED_TRIANGLE).delta_matches(g, edges) == []


def test_rejects_degenerate_patterns():
    with pytest.raises(ValueError):
        DeltaEnumerator(QueryGraph(4, [(0, 1), (2, 3)]))  # disconnected
    with pytest.raises(ValueError):
        DeltaEnumerator(QueryGraph(1, []))


@settings(deadline=None)
@given(seed=st.integers(0, 10_000), keep=st.floats(0.1, 0.9),
       data=st.sampled_from(["triangle", "q1", "q6"]))
def test_delta_difference_property(seed, keep, data):
    rng = np.random.default_rng(seed)
    g = gen.erdos_renyi(12, 0.35, seed=seed % 997)
    edges = sorted(edge_set(g))
    mask = rng.random(len(edges)) < keep
    base = Graph.from_edges([e for e, k in zip(edges, mask) if k],
                            num_vertices=g.num_vertices)
    check_delta_is_difference(g, base, get_query(data))


@given(seed=st.integers(0, 10_000),
       pattern=st.sampled_from([TRIANGLE, SQUARE, get_query("q2"),
                                get_query("q4"), LABELLED_TRIANGLE]))
def test_update_passes_equal_both_scratch_differences(seed, pattern):
    """One mixed batch: additions = matches(new) − matches(old) on the new
    snapshot, retractions = matches(old) − matches(new) on the old one."""
    rng = np.random.default_rng(seed)
    old = gen.erdos_renyi(11, 0.4, seed=seed % 991)
    labels = rng.integers(0, 2, 11).astype(np.int64)
    ins = [tuple(rng.integers(0, 11, 2).tolist()) for _ in range(10)]
    present = sorted(edge_set(old))
    dels = [present[i] for i in rng.choice(len(present), 6, replace=False)]
    new, delta = apply_updates(old, ins, dels)
    enum = DeltaEnumerator(pattern)
    adds = enum.delta_matches(new, delta.inserted, labels=labels)
    rets = enum.delta_matches(old, delta.deleted, labels=labels)
    before = set(brute(old, pattern, labels))
    after = set(brute(new, pattern, labels))
    assert len(adds) == len(set(adds)) and set(adds) == after - before
    assert len(rets) == len(set(rets)) and set(rets) == before - after


def assigned_steps(pattern, delta, matches):
    """Step of each match: the highest Δ-rank among the data edges it uses."""
    rank = {e: i for i, e in enumerate(sorted(delta))}
    return [max(rank.get((min(m[a], m[b]), max(m[a], m[b])), -1)
                for a, b in pattern.edges) for m in matches]


@pytest.mark.parametrize("pattern", [TRIANGLE, SQUARE], ids=lambda p: p.name)
def test_blocks_change_nothing_and_emission_is_step_major(pattern,
                                                          monkeypatch):
    g = gen.power_law_cluster(60, 4, triad_p=0.6, seed=21)
    delta = sorted(edge_set(g))[::3]
    enum = DeltaEnumerator(pattern)
    one_block = enum.delta_matches(g, delta)
    steps = assigned_steps(pattern, delta, one_block)
    assert one_block and steps == sorted(steps) and min(steps) >= 0
    monkeypatch.setattr(delta_module, "DELTA_BLOCK", len(delta) // 3 - 1)
    assert enum.delta_matches(g, delta) == one_block, ">= 3 blocks"


def python_calls(fn) -> int:
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"
    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("pattern", [TRIANGLE, SQUARE], ids=lambda p: p.name)
def test_pass_is_columnar_python_calls_do_not_scale_with_delta(pattern):
    """A count, not a timing: the per-Δ-edge loop cost 117 (triangle) and
    239 (q1) Python calls per added edge."""
    g = load_dataset("LJ", seed=7)
    edges = sorted(edge_set(g))
    picks = np.random.default_rng(3).choice(len(edges), 64, replace=False)
    delta = [edges[i] for i in picks]
    enum = DeltaEnumerator(pattern)
    few = python_calls(lambda: enum.delta_matches(g, delta[:4]))
    many = python_calls(lambda: enum.delta_matches(g, delta))
    assert (many - few) / 60 < 10


def test_block_bounds_the_frontier_of_a_bootstrap(monkeypatch):
    g = load_dataset("LJ", scale=0.5, seed=7)
    enum = DeltaEnumerator(SQUARE)

    def peak_bytes():
        tracemalloc.start()
        try:
            count = len(enum.delta_matches(g, g.edge_array()))
            return count, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    count, blocked = peak_bytes()
    monkeypatch.setattr(delta_module, "DELTA_BLOCK", g.num_edges)
    assert peak_bytes()[0] == count
    assert blocked <= peak_bytes()[1] / 2


def test_per_batch_sets_on_seeded_stream_equal_per_edge_loop():
    """The additions and retractions of every batch: sorted, digested at
    the commit whose delta pass still looped over Δ-edges; in emission
    order, digested at the last commit with hand-built pinned plans —
    equal lists mean the compiled chains are those plans, order
    (hence tie-breaks and gather sources) included."""
    g = load_dataset("GO", seed=7)
    stream = temporal_edge_stream(g, 160, batch_size=8, seed=1,
                                  delete_fraction=0.35, skew=1.5)
    for name, want, in_order, total in (
            ("triangle", "865c408c92dff7fb", "a3bf220864299b9c", 48),
            ("q1", "163c539458cad204", "3cfa18cc6ae6b786", 549),
            ("q2", "e7b0b4f7a6832b0a", "3f58ed56881c9017", 77),
            ("q4", "a09408b5038b9279", "712ca438d93afc81", 1939)):
        enum = DeltaEnumerator(get_query(name))
        graph, parts, matches = stream.base, [], 0
        for batch in stream.batches:
            new, delta = apply_updates(graph, batch.inserts, batch.deletes)
            rets = enum.delta_matches(graph, delta.deleted)
            adds = enum.delta_matches(new, delta.inserted)
            parts.append((adds, rets))
            matches += len(adds) + len(rets)
            graph = new
        assert matches == total
        assert digest(*((sorted(a), sorted(r)) for a, r in parts)) == want
        assert digest(*parts) == in_order


# -- the incremental matcher ---------------------------------------------------


class TestIncrementalMatcher:
    def test_accumulates_to_from_scratch_over_stream(self):
        g = gen.power_law_cluster(40, 3, triad_p=0.6, seed=12)
        stream = temporal_edge_stream(g, 60, batch_size=8, seed=13,
                                      delete_fraction=0.35)
        final = stream.final_graph()
        for pattern in (TRIANGLE, SQUARE):
            matcher = IncrementalMatcher(pattern, stream.base)
            assert sorted(matcher.matches) == brute(stream.base, pattern)
            for batch in stream.batches:
                matcher.apply(batch.inserts, batch.deletes)
            assert matcher.violations == 0
            assert sorted(matcher.matches) == brute(final, pattern)
            assert matcher.count == len(brute(final, pattern))

    def test_deletion_retracts_delivered_match(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (2, 3)],
                             num_vertices=4)
        matcher = IncrementalMatcher(TRIANGLE, g)
        assert matcher.count == 1
        result = matcher.apply(deletes=[(0, 1)])
        assert result.retractions == [(0, 1, 2)]
        assert result.additions == []
        assert result.net == -1 and result.count_after == 0
        assert matcher.count == 0 and matcher.violations == 0

    def test_insertion_reports_only_new_matches(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2), (1, 3)],
                             num_vertices=4)
        matcher = IncrementalMatcher(TRIANGLE, g)
        result = matcher.apply(inserts=[(2, 3)])
        assert result.additions == [(1, 2, 3)]
        assert result.retractions == []
        assert matcher.count == 2

    def test_same_batch_insert_delete_is_noop(self):
        g = Graph.from_edges([(0, 1), (1, 2)], num_vertices=3)
        matcher = IncrementalMatcher(TRIANGLE, g)
        result = matcher.apply(inserts=[(0, 2)], deletes=[(0, 2)])
        assert result.delta.is_empty
        assert result.additions == [] and result.retractions == []
        assert matcher.count == 0

    def test_countonly_mode_tracks_count(self):
        g = gen.erdos_renyi(20, 0.25, seed=14)
        stream = temporal_edge_stream(g, 30, batch_size=6, seed=15)
        matcher = IncrementalMatcher(TRIANGLE, stream.base,
                                     keep_matches=False)
        assert matcher.matches is None
        for batch in stream.batches:
            matcher.apply(batch.inserts, batch.deletes)
        assert matcher.count == len(brute(stream.final_graph(), TRIANGLE))

    def test_no_bootstrap_counts_deltas_only(self):
        g = Graph.from_edges([(0, 1), (1, 2), (0, 2)], num_vertices=4)
        matcher = IncrementalMatcher(TRIANGLE, g, bootstrap=False)
        assert matcher.count == 0
        result = matcher.apply(inserts=[(0, 3), (1, 3)])
        assert result.additions == [(0, 1, 3)]
        assert matcher.count == 1
