"""The baselines' array programs against their references.

BiGJoin's rounds run through the engine's candidate pass (``extend_rows``
of ``core/kernels.c``) with per-hop survivor counts: its count, full
``RunReport`` and ledger are held equal to a run with the numpy
references of ``tests/reference_kernels.py`` bound in place of the
compiled loops, over the baseline conformance workloads and on the hub
graph's 00M.  The array programs around the pass are held to the loops they
stand for: the destination-wise memory charges to the scalar per-tuple
loop, SEED's and RADS' per-root charges to their row loop, the stable
destination split to one mask per destination, and RADS' remote-root
de-duplication to ``np.unique``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import BigJoinEngine, RadsEngine
from repro.baselines import base
from repro.baselines.base import chunk_flushes, split_by_destination
from repro.baselines.bigjoin import _CHUNK, _chunks_due
from repro.cluster import Cluster, CostModel, OutOfMemoryError
from repro.graph import generators as gen
from repro.query import get_query
from repro.testing.configs import baseline_matrix
from repro.testing.harness import ConformanceHarness

from .reference_kernels import PATHS, bound
from .reference_ledger import columns


def _bigjoin_run(graph, query, path, edge_batch=1 << 14, k=3, workers=2,
                 seed=0, memory_mb=None):
    """One BiGJoin run on a fresh cluster on one of :data:`PATHS`:
    ``(count or the error's fields, report, per-machine ledger)``."""
    cost = CostModel(memory_budget_bytes=(memory_mb * 1e6 if memory_mb
                                          else float("inf")))
    cluster = Cluster(graph, num_machines=k, workers_per_machine=workers,
                      cost=cost, seed=seed)
    with bound(path):
        try:
            result = BigJoinEngine(cluster, edge_batch=edge_batch).run(query)
            outcome, report = result.count, result.report
        except OutOfMemoryError as exc:
            outcome, report = ("00M", exc.machine, exc.used), None
    return outcome, report, columns(cluster.metrics)


def _both_paths(*args, **kwargs):
    runs = [_bigjoin_run(*args, path=path, **kwargs) for path in PATHS]
    assert runs[0] == runs[1]
    return runs[0]


class TestBigJoinPaths:
    def test_conformance_workloads(self):
        """the baseline profile's workload stream (unlabelled ones: the
        baselines refuse labels), at the default batch and at
        ``edge_batch = 7``: count, report and every machine's ledger
        equal, compiled and on the references"""
        spec = next(s for s in baseline_matrix() if s.engine == "bigjoin")
        harness = ConformanceHarness([spec], seed=1)
        ran = 0
        for i in range(80):
            workload = harness.workload(i)
            if not spec.supports(workload):
                continue
            for batch in (1 << 14, 7):
                _both_paths(workload.graph(), workload.pattern(),
                            edge_batch=batch, k=workload.num_machines,
                            workers=workload.workers_per_machine,
                            seed=workload.partition_seed)
            ran += 1
        assert ran >= 50

    @pytest.mark.parametrize("name", ["q1", "q2", "q3", "q5"])
    def test_paper_queries(self, name, ba_graph):
        count, report, _ = _both_paths(ba_graph, get_query(name), k=4,
                                       workers=4, seed=1)
        assert count > 0 and report.bytes_transferred > 0

    @pytest.mark.parametrize("batch", [1 << 20, 7])
    def test_hub_graph_00M(self, batch):
        """the hub graph of ``test_budgets.py::
        test_bigjoin_ooms_despite_batching``: the same machine's alloc
        raises first, with the same total, and every machine's peak and
        balance are equal, compiled and on the references"""
        hub = gen.hub_web(400, num_hubs=3, hub_degree=150, seed=3)
        outcome, _, _ = _both_paths(hub, get_query("q6"), edge_batch=batch,
                                    k=4, workers=4, seed=1, memory_mb=0.2)
        assert outcome == ("00M", 3, {1 << 20: 210672, 7: 243600}[batch])


def _scalar_chunks(dest, counts, k):
    """The per-tuple loop: each tuple's rows join its destination's
    pending count, and every full ``_CHUNK`` is one charge."""
    pending, due = [0] * k, []
    for r in np.flatnonzero(counts).tolist():
        h = int(dest[r])
        total = pending[h] + int(counts[r])
        if total // _CHUNK:
            due.append((h, total // _CHUNK))
        pending[h] = total % _CHUNK
    return due, pending


@st.composite
def _routed(draw, max_rows=40):
    """``k`` destinations (some with no tuples) and per-tuple
    destinations and counts, from zero up to a few chunks, often one off
    a chunk so that running totals land on its boundary."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(0, max_rows))
    dest = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    counts = draw(st.lists(st.one_of(
        st.integers(0, 5), st.integers(0, 3 * _CHUNK),
        st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1])),
        min_size=n, max_size=n))
    return (k, np.asarray(dest, dtype=np.int64),
            np.asarray(counts, dtype=np.int64))


@given(case=_routed())
@settings(max_examples=200)
def test_chunk_charges_equal_the_tuple_loop(case):
    """the same charges, destination by destination in tuple order, the
    same chunk counts and the same leftovers"""
    k, dest, counts = case
    at, chunks, pending = _chunks_due(dest, counts, k)
    due, want_pending = _scalar_chunks(dest, counts, k)
    assert list(zip(at.tolist(), chunks.tolist())) == due
    assert pending.tolist() == want_pending


@given(case=_routed(max_rows=60), width=st.integers(0, 3))
@settings(max_examples=200)
def test_destination_split_equals_the_mask_loop(case, width):
    """one stable sort gives each destination's rows in their order,
    empty destinations as empty ``(0, width)`` blocks"""
    k, dest, counts = case
    rows = np.arange(len(dest) * width, dtype=np.int64).reshape(
        len(dest), width)
    rows = rows + counts[:, None]
    parts = split_by_destination(rows, dest, k)
    assert len(parts) == k
    for d, part in enumerate(parts):
        want = rows[dest == d]
        assert part.dtype == want.dtype and part.shape == want.shape
        assert np.array_equal(part, want)


@given(counts=st.lists(st.one_of(
    st.integers(0, 9), st.integers(0, 2 * base._CHUNK),
    st.sampled_from([base._CHUNK - 1, base._CHUNK, base._CHUNK + 1])),
    max_size=60))
@settings(max_examples=200)
def test_chunk_flushes_equal_the_row_loop(counts):
    """SEED's and RADS' per-root charges: the same totals flushed in the
    same order, and the same remainder, as the loop over the rows"""
    flushed, pending = [], 0
    for c in counts:
        pending += c
        if pending >= base._CHUNK:
            flushed.append(pending)
            pending = 0
    assert chunk_flushes(np.asarray(counts, dtype=np.int64)) == (
        flushed, pending)


@given(ids=st.lists(st.integers(0, 29), max_size=60))
def test_rads_remote_roots_equal_unique(ids):
    """the scratch marks give ``np.unique``'s ids and are all cleared"""
    engine = RadsEngine(Cluster(gen.erdos_renyi(30, 0.2, seed=2),
                                num_machines=2, seed=0))
    ids = np.asarray(ids, dtype=np.int64)
    for _ in range(2):
        got = engine._distinct(ids)
        want = np.unique(ids)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        assert not engine._marks.any()
