"""The compiled PULL-EXTEND step (``pull_extend_step`` of ``kernels.c``,
reached through :meth:`LRBUCache.pull_extend`) against the composed step
it stands for — the cache's ``fetch``, ``ExtendOp._process_vector``, the
cache's ``release`` and ``distribute_to_workers``, all numpy — step for
step: the same output block, counts, ticks and worker totals, the same
ledger and the same cache state after every step."""

from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel
from repro.core import HugeEngine, kernels, make_cache
from repro.core.dataflow import ExtendSpec
from repro.core.engine import EngineConfig
from repro.core.operators import ExecContext, ExtendOp
from repro.graph import generators as gen
from repro.obs import Tracer
from repro.query import get_query

from .test_extend_kernels import extend_path, extend_paths


def _compiled():
    if kernels._LIB is None:
        pytest.skip("the compiled kernels are not loaded")


def _context(g, k, workers, variant, capacity, labels, seed):
    cost = CostModel()
    cluster = Cluster(g, num_machines=k, workers_per_machine=workers,
                      cost=cost, seed=seed, labels=labels)
    return ExecContext(cluster, make_cache(variant, capacity, cost,
                                           workers=workers))


def _cache_state(cache, k):
    """Everything the two paths must leave alike in an LRBU cache."""
    state = cache._queue_state
    live = [(cache._queue[m, state[m, 0]:state[m, 1]].tolist(),
             cache._stamps[m, state[m, 0]:state[m, 1]].tolist())
            for m in range(k)]
    return (cache._entry.tolist(), cache._order.tolist(), state.tolist(),
            cache._queue.shape, live, [cache.free_order(m) for m in range(k)],
            [cache.occupancy(m) for m in range(k)], cache.num_sealed,
            cache.stats.evictions, cache.stats.max_overflow_ids)


def _ledger(ctx):
    return [astuple(m) for m in ctx.metrics.machines], ctx.fetch_ops


def _random_step(rng, g, owner, k):
    """A stacked step: rows of 1-4 columns on sorted machines (a run per
    machine is a batch), some rows all local to their machine, and an
    extend spec over 1-4 of the columns with random symmetry windows."""
    width = int(rng.integers(1, 5))
    n_rows = int(rng.integers(1, 40))
    machines = np.sort(rng.integers(0, k, size=n_rows))
    rows = rng.integers(0, g.num_vertices, size=(n_rows, width))
    for r in np.flatnonzero(rng.random(n_rows) < 0.25):
        local = np.flatnonzero(owner == machines[r])
        if len(local):
            rows[r] = rng.choice(local, size=width)
    ext = tuple(sorted(rng.choice(width, size=int(rng.integers(1, width + 1)),
                                  replace=False).tolist()))
    lt = tuple(p for p in range(width) if rng.random() < 0.25)
    gt = tuple(p for p in range(width) if p not in lt and rng.random() < 0.25)
    return machines, rows, ext, lt, gt


class TestFusedStep:
    """Random step sequences on two identical clusters, one through the
    compiled step and one through the numpy composition."""

    @given(k=st.integers(1, 4), workers=st.integers(1, 3),
           capacity=st.sampled_from([None, 0, 6, 40]),
           variant=st.sampled_from(["lrbu", "lrbu-copy", "lru-inf"]),
           stealing=st.sampled_from(["full", "none", "region-group"]),
           labelled=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40)
    def test_steps_equal_the_composition(self, k, workers, capacity,
                                         variant, stealing, labelled, seed):
        """After every step: the output block, per-row counts and ticks,
        per-(batch, worker) totals, every ``MachineMetrics`` field,
        ``fetch_ops``, ``_entry``, ``_order``, the queue state and live
        places, ``free_order(m)``, occupancy, pins, evictions and the
        worst overflow.  Capacities 0 and 6 evict and overflow inside a
        step; single-list extends, ``count_only`` steps, label filters and
        reads sealed before the step come up at random."""
        _compiled()
        rng = np.random.default_rng(seed)
        g = gen.erdos_renyi(int(rng.integers(8, 40)), 0.25, seed=seed)
        labels = rng.integers(0, 3, size=g.num_vertices) if labelled else None
        sides = {path: _context(g, k, workers, variant, capacity, labels,
                                seed) for path in ("compiled", "numpy")}
        owner = sides["numpy"].cluster.pgraph.owner
        steal = stealing == "full"
        for _ in range(8):
            machines, rows, ext, lt, gt = _random_step(rng, g, owner, k)
            width = rows.shape[1]
            spec = ExtendSpec(ext=ext, out_schema=tuple(range(width + 1)),
                              new_vertex=width, candidate_lt=lt,
                              candidate_gt=gt,
                              new_label=(int(rng.integers(0, 3))
                                         if labelled and rng.random() < 0.7
                                         else None))
            count_only = bool(rng.random() < 0.3)
            # now and then some reads sealed before the step: hits the
            # classification finds sealed already, pins the step inherits
            early = [(int(rng.integers(0, g.num_vertices)),
                      int(rng.integers(0, k)))
                     for _ in range(4 if rng.random() < 0.3 else 0)]
            got = {}
            for path, ctx in sides.items():
                for v, m in early:
                    ctx.cache.seal(v, m)
                with extend_path(path):
                    got[path] = ExtendOp(spec, ctx)._run(
                        machines, rows, count_only, steal)
            (out, ticks, counts, totals), want = got["compiled"], got["numpy"]
            assert out.tolist() == want[0].tolist()
            assert ticks.tolist() == want[1].tolist()
            assert counts.tolist() == want[2].tolist()
            assert totals.tolist() == want[3].tolist()
            assert totals.shape == (len(np.unique(machines)), workers)
            a, b = sides["compiled"], sides["numpy"]
            assert _ledger(a) == _ledger(b)
            assert _cache_state(a.cache, k) == _cache_state(b.cache, k)
            assert a.cache.num_sealed == 0

    def test_rows_all_local_pull_nothing(self):
        """A step whose every cell its row's machine owns is all intersect
        stage: no hit, miss, pull or cache entry, on either path."""
        g = gen.erdos_renyi(30, 0.3, seed=2)
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)
        for path in extend_paths():
            ctx = _context(g, 3, 2, "lrbu", 10, None, 2)
            local = np.flatnonzero(ctx.cluster.pgraph.owner == 1)
            rows = np.column_stack((local, local[::-1]))
            with extend_path(path):
                ExtendOp(spec, ctx).step(1, rows, False, True)
            m = ctx.metrics.machines[1]
            assert (m.cache_hits, m.cache_misses, m.rpc_requests) == (0, 0, 0)
            assert len(ctx.cache) == 0 and ctx.fetch_ops == 0

    def test_queue_rows_grow_inside_a_step(self):
        """An unbounded cache admitting more distinct ids in one step than
        its queue rows hold: the step hands the pins back, the rows grow,
        and the release files them — the same queue as the composition."""
        g = gen.erdos_renyi(400, 0.05, seed=4)
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1)
        rows = np.arange(400)[:, None]
        caches = []
        for path in extend_paths():
            ctx = _context(g, 2, 1, "lrbu", None, None, 4)
            start = ctx.cache._queue.shape
            with extend_path(path):
                ExtendOp(spec, ctx).step(0, rows, True, True)
            assert ctx.cache._queue.shape[1] > start[1]
            caches.append(ctx.cache)
        assert _cache_state(caches[0], 2) == _cache_state(caches[-1], 2)

    def test_wide_keys_file_by_machine_and_id(self):
        """Keys ``m·|V| + v`` past one 11-bit radix digit (3 000 ids on
        three machines): the step's release files them as the numpy
        release does, every machine by ascending id.  The first step
        grows the queue rows, so the second, re-reading half of it, is
        filed by the compiled release itself."""
        g = gen.erdos_renyi(3000, 0.002, seed=8)
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 3000, size=(900, 2))
        machines = np.repeat(np.arange(3), 300)
        half = np.arange(900) % 300 < 150
        sides = [_context(g, 3, 2, "lrbu", None, None, 8)
                 for _ in extend_paths()]
        for step_rows, step_machines in ((rows, machines),
                                         (rows[half], machines[half])):
            for path, ctx in zip(extend_paths(), sides):
                width = ctx.cache._queue.shape[1]
                with extend_path(path):
                    ExtendOp(spec, ctx).step(step_machines, step_rows, True,
                                             True)
                free = [ctx.cache.free_order(m) for m in range(3)]
                assert all(len(f) > 100 for f in free)
            assert _cache_state(sides[0].cache, 3) == _cache_state(
                sides[-1].cache, 3)
        assert ctx.cache._queue.shape[1] == width      # filed in place

    def test_queue_rows_compact_and_grow_alike(self):
        """Steps re-reading mostly the same remote ids re-seal their hits,
        so stale places fill the queue rows: the compiled release
        compacts them, and grows the rows, at the same steps as the
        numpy release, leaving the same queue."""
        g = gen.erdos_renyi(200, 0.05, seed=9)
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1)
        rng = np.random.default_rng(9)
        sides = [_context(g, 2, 1, "lrbu", None, None, 9)
                 for _ in extend_paths()]
        widths = set()
        for _ in range(30):
            rows = rng.integers(0, 200, size=(40, 1))
            machines = np.sort(rng.integers(0, 2, size=40))
            for path, ctx in zip(extend_paths(), sides):
                with extend_path(path):
                    ExtendOp(spec, ctx).step(machines, rows, True, True)
            assert _cache_state(sides[0].cache, 2) == _cache_state(
                sides[-1].cache, 2)
            widths.add(sides[0].cache._queue.shape[1])
        assert len(widths) > 1

    def test_a_row_filled_to_one_place_short(self):
        """A queue row one place short of the step's pins is compacted and
        grown, never filed past its end."""
        g = gen.erdos_renyi(300, 0.05, seed=10)
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1)
        sides = [_context(g, 2, 1, "lrbu", None, None, 10)
                 for _ in extend_paths()]
        remote = np.flatnonzero(sides[0].cluster.pgraph.owner == 0)
        for path, ctx in zip(extend_paths(), sides):
            cache = ctx.cache
            cache.cover(2, g.num_vertices)
            qcap = cache._queue.shape[1]
            # machine 1's row: qcap - 1 live places, then a step pinning 2
            cache.admit(remote[:qcap - 1], np.full(qcap - 1, 2), 1)
            cache.release()
            assert cache._queue_state[1, 1] == qcap - 1
            rows = remote[qcap - 1:qcap + 1, None]
            with extend_path(path):
                ExtendOp(spec, ctx).step(1, rows, True, True)
            assert cache._queue.shape[1] > qcap
        assert _cache_state(sides[0].cache, 2) == _cache_state(
            sides[-1].cache, 2)

    def test_a_lost_pin_is_an_assertion(self):
        """The step re-checks what sealing guarantees: a pinned key gone
        after the admission raises, on either path.  A queue place whose
        stamp was corrupted to −1 (a sealed entry's order) makes eviction
        take a key the step sealed."""
        g = gen.erdos_renyi(40, 0.3, seed=6)
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1)
        for path in extend_paths():
            ctx = _context(g, 2, 1, "lrbu", 0, None, 6)
            remote = np.flatnonzero(ctx.cluster.pgraph.owner == 1)
            op = ExtendOp(spec, ctx)
            with extend_path(path):
                op.step(0, remote[:1, None], True, True)      # now in S_free
                cache = ctx.cache
                cache._stamps[0, cache._queue_state[0, 0]] = -1
                with pytest.raises(AssertionError, match="missing"):
                    op.step(0, remote[:2, None], True, True)

    def test_a_step_is_one_compiled_call(self, monkeypatch):
        """An engine run over an LRBU cache makes exactly one compiled
        call per PULL-EXTEND step, and no extend or deal call besides the
        SCAN steps' deals."""
        _compiled()
        calls = {}
        lib = kernels._LIB

        class Counting:
            def __getattr__(self, name):
                calls[name] = calls.get(name, 0) + 1
                return getattr(lib, name)

        steps = []
        step = ExtendOp.step
        monkeypatch.setattr(ExtendOp, "step", lambda self, *a: (
            steps.append(1), step(self, *a))[1])
        cluster = Cluster(gen.barabasi_albert(120, 4, seed=1),
                          num_machines=4, seed=1)
        engine = HugeEngine(cluster)
        plan = engine.plan(get_query("q1"))    # the estimator extends too
        monkeypatch.setattr(kernels, "_LIB", Counting())
        result = engine.run(plan=plan)
        assert result.count > 0 and steps
        assert calls.get("pull_extend_step") == len(steps)
        assert "extend_rows" not in calls

    @pytest.mark.parametrize("variant", ["lrbu", "lrbu-copy", "lru-inf"])
    def test_traced_runs_keep_every_span(self, variant):
        """A traced run lists the same spans, instants and counters on
        both paths: the step applies its fetch charges before the
        scheduler reads the clocks for the intersect span."""
        _compiled()
        g = gen.barabasi_albert(100, 4, seed=3)
        traces = []
        for path in ("compiled", "numpy"):
            cluster = Cluster(g, num_machines=4, seed=3)
            config = EngineConfig(cache_variant=variant,
                                  cache_capacity_ids=60)
            with extend_path(path):
                result = HugeEngine(cluster, config).run(get_query("q1"),
                                                         tracer=Tracer())
            trace = result.trace
            # the plan and translate spans carry wall-clock seconds
            traces.append(([(s.name, s.machine, s.t0, s.t1,
                             {key: value for key, value
                              in (s.args or {}).items() if key != "wall_s"})
                            for s in trace.spans],
                           [astuple(e) for e in trace.instants],
                           [astuple(c) for c in trace.counters],
                           result.report))
        assert traces[0][0] and traces[0] == traces[1]


class TestStepRefusals:
    """``kernels.pull_extend_step`` refuses, before it writes anything, a
    machine past the cluster, a vertex outside the graph and buffers too
    short for the step."""

    @staticmethod
    def _call(ctx, rows, machines, out_rows=None, pins=None, batches=None,
              report_extra=0):
        cluster, cache = ctx.cluster, ctx.cache
        k, workers = cluster.num_machines, cluster.workers_per_machine
        cache.cover(k, cluster.pgraph.graph.num_vertices)
        n = len(rows)
        if batches is None:
            batches = 1 + int(np.count_nonzero(machines[1:] != machines[:-1]))
        report = np.zeros(2 * n + batches * workers + 3 * k + 2 * k * k + 4
                          + report_extra, dtype=np.int64)
        out = None if out_rows is None else np.zeros((out_rows, 3), np.int64)
        pins = np.zeros(4 * n, np.int64) if pins is None else pins
        return kernels.pull_extend_step(
            cluster.pgraph.graph, cluster.pgraph.owner, k, rows, machines,
            (0, 1), (), (), None, None, cluster.probe_ticks,
            (1, 1, 0, 0, 1, 1),
            (None, cache._entry, cache._order, cache._queue, cache._stamps,
             cache._queue_state, pins, 0), workers, True, out, report,
            batches)

    def test_refusals_leave_the_cache_untouched(self):
        _compiled()
        g = gen.erdos_renyi(30, 0.3, seed=1)
        ctx = _context(g, 2, 2, "lrbu", 20, None, 1)
        rows = np.array([[3, 4], [5, 6]])
        ok = np.zeros(2, dtype=np.int64)
        assert self._call(ctx, rows, ok)[0] == 0
        before = _cache_state(ctx.cache, 2)
        cases = [
            dict(rows=rows, machines=np.array([0, 2])),          # machine ≥ k
            dict(rows=rows, machines=np.array([0, -1])),
            dict(rows=rows * [1, -1], machines=ok),             # negative id
            dict(rows=rows + [0, 30], machines=ok),             # past |V|
            dict(rows=rows, machines=ok, pins=np.zeros(7, np.int64)),
            dict(rows=rows, machines=ok, out_rows=0),           # short block
            dict(rows=rows, machines=np.array([0, 1]), batches=1),
        ]
        for case in cases:
            with pytest.raises(ValueError):
                self._call(ctx, **case)
            assert _cache_state(ctx.cache, 2) == before
        with pytest.raises(ValueError):                      # report length
            self._call(ctx, rows, ok, report_extra=1)
