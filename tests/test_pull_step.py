"""The compiled PULL-EXTEND step (``pull_extend_step`` of ``kernels.c``,
reached through :meth:`LRBUCache.pull_extend`) against the numpy step it
stands for (``tests/reference_kernels.py``'s ``pull_extend``, bound in
its place) step for step: the same output block, counts, ticks and
worker totals, the same ledger and the same cache state after every
step."""

import hashlib
import os
import re
import signal
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import Cluster, CostModel
from repro.core import HugeEngine, kernels
from repro.core.dataflow import ExtendSpec
from repro.core.engine import EngineConfig
from repro.core.operators import ExecContext, ExtendOp
from repro.graph import Graph
from repro.graph import generators as gen
from repro.obs import Tracer
from repro.query import get_query

from . import reference_kernels
from .reference_cache import make_cache
from .reference_kernels import PATHS, bound
from .reference_ledger import columns

#: the row count from which ``kernels.c`` runs a counted pass on threads
THREAD_ROWS = int(re.search(r"#define THREAD_ROWS (\d+)",
                            kernels._SOURCE.read_text())[1])


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
    return columns(ctx.metrics), ctx.fetch_ops


def _random_step(rng, g, owner, k):
    """A stacked step: 0-39 rows of 1-4 columns on sorted machines (a run
    per machine is a batch), some rows all local to their machine, and an
    extend spec over 1-4 of the columns with random symmetry windows."""
    width = int(rng.integers(1, 5))
    n_rows = int(rng.integers(0, 40))
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


def _verify_spec(rng, g, rows, ext, lt, gt, new_label):
    """A VERIFY of a random column of ``rows`` over the other extend
    columns (over itself when it is the only one, which no row passes):
    about half the rows are made to pass the membership test, their
    verified vertex replaced by a common neighbour of their extend
    vertices where there is one.  The symmetry positions come along, for
    both steps to ignore."""
    verify = int(rng.integers(0, rows.shape[1]))
    ext = tuple(p for p in ext if p != verify) or ext
    for r in np.flatnonzero(rng.random(len(rows)) < 0.5):
        common = g.neighbours(int(rows[r, ext[0]]))
        for p in ext[1:]:
            common = np.intersect1d(common, g.neighbours(int(rows[r, p])))
        if verify not in ext and len(common):
            rows[r, verify] = rng.choice(common)
    return ExtendSpec(ext=ext, out_schema=tuple(range(rows.shape[1])),
                      verify_pos=verify, candidate_lt=lt, candidate_gt=gt,
                      new_label=new_label)


class TestFusedStep:
    """Random step sequences on two identical clusters, one through the
    compiled step and one through the reference composition."""

    @given(k=st.integers(1, 4), workers=st.integers(1, 3),
           capacity=st.sampled_from([None, 0, 6, 40]),
           variant=st.sampled_from(["lrbu", "lrbu-copy", "lru-inf"]),
           stealing=st.sampled_from(["full", "none", "region-group"]),
           labelled=st.booleans(), seed=st.integers(0, 2 ** 16))
    @settings(max_examples=40)
    def test_steps_equal_the_composition(self, k, workers, capacity,
                                         variant, stealing, labelled, seed):
        """After every step: the output block, per-row counts and ticks,
        per-(batch, worker) totals, every ledger column,
        ``fetch_ops``, ``_entry``, ``_order``, the queue state and live
        places, ``free_order(m)``, occupancy, pins, evictions and the
        worst overflow.  Capacities 0 and 6 evict and overflow inside a
        step; single-list extends, VERIFY steps, empty steps,
        ``count_only`` steps, label filters and reads sealed before the
        step come up at random."""
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
            new_label = (int(rng.integers(0, 3))
                         if labelled and rng.random() < 0.7 else None)
            if rng.random() < 0.35:
                spec = _verify_spec(rng, g, rows, ext, lt, gt, new_label)
            else:
                spec = ExtendSpec(ext=ext,
                                  out_schema=tuple(range(width + 1)),
                                  new_vertex=width, candidate_lt=lt,
                                  candidate_gt=gt, new_label=new_label)
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
                with bound(path):
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
        stage: no hit, miss, pull or cache entry, compiled or composed."""
        g = gen.erdos_renyi(30, 0.3, seed=2)
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)
        for path in PATHS:
            ctx = _context(g, 3, 2, "lrbu", 10, None, 2)
            local = np.flatnonzero(ctx.cluster.pgraph.owner == 1)
            rows = np.column_stack((local, local[::-1]))
            with bound(path):
                ExtendOp(spec, ctx).step(1, rows, False, True)
            m = ctx.metrics
            assert (m.cache_hits[1], m.cache_misses[1],
                    m.rpc_requests[1]) == (0, 0, 0)
            assert len(ctx.cache) == 0 and ctx.fetch_ops == 0

    def test_queue_rows_grow_inside_a_step(self):
        """An unbounded cache admitting more distinct ids in one step than
        a fresh cache's queue rows hold: the rows grow to twice the step's
        cells (one batch) before it runs, and its release files the pins —
        the same queue as the composition.  (A step that still finds a row
        too short hands its pins back: test_a_row_filled_to_one_place_short
        and test_queue_rows_compact_and_grow_alike.)"""
        g = gen.erdos_renyi(400, 0.05, seed=4)
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1)
        rows = np.arange(400)[:, None]
        caches = []
        for path in PATHS:
            ctx = _context(g, 2, 1, "lrbu", None, None, 4)
            start = ctx.cache._queue.shape
            with bound(path):
                ExtendOp(spec, ctx).step(0, rows, True, True)
            assert ctx.cache._queue.shape[1] > start[1]
            caches.append(ctx.cache)
        assert _cache_state(caches[0], 2) == _cache_state(caches[-1], 2)

    def test_wide_keys_file_by_machine_and_id(self):
        """Keys ``m·|V| + v`` past one 11-bit radix digit (3 000 ids on
        three machines): the step's release files them as the numpy
        release does, every machine by ascending id, and the second step,
        re-reading half of the first's, in rows as wide as before."""
        g = gen.erdos_renyi(3000, 0.002, seed=8)
        spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2)
        rng = np.random.default_rng(8)
        rows = rng.integers(0, 3000, size=(900, 2))
        machines = np.repeat(np.arange(3), 300)
        half = np.arange(900) % 300 < 150
        sides = [_context(g, 3, 2, "lrbu", None, None, 8) for _ in PATHS]
        for step_rows, step_machines in ((rows, machines),
                                         (rows[half], machines[half])):
            for path, ctx in zip(PATHS, sides):
                width = ctx.cache._queue.shape[1]
                with bound(path):
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
        sides = [_context(g, 2, 1, "lrbu", None, None, 9) for _ in PATHS]
        widths = set()
        for _ in range(30):
            rows = rng.integers(0, 200, size=(40, 1))
            machines = np.sort(rng.integers(0, 2, size=40))
            for path, ctx in zip(PATHS, sides):
                with bound(path):
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
        sides = [_context(g, 2, 1, "lrbu", None, None, 10) for _ in PATHS]
        remote = np.flatnonzero(sides[0].cluster.pgraph.owner == 0)
        for path, ctx in zip(PATHS, sides):
            cache = ctx.cache
            cache.cover(2, g.num_vertices)
            cache._grow_queue(64)
            qcap = cache._queue.shape[1]
            # machine 1's row: qcap - 1 live places, then a step pinning 2
            cache.admit(remote[:qcap - 1], np.full(qcap - 1, 2), 1)
            cache.release()
            assert cache._queue_state[1, 1] == qcap - 1
            rows = remote[qcap - 1:qcap + 1, None]
            with bound(path):
                ExtendOp(spec, ctx).step(1, rows, True, True)
            assert cache._queue.shape[1] > qcap
        assert _cache_state(sides[0].cache, 2) == _cache_state(
            sides[-1].cache, 2)

    def test_a_lost_pin_is_an_assertion(self):
        """The step re-checks what sealing guarantees: a pinned key gone
        after the admission raises, compiled or composed.  A queue place
        whose stamp was corrupted to −1 (a sealed entry's order) makes
        eviction take a key the step sealed."""
        g = gen.erdos_renyi(40, 0.3, seed=6)
        spec = ExtendSpec(ext=(0,), out_schema=(0, 1), new_vertex=1)
        for path in PATHS:
            ctx = _context(g, 2, 1, "lrbu", 0, None, 6)
            remote = np.flatnonzero(ctx.cluster.pgraph.owner == 1)
            op = ExtendOp(spec, ctx)
            with bound(path):
                op.step(0, remote[:1, None], True, True)      # now in S_free
                cache = ctx.cache
                cache._stamps[0, cache._queue_state[0, 0]] = -1
                with pytest.raises(AssertionError, match="missing"):
                    op.step(0, remote[:2, None], True, True)

    def test_a_step_is_one_compiled_call(self, monkeypatch):
        """An engine run over an LRBU cache makes exactly one compiled
        call per PULL-EXTEND step — q3's plan verifies, q1's extends only
        — and no extend or deal call besides the SCAN steps' deals: the
        queue rows take twice an average batch's cells before a step, so
        a fresh cache's first steps hand no pins back."""
        calls, steps, verify_steps = {}, [], []
        lib = kernels._LIB

        class Counting:
            def __getattr__(self, name):
                calls[name] = calls.get(name, 0) + 1
                return getattr(lib, name)

        step = ExtendOp.step
        monkeypatch.setattr(ExtendOp, "step", lambda self, *a: (
            steps.append(1), verify_steps.append(self.spec.is_verify),
            step(self, *a))[-1])
        g = gen.barabasi_albert(120, 4, seed=1)
        for query in ("q1", "q3"):
            engine = HugeEngine(Cluster(g, num_machines=4, seed=1))
            plan = engine.plan(get_query(query))  # the estimator extends too
            for seen in (calls, steps, verify_steps):
                seen.clear()
            with monkeypatch.context() as mp:
                mp.setattr(kernels, "_LIB", Counting())
                result = engine.run(plan=plan)
            assert result.count > 0 and steps
            assert any(verify_steps) == (query == "q3")
            assert calls.get("pull_extend_step") == len(steps)
            assert "extend_rows" not in calls

    def test_both_cache_classes_search_the_same_verify_probes(self):
        """One VERIFY step of three lists on a snapshot without a slot
        table: behind an ``LRUCache`` the step runs the LRBU step's extend
        loop, so it keeps the same rows and counts the same searched
        probes (``Graph._probes``) toward the table."""
        g = gen.erdos_renyi(60, 0.2, seed=5)
        rng = np.random.default_rng(5)
        rows = rng.integers(0, 60, size=(80, 4))
        for r in range(0, len(rows), 2):
            common = set.intersection(*(set(g.neighbours(int(v)).tolist())
                                        for v in rows[r, :3]))
            if common:
                rows[r, 3] = min(common)
        machines = np.sort(rng.integers(0, 3, size=len(rows)))
        spec = ExtendSpec(ext=(0, 1, 2), out_schema=(0, 1, 2, 3),
                          verify_pos=3)
        got = {}
        for variant in ("lrbu", "cncr-lru"):
            ctx = _context(Graph(g.indptr, g.indices), 3, 2, variant, None,
                           None, 5)
            out, *_ = ExtendOp(spec, ctx)._run(machines, rows, False, True)
            graph = ctx.cluster.pgraph.graph
            assert graph._arcs is None
            got[variant] = out.tolist(), graph._probes
        assert got["lrbu"] == got["cncr-lru"]
        assert got["lrbu"][0] and got["lrbu"][1] > 0

    @pytest.mark.parametrize("variant", ["lrbu", "lrbu-copy", "lru-inf"])
    def test_traced_runs_keep_every_span(self, variant):
        """A traced run lists the same spans, instants and counters
        compiled and composed: the step applies its fetch charges before
        the scheduler reads the clocks for the intersect span."""
        g = gen.barabasi_albert(100, 4, seed=3)
        traces = []
        for path in PATHS:
            cluster = Cluster(g, num_machines=4, seed=3)
            config = EngineConfig(cache_variant=variant,
                                  cache_capacity_ids=60)
            with bound(path):
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


class TestThreadedStep:
    """A counted step of ``THREAD_ROWS`` rows or more
    (:func:`_threaded_step`), whose intersect stage and per-batch deal run
    on threads, against the reference step, and against itself on one
    thread."""

    @staticmethod
    def _step(table):
        """:func:`_threaded_step` on each path, each side on a graph of its
        own (so each counts its own searched probes), the slot table built
        first when ``table``: per side its ``(ticks, counts, totals)``,
        ledger, cache state and the graph's searched-probe count."""
        got = {}
        for path in PATHS:
            g, ctx, machines, rows, spec = _threaded_step()
            if table:
                g.arc_table()
            with bound(path):
                _, *step = ExtendOp(spec, ctx)._run(machines, rows, True,
                                                    True)
            got[path] = ([a.tolist() for a in step], _ledger(ctx),
                         _cache_state(ctx.cache, 3), g._probes)
        return got

    @pytest.mark.parametrize("table", [False, True])
    def test_equals_the_reference(self, table):
        """Counts, ticks, totals, every ledger column (hits, misses,
        pulls), every cache array and, searching, the probe count."""
        got = self._step(table)
        assert got["compiled"] == got["numpy"]
        assert sum(got["compiled"][0][1]) > 0
        assert (got["compiled"][3] > 0) != table

    def test_one_thread_gives_the_same_report(self):
        """The same step's report and cache arrays, byte for byte, in a
        child process held to one CPU, whose pool has no helper."""
        child = _child("import hashlib, os, sys\n"
                       "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))"
                       "})\n"
                       "from tests.test_pull_step import _report\n"
                       "sys.stdout.write(hashlib.sha256(_report())"
                       ".hexdigest())\n")
        assert child == hashlib.sha256(_report()).hexdigest()

    def test_a_process_exits_while_its_helpers_work(self):
        """A process that ends while a daemon thread is inside a long
        counted pass, its pool's helpers running chunks, exits cleanly:
        the library stays loaded to the end, so no thread runs its code
        unmapped."""
        for _ in range(3):
            _child("import threading, time\n"
                   "import numpy as np\n"
                   "from repro.core import kernels\n"
                   "from repro.graph import generators as gen\n"
                   "g = gen.erdos_renyi(2000, 0.02, seed=1)\n"
                   "rows = np.random.default_rng(1).integers(0, 2000, "
                   "size=(400000, 2))\n"
                   "lens = np.diff(g.indptr)[rows]\n"
                   "ticks = np.arange(g.num_vertices + 1)\n"
                   "threading.Thread(daemon=True, target=lambda: [\n"
                   "    kernels.extend_block(g, rows, rows, lens, (), (), 3,\n"
                   "                         ticks, count_only=True)\n"
                   "    for _ in iter(int, 1)]).start()\n"
                   "time.sleep(0.2)\n")

    def test_a_forked_child_steps_on_threads_of_its_own(self):
        """A child fork()ed after a threaded step (so without its parent's
        helpers, and with the pool as the parent left it) runs the same
        step to the same report within a minute; a child that hangs is
        killed and fails the test."""
        _child("import os, time\n"
               "from tests.test_pull_step import _report\n"
               "want = _report()\n"
               "pid = os.fork()\n"
               "if not pid:\n"
               "    os._exit(0 if _report() == want else 1)\n"
               "for _ in range(600):\n"
               "    done, status = os.waitpid(pid, os.WNOHANG)\n"
               "    if done:\n"
               "        break\n"
               "    time.sleep(0.1)\n"
               "else:\n"
               "    os.kill(pid, 9)\n"
               "    raise SystemExit('the forked child hangs')\n"
               "assert os.waitstatus_to_exitcode(status) == 0\n")

    def test_concurrent_callers_give_the_same_report(self):
        """Four interpreter threads stepping at once, each its own cache
        and graph, one on the pool and the others on their own thread:
        every report is the one step's alone."""
        with ThreadPoolExecutor(4) as pool:
            futures = [pool.submit(_report) for _ in range(4)]
            reports = [f.result(timeout=120) for f in futures]
        assert reports == [_report()] * 4

    def test_survivor_rounds_equal_the_reference(self):
        """BiGJoin's counted rounds (per-list survivor counts, the window
        as a filter) above the row threshold."""
        g = gen.erdos_renyi(300, 0.06, seed=13)
        rng = np.random.default_rng(13)
        rows = rng.integers(0, 300, size=(2 * THREAD_ROWS, 3))
        verts = rows[:, :2]
        lens = np.diff(g.indptr)[verts]
        got = []
        for module in (kernels, reference_kernels):
            survivors = np.empty(verts.shape, dtype=np.int64)
            _, counts, ticks = module.extend_block(
                g, rows, verts, lens, (2,), (), 3,
                np.arange(g.num_vertices + 1), count_only=True,
                survivors=survivors)
            got.append((counts.tolist(), ticks.tolist(), survivors.tolist()))
        assert got[0] == got[1]


def _threaded_step():
    """A fresh step of ``3 · THREAD_ROWS`` rows over three machines (a
    batch each) of a 300-vertex graph, extending a pair under a symmetry
    window: ``(graph, context, machines, rows, spec)``."""
    g = gen.erdos_renyi(300, 0.06, seed=12)
    rng = np.random.default_rng(12)
    rows = rng.integers(0, 300, size=(3 * THREAD_ROWS, 2))
    machines = np.sort(rng.integers(0, 3, size=len(rows)))
    spec = ExtendSpec(ext=(0, 1), out_schema=(0, 1, 2), new_vertex=2,
                      candidate_gt=(0,))
    return g, _context(g, 3, 2, "lrbu", 400, None, 12), machines, rows, spec


#: seconds a :func:`_child` may run before its process group is killed
CHILD_TIMEOUT = 120


def _child(code: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter at the
    repository's root; a failed exit raises ``CalledProcessError``.  The
    child leads a process group of its own, killed whole after
    :data:`CHILD_TIMEOUT` seconds before the pipes are read — a process
    it forked would hold them open — and ``TimeoutExpired`` raised with
    what the group wrote."""
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(root / "src"), str(root))))
    with subprocess.Popen([sys.executable, "-c", code], env=env, cwd=root,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, start_new_session=True) as child:
        try:
            out, err = child.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            raise subprocess.TimeoutExpired(child.args, CHILD_TIMEOUT,
                                            *child.communicate()) from None
    if child.returncode:
        raise subprocess.CalledProcessError(child.returncode, child.args,
                                            out, err)
    return out


def test_a_hung_child_is_killed_with_its_group(monkeypatch):
    """A child that forks a sleeping process and then sleeps itself: past
    a shrunk timeout the whole group is killed, the pipes its fork held
    open are read to their end, and ``TimeoutExpired`` comes within
    seconds, leaving the fork no longer running."""
    monkeypatch.setattr(sys.modules[__name__], "CHILD_TIMEOUT", 2)
    t0 = time.monotonic()
    with pytest.raises(subprocess.TimeoutExpired) as timed_out:
        _child("import os, time\n"
               "pid = os.fork()\n"
               "if not pid:\n"
               "    time.sleep(600)\n"
               "    os._exit(0)\n"
               "print(pid, flush=True)\n"
               "time.sleep(600)\n")
    assert time.monotonic() - t0 < 30
    fork = int(timed_out.value.output)
    # killed, the fork is a zombie until whoever adopted it reaps it
    deadline = time.monotonic() + 10
    while _running(fork) and time.monotonic() < deadline:
        time.sleep(0.05)
    assert not _running(fork)


def _running(pid: int) -> bool:
    """Whether ``pid`` is a process that has not exited (a zombie has)."""
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1]
    except OSError:
        return False
    return state.split()[0] != "Z"


def _report() -> bytes:
    """What :func:`_threaded_step`, counted and stealing, reports through
    :meth:`LRBUCache.pull_extend` — ticks, counts, totals, fetched,
    pulls — then the cache's arrays and the graph's searched probes, as
    bytes."""
    g, ctx, machines, rows, spec = _threaded_step()
    cache = ctx.cache
    cache.cover(3, g.num_vertices)
    _, *report, _ = cache.pull_extend(ctx.cluster, machines, rows, spec,
                                      None, True, True)
    return b"".join(np.asarray(a).tobytes() for a in (
        *report, cache._entry, cache._order, cache._queue, cache._stamps,
        cache._queue_state, g._probes))


class TestStepRefusals:
    """``kernels.pull_extend_step`` refuses, before it writes anything, a
    machine past the cluster, a vertex outside the graph, a position
    outside the row and buffers too short for the step."""

    @staticmethod
    def _call(ctx, rows, machines, out_rows=None, pins=None, batches=None,
              ext=(0, 1), verify=-1, lt=(), gt=()):
        cluster, cache = ctx.cluster, ctx.cache
        k, workers = cluster.num_machines, cluster.workers_per_machine
        cache.cover(k, cluster.pgraph.graph.num_vertices)
        n = len(rows)
        if batches is None:
            batches = 1 + int(np.count_nonzero(machines[1:] != machines[:-1]))
        out = None if out_rows is None else np.zeros((out_rows, 3), np.int64)
        pins = np.zeros(4 * n, np.int64) if pins is None else pins
        return kernels.pull_extend_step(
            cluster.pgraph.graph, cluster.pgraph.owner, k, rows, machines,
            ext, verify, lt, gt, None, None, cluster.probe_ticks,
            (1, 1, 0, 0, 1, 1),
            (None, cache._entry, cache._order, cache._queue, cache._stamps,
             cache._queue_state, pins, 0), workers, True, out, batches)

    def test_refusals_leave_the_cache_untouched(self):
        g = gen.erdos_renyi(30, 0.3, seed=1)
        ctx = _context(g, 2, 2, "lrbu", 20, None, 1)
        rows = np.array([[3, 4], [5, 6]])
        ok = np.zeros(2, dtype=np.int64)
        ctx.cache._grow_queue(rows.size)      # room for the accepted steps
        assert self._call(ctx, rows, ok)[0] == 0
        assert self._call(ctx, rows, ok, ext=(0,), verify=1)[0] == 0
        before = _cache_state(ctx.cache, 2)
        cases = [
            dict(rows=rows, machines=np.array([0, 2])),          # machine ≥ k
            dict(rows=rows, machines=np.array([0, -1])),
            dict(rows=rows * [1, -1], machines=ok),             # negative id
            dict(rows=rows + [0, 30], machines=ok),             # past |V|
            dict(rows=rows, machines=ok, pins=np.zeros(7, np.int64)),
            dict(rows=rows, machines=ok, out_rows=0),           # short block
            dict(rows=rows, machines=np.array([0, 1]), batches=1),
            dict(rows=rows, machines=ok, ext=(0, 2)),           # past the row
            dict(rows=rows, machines=ok, ext=(-1,)),
            dict(rows=rows, machines=ok, lt=(2,)),
            dict(rows=rows, machines=ok, lt=(-1,)),
            dict(rows=rows, machines=ok, gt=(2,)),
            dict(rows=rows, machines=ok, gt=(-1,)),
            dict(rows=rows, machines=ok, ext=(0,), verify=2),
            dict(rows=rows, machines=ok, ext=(0,), verify=-2),
            dict(rows=rows * [1, -1], machines=ok, ext=(0,), verify=1),
            dict(rows=rows + [0, 30], machines=ok, ext=(0,), verify=1),
        ]
        # a step of threaded size whose last row leaves the graph
        big = np.tile(rows, (THREAD_ROWS, 1))
        big[-1, 1] = 30
        cases.append(dict(rows=big, machines=np.zeros(len(big), np.int64)))
        for case in cases:
            with pytest.raises(ValueError):
                self._call(ctx, **case)
            assert _cache_state(ctx.cache, 2) == before
        with pytest.raises(ValueError):     # a VERIFY keeps width columns
            self._call(ctx, rows, ok, out_rows=2, ext=(0,), verify=1)
