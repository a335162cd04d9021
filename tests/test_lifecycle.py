"""The serving tier's one task lifecycle, driven through a fake executor.

Every cell of (task kind × outcome) goes through the real dispatcher,
worker pool and :class:`repro.serve.lifecycle.Lifecycle`; only the
engine is replaced (at the ``Executor`` seam) by a scripted fake, so an
outcome is *caused*, not waited for: runs block on events the test
releases, never on sleeps.  Each cell is checked against the serving
invariants — admission ledger back to 0, every tenant count 0, no
dispatch unit held, exactly one terminal per handle, no delivery
violation — and against one grammar for the per-request event sequence.
"""

from __future__ import annotations

import json
import re
import threading
from collections import Counter, defaultdict
from types import SimpleNamespace

import pytest

from repro.__main__ import main
from repro.cluster.errors import QueryCancelledError
from repro.graph import generators as gen
from repro.serve import (QueryRequest, QueryService, QueryStatus,
                         SubscribeRequest, WorkerCrashError)
from repro.serve import service as service_module
from repro.serve.events import EVENT_KINDS
from repro.testing import check_service_run

WAIT = 20.0  # upper bound on any single wait; never a pacing delay

#: one request's event sequence: submitted, then any number of crashed
#: attempts, then at most one attempt that ends it — exactly one terminal
_ATTEMPT = r"dispatched (share_group )?executing "
QUERY_GRAMMAR = re.compile(
    r"^submitted (rejected )?"
    rf"(queued ({_ATTEMPT}crash retry_scheduled )*"
    rf"({_ATTEMPT}(crash |(planned executed (streamed )?)?))?)?"
    r"finished $")
SUBSCRIPTION_GRAMMAR = re.compile(
    r"^subscribed (bootstrapped delivered )?"
    r"(executing (crash )?delta_batch delivered )*unsubscribed $")


class Script:
    """What the fake engine does per request tag, and the events the
    test uses to observe / release it."""

    def __init__(self, how: dict[str, str]):
        self.how = how
        self.calls: Counter = Counter()
        self.started = defaultdict(threading.Event)
        self.release = defaultdict(threading.Event)
        self.lock = threading.Lock()


class FakeExecutor:
    """Drop-in for ``Executor``: scripted by the leader's tag."""

    def __init__(self, script: Script):
        self.script = script

    def execute(self, reqs, graph, patterns, plan_keys=None, token=None):
        s, tag = self.script, reqs[0].tag
        with s.lock:
            for req in reqs:
                s.calls[req.tag] += 1
            attempt = s.calls[tag]
        how = s.how.get(tag, "ok")
        s.started[tag].set()
        if how == "hold":
            # the engine's own shape: poll the token between rounds
            while not s.release[tag].wait(0.002):
                if token.cancelled:
                    raise QueryCancelledError(token.reason)
        if how == "fail":
            raise ValueError("boom")
        if how == "crash_always" or (how == "crash_once" and attempt == 1):
            raise WorkerCrashError("scripted crash")
        return [(SimpleNamespace(count=7, matches=None,
                                 report=SimpleNamespace(total_time_s=0.0)),
                 {"canonical_key": "k", "plan_cache_hit": True,
                  "plan_s": 0.0, "execute_s": 0.0}) for _ in reqs]


@pytest.fixture
def graph():
    return gen.erdos_renyi(24, 0.3, seed=5)


def make_service(monkeypatch, graph, script, **kwargs):
    monkeypatch.setattr(service_module._Worker, "_make_executor",
                        lambda self, service: FakeExecutor(script))
    svc = QueryService(datasets={"g": graph}, num_workers=1,
                       memory_budget_bytes=1e15, max_retries=1,
                       backoff_base_s=0.001, **kwargs)
    log: list[tuple[str, int | None]] = []
    svc.events.add(lambda kind, seq, fields: log.append((kind, seq)))
    return svc.start(), log


def request(tag: str) -> QueryRequest:
    return QueryRequest(pattern="triangle", dataset="g", num_machines=2,
                        workers_per_machine=2, tag=tag)


def sequence(log, seq) -> str:
    return "".join(f"{kind} " for kind, s in log if s == seq)


def check_invariants(svc, log, handles=(), subs=()):
    """The serving oracles plus the lifecycle's own tables, post-stop."""
    requests = [h.request for h in handles]
    outcomes = [h.result(timeout=WAIT) for h in handles]
    assert check_service_run(svc, requests, outcomes, None,
                             check_solo=False) == []
    life = svc.lifecycle
    assert svc.admission.reserved_bytes == 0.0
    assert not life.inflight
    assert all(n == 0 for n in life._tenant_inflight.values())
    assert life.units == 0
    for h in handles:
        assert h.done and h.delivery_violations == 0
        assert QUERY_GRAMMAR.match(sequence(log, h.request.seq)), \
            sequence(log, h.request.seq)
    for sub in subs:
        assert sub.delivery_violations == 0
        assert SUBSCRIPTION_GRAMMAR.match(sequence(log, sub.seq)), \
            sequence(log, sub.seq)
    assert {kind for kind, _ in log} <= set(EVENT_KINDS)
    return outcomes


#: outcome -> (what the fake does for the targets, what the test does
#: once they are queued behind the blocker, expected status per target)
C, X, F = (QueryStatus.COMPLETED, QueryStatus.CANCELLED, QueryStatus.FAILED)
QUERY_CELLS = {
    "completed": ("ok", None, lambda n: [C] * n),
    "cancelled-while-queued": ("ok", "cancel-last-queued",
                               lambda n: [C] * (n - 1) + [X]),
    "cancelled-mid-run": ("hold", "cancel-run", lambda n: [X] * n),
    "failed": ("fail", None, lambda n: [F] * n),
    "crashed-then-retried": ("crash_once", None, lambda n: [C] * n),
    "crashed-past-max-retries": ("crash_always", None, lambda n: [F] * n),
    "one-member-cancelled": ("hold", "cancel-last-running",
                             lambda n: [C] * (n - 1) + [X]),
}


@pytest.mark.parametrize("size,outcome", [
    pytest.param(size, outcome, id=f"{kind}-{outcome}")
    for size, kind in ((1, "solo"), (3, "group-of-3"))
    for outcome in QUERY_CELLS
    # a group of one has no other member to spare
    if (size, outcome) != (1, "one-member-cancelled")])
def test_query_task(monkeypatch, graph, size, outcome):
    how, action, expected = QUERY_CELLS[outcome]
    tags = [f"t{i}" for i in range(size)]
    script = Script({"blocker": "hold", **{t: how for t in tags}})
    svc, log = make_service(monkeypatch, graph, script, sharing=size > 1)
    try:
        # the blocker owns the only worker, so the targets are all queued
        # when it is released — and dispatch together as one group
        blocker = svc.submit(request("blocker"))
        assert script.started["blocker"].wait(WAIT)
        handles = [svc.submit(request(t)) for t in tags]
        if action == "cancel-last-queued":
            handles[-1].cancel("changed my mind")
        script.release["blocker"].set()
        if action in ("cancel-run", "cancel-last-running"):
            assert script.started[tags[0]].wait(WAIT)
            if action == "cancel-last-running":
                handles[-1].cancel("changed my mind")
                script.release[tags[0]].set()
            elif size == 1:
                handles[0].cancel("changed my mind")
            else:  # only a shutdown aborts a whole group's run
                svc.stop(drain=False)
        for h in [blocker, *handles]:
            assert h.wait(WAIT)
    finally:
        svc.stop()
    outcomes = check_invariants(svc, log, [blocker, *handles])[1:]
    assert [o.status for o in outcomes] == expected(size)
    if size > 1:
        # the targets really were dispatched as one task: even with the
        # last one cancelled while queued, the other two form a group
        assert "share_group" in sequence(log, handles[0].request.seq)
        if how in ("ok", "hold", "fail") and action != "cancel-last-queued":
            assert all(o.shared_group == size for o in outcomes)
    if outcome == "crashed-then-retried":
        assert all(o.attempts == 2 for o in outcomes)
        assert svc.stats().retries == size
    if outcome == "crashed-past-max-retries":
        assert all(o.attempts == 2 and "crashed" in o.error
                   for o in outcomes)


@pytest.mark.parametrize("outcome", ["completed", "failed", "crashed"])
def test_delta_task(monkeypatch, graph, outcome):
    svc, log = make_service(monkeypatch, graph, Script({}))
    try:
        sub = svc.subscribe(SubscribeRequest(pattern="triangle",
                                             dataset="g", bootstrap=True))
        assert sub.poll(timeout=WAIT) is not None
        if outcome != "completed":
            error = (ValueError("boom") if outcome == "failed"
                     else WorkerCrashError("scripted crash"))

            def broken(graph, edges):
                raise error

            monkeypatch.setattr(sub.enumerator, "delta_matches", broken)
        edge = sorted(graph.edges())[0]
        report = svc.apply_updates("g", deletes=[edge], timeout=WAIT)
        batch = sub.poll(timeout=WAIT)
        svc.unsubscribe(sub)
    finally:
        svc.stop()
    check_invariants(svc, log, subs=[sub])
    assert not report.timed_out and report.batches == (batch,)
    assert batch.seq == 1
    if outcome == "completed":
        assert batch.error is None
    else:
        assert ("boom" if outcome == "failed" else "crashed") in batch.error
        assert batch.additions == batch.retractions == ()
        assert svc.stream_stats()["stream_errors"] == 1
    assert svc.stats().worker_crashes == (outcome == "crashed")


def test_rejected_enters_at_deliver(monkeypatch, graph):
    svc, log = make_service(monkeypatch, graph, Script({}))
    svc.admission.budget_bytes = 1.0
    try:
        handle = svc.submit(request("big"))
        assert handle.result(timeout=WAIT).status is QueryStatus.REJECTED
    finally:
        svc.stop()
    check_invariants(svc, log, [handle])
    assert sequence(log, handle.request.seq) == \
        "submitted rejected finished "


def test_finished_entry_is_not_cyclic_garbage(monkeypatch, graph):
    """An entry pins its graph snapshot; once delivered it must die with
    its last outside reference, not wait for the cyclic collector
    (handle → entry → group → entry are all cut at deliver)."""
    import gc
    import time
    import weakref

    script = Script({})
    svc, log = make_service(monkeypatch, graph, script)
    snapshot = gen.erdos_renyi(24, 0.3, seed=6)
    pinned = weakref.ref(snapshot._indptr)  # Graph has no __weakref__
    svc.register_dataset("h", snapshot)
    gc.collect()
    gc.disable()
    try:
        handle = svc.submit(QueryRequest(pattern="triangle", dataset="h",
                                         tag="t"))
        assert handle.result(timeout=WAIT).status is C
        svc.register_dataset("h", graph)  # supersede the snapshot
        del snapshot
        # the worker drops the task just after delivering it
        deadline = time.monotonic() + WAIT
        while pinned() is not None and time.monotonic() < deadline:
            time.sleep(0.01)
        assert pinned() is None
    finally:
        gc.enable()
        svc.stop()


def test_invariants_hold_under_contention(monkeypatch, graph):
    """More workers and submitters than cores, a shortened switch
    interval: a lost update to the in-flight / tenant tables or the
    ledger would break the drained-state invariants, and the totally
    ordered event stream must never show a tenant over its cap."""
    import sys

    monkeypatch.setattr(service_module._Worker, "_make_executor",
                        lambda self, service: FakeExecutor(Script({})))
    svc = QueryService(datasets={"g": graph}, num_workers=8,
                       memory_budget_bytes=1e15, tenant_max_inflight=2)
    log, held, over_cap = [], Counter(), []
    tenant_of = {}

    def sink(kind, seq, fields):
        log.append((kind, seq))
        if kind == "dispatched":
            tenant_of[seq] = fields["tenant"]
            held[fields["tenant"]] += 1
            over_cap.append(held[fields["tenant"]] > 2)
        elif kind == "finished" and seq in tenant_of:
            held[tenant_of.pop(seq)] -= 1

    svc.events.add(sink)
    handles, lock = [], threading.Lock()

    def submitter(tenant):
        for i in range(40):
            req = request(f"{tenant}{i}")
            req.tenant = tenant
            h = svc.submit(req)
            with lock:
                handles.append(h)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        svc.start()
        threads = [threading.Thread(target=submitter, args=(t,))
                   for t in "abcd"]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=WAIT)
            assert not t.is_alive()
        for h in handles:
            assert h.wait(WAIT)
    finally:
        sys.setswitchinterval(interval)
        svc.stop()
    outcomes = check_invariants(svc, log, handles)
    assert len(outcomes) == 160 and all(o.status is C for o in outcomes)
    assert not any(over_cap)


# -- the observable surface -----------------------------------------------------

#: captured at the parent of the lifecycle/event-stream PR from
#: ``serve --data GO --smoke --seed 1 --metrics --trace``: metric sample
#: names + label names and trace span-name prefixes / counter names.
#: Since ``stats()`` became a read of the registry, three counters it
#: needs joined the metrics: delivery violations, subscriptions
#: registered and errored batches
SURFACE_METRICS = [
    ("repro_serve_admission_total", ("decision", "reason")),
    ("repro_serve_completed_total", ("tenant",)),
    ("repro_serve_deadline_missed_total", ()),
    ("repro_serve_delivery_violations_total", ()),
    ("repro_serve_execute_seconds_bucket", ("le",)),
    ("repro_serve_execute_seconds_count", ()),
    ("repro_serve_execute_seconds_sum", ()),
    ("repro_serve_inflight", ()),
    ("repro_serve_latency_seconds_bucket", ("le",)),
    ("repro_serve_latency_seconds_count", ()),
    ("repro_serve_latency_seconds_sum", ()),
    ("repro_serve_plan_cache_total", ("result",)),
    ("repro_serve_queue_depth", ("priority",)),
    ("repro_serve_queue_wait_seconds_bucket", ("le",)),
    ("repro_serve_queue_wait_seconds_count", ()),
    ("repro_serve_queue_wait_seconds_sum", ()),
    ("repro_serve_requests_total", ("status",)),
    ("repro_serve_reserved_bytes", ()),
    ("repro_serve_share_group_size_bucket", ("le",)),
    ("repro_serve_share_group_size_count", ()),
    ("repro_serve_share_group_size_sum", ()),
    ("repro_serve_submitted_total", ("tenant",)),
    ("repro_stream_batch_errors_total", ()),
    ("repro_stream_batch_latency_seconds_bucket", ("le",)),
    ("repro_stream_batch_latency_seconds_count", ()),
    ("repro_stream_batch_latency_seconds_sum", ()),
    ("repro_stream_subscribed_total", ()),
    ("repro_stream_subscriptions", ()),
]
SURFACE_TRACE = [("C", "queue depth"), ("C", "reserved MB"),
                 ("X", "execute"), ("X", "plan"), ("X", "queue")]


def test_serve_smoke_surface_is_pinned(tmp_path, capsys):
    prom, trace = tmp_path / "m.prom", tmp_path / "t.json"
    assert main(["serve", "--data", "GO", "--smoke", "--seed", "1",
                 "--metrics", str(prom), "--trace", str(trace)]) == 0
    capsys.readouterr()

    metrics = set()
    for line in prom.read_text().splitlines():
        if line and not line.startswith("#"):
            name, _, labels = line.split(" ")[0].partition("{")
            metrics.add((name, tuple(sorted(
                kv.split("=")[0] for kv in labels.rstrip("}").split(",")
                if kv))))
    assert sorted(metrics) == SURFACE_METRICS

    events = json.loads(trace.read_text())["traceEvents"]
    assert sorted({(e["ph"], e["name"].split()[0] if e["ph"] == "X"
                    else e["name"])
                   for e in events if e["ph"] in "XiC"}) == SURFACE_TRACE


#: ``stream --data GO --smoke --seed 1 --trace``: the serve surface's
#: spans and counters (the verifying queries), plus one instant per graph
#: update and per subscription transition, each with its ``seq``
SURFACE_STREAM_INSTANTS = {
    "delta batch": ["additions", "deleted", "error", "inserted",
                    "latency_s", "retractions", "seq", "version"],
    "graph update": ["dataset", "deleted", "inserted", "subscriptions",
                     "version"],
    "subscribed": ["dataset", "pattern", "seq"],
    "unsubscribed": ["batches", "count", "seq"],
}


def test_stream_smoke_surface_is_pinned(tmp_path, capsys):
    trace = tmp_path / "t.json"
    assert main(["stream", "--data", "GO", "--smoke", "--seed", "1",
                 "--trace", str(trace)]) == 0
    capsys.readouterr()

    events = json.loads(trace.read_text())["traceEvents"]
    assert sorted({(e["ph"], e["name"].split()[0] if e["ph"] == "X"
                    else e["name"])
                   for e in events if e["ph"] in "XC"}) == SURFACE_TRACE
    instants: dict[str, set] = {}
    for e in events:
        if e["ph"] == "i":
            instants.setdefault(e["name"], set()).update(e["args"])
    assert ({k: sorted(v) for k, v in instants.items()}
            == SURFACE_STREAM_INSTANTS)
    subs = [e["args"]["seq"] for e in events
            if e["ph"] == "i" and e["name"] == "subscribed"]
    assert len(subs) == 2     # triangle and q1, each followed to the end
    for seq in subs:
        mine = [e["name"] for e in events
                if e["ph"] == "i" and e["args"].get("seq") == seq]
        assert mine[0] == "subscribed" and mine[-1] == "unsubscribed"
        assert mine.count("delta batch") == 3   # 20 updates, 8 a batch
