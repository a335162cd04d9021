"""Tests for the labelled metrics registry (repro.obs.metrics): family
semantics, reads that create nothing, the JSON snapshot, reservoir
determinism, and thread safety."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs import MetricsRegistry


class TestRegistrySemantics:
    def test_get_or_create_returns_same_family(self):
        reg = MetricsRegistry()
        a = reg.counter("dup_total", "h", ("k",))
        b = reg.counter("dup_total", "h", ("k",))
        assert a is b

    def test_type_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("thing_total")

    def test_label_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("thing_total", labelnames=("a",))
        with pytest.raises(ValueError, match="already registered"):
            reg.counter("thing_total", labelnames=("b",))

class TestCounterGauge:
    def test_counter_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError, match="only go up"):
            c.inc(-1)

    def test_labelled_counter_children_independent(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("tenant",))
        c.labels("a").value  # creation only
        c.inc_child(c.labels("a"), 2)
        c.inc_child(c.labels(tenant="b"))
        assert c.get("a") == 2
        assert c.get("b") == 1

    def test_unlabelled_access_on_labelled_family_raises(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("k",))
        with pytest.raises(ValueError, match="labelled"):
            c.inc()

    def test_gauge_up_down(self):
        reg = MetricsRegistry()
        g = reg.gauge("g")
        g.set(5)
        g.dec(2)
        assert g.value == 3
        g.inc(0.5)
        assert g.value == 3.5


class TestReads:
    """Reading a registry leaves it as it was: ``stats()`` reads the
    service's registry, and a read that created a child would put a
    zero sample into the next snapshot."""

    def test_reads_create_no_children(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("tenant",))
        g = reg.gauge("g", labelnames=("priority",))
        h = reg.histogram("h_seconds", labelnames=("op",))
        c.inc_child(c.labels("a"), 2)
        before = reg.snapshot()
        assert c.get("ghost") == 0.0
        assert c.get(tenant="ghost") == 0.0
        assert g.get("ghost") == 0.0
        assert h.percentile(50, "ghost") == 0.0
        assert c.total(tenant="ghost") == 0.0
        assert c.get("a") == 2
        assert reg.snapshot() == before
        assert [s["labels"] for s in before["c_total"]["samples"]] == [
            {"tenant": "a"}]
        assert before["g"]["samples"] == before["h_seconds"]["samples"] == []

    def test_total_names_the_family_on_a_mistyped_label(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("tenant",))
        with pytest.raises(ValueError,
                           match=r"c_total has no label \['tenat'\].*"
                                 r"\('tenant',\)"):
            c.total(tenat="a")


class TestSnapshot:
    def test_json_snapshot_round_trips(self):
        """The registry's one export: per family its type, help and one
        sample per child; a histogram sample is its count and sum."""
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations", ("op", "result"))
        c.inc_child(c.labels("scan", "ok"), 3)
        reg.gauge("depth", "queue depth").set(7)
        h = reg.histogram("lat_seconds", "latency")
        for v in (0.5, 0.25):
            h.observe(v)
        snap = json.loads(json.dumps(reg.snapshot()))
        assert list(snap) == ["depth", "lat_seconds", "ops_total"]
        assert snap["ops_total"] == {
            "type": "counter", "help": "operations",
            "samples": [{"labels": {"op": "scan", "result": "ok"},
                         "value": 3.0}]}
        assert snap["depth"]["samples"] == [{"labels": {}, "value": 7.0}]
        assert snap["lat_seconds"]["samples"] == [
            {"labels": {}, "count": 2, "sum": 0.75}]


class TestHistogram:
    def test_reservoir_round_robin_deterministic(self):
        """Stream sample i lands in slot i % cap, so retention (and hence
        the service's latency summaries) is reproducible."""
        reg = MetricsRegistry()
        h = reg.histogram("h", reservoir=4)
        for v in range(10):
            h.observe(float(v))
        child = h._default()
        # replay the policy by hand
        expect = [None] * 4
        for i in range(10):
            expect[i % 4] = float(i)
        assert child.samples == expect
        assert child.count == 10

    def test_reservoir_overwrites_the_oldest_sample_first(self):
        """Once full, the fifth sample replaces the first, not the
        second (a write to slot ``count % cap`` after counting it kept
        the oldest sample and dropped the second: [0, 4, 2, 3])."""
        reg = MetricsRegistry()
        h = reg.histogram("h", reservoir=4)
        for v in range(5):
            h.observe(float(v))
        assert h._default().samples == [4.0, 1.0, 2.0, 3.0]

    @pytest.mark.parametrize("reservoir", [0, 8])
    @pytest.mark.parametrize("q", [-1.0, 100.5])
    def test_percentile_rejects_q_outside_0_100(self, reservoir, q):
        """With a reservoir or without one, a percentile rank outside
        [0, 100] is refused before anything is read."""
        reg = MetricsRegistry()
        h = reg.histogram("h", reservoir=reservoir)
        h.observe(1.5)
        with pytest.raises(ValueError, match=r"\[0, 100\]"):
            h.percentile(q)

    def test_percentile_exact_from_reservoir(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", reservoir=100)
        for v in (1.0, 2.0, 3.0, 4.0):
            h.observe(v)
        assert h.percentile(0) == 1.0
        assert h.percentile(100) == 4.0
        assert h.percentile(50) == 2.5

    def test_empty_percentile_is_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.percentile(50) == 0.0


class TestThreadSafety:
    def test_concurrent_increments_all_land(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("t",))
        h = reg.histogram("h", reservoir=64)
        n, threads = 500, 8

        def work(tid: int) -> None:
            child = c.labels(str(tid % 2))
            for i in range(n):
                c.inc_child(child)
                h.observe(float(i))

        ts = [threading.Thread(target=work, args=(i,)) for i in range(threads)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert c.get("0") + c.get("1") == n * threads
        assert h.count == n * threads
        samples = reg.snapshot()["c_total"]["samples"]
        assert sum(s["value"] for s in samples) == n * threads
