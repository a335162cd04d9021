"""Tests for the labelled metrics registry (repro.obs.metrics): family
semantics, Prometheus text exposition, the self-contained exposition
checker, log-scaled buckets, reservoir determinism, and thread safety."""

from __future__ import annotations

import json
import math
import threading

import pytest

from repro.obs import (DEFAULT_SIZE_BUCKETS, DEFAULT_TIME_BUCKETS, Counter,
                       Histogram, MetricsRegistry, check_exposition,
                       log_buckets)


class TestLogBuckets:
    def test_spans_requested_range(self):
        bs = log_buckets(1e-6, 1e3, per_decade=3)
        assert bs[0] == 1e-6
        assert bs[-1] >= 1e3
        assert list(bs) == sorted(bs)

    def test_three_per_decade(self):
        bs = log_buckets(1.0, 1000.0, per_decade=3)
        # exactly 3 bounds per decade: 1, ~2.15, ~4.64, 10, ...
        assert len([b for b in bs if b <= 10.0]) == 4

    def test_deterministic_across_calls(self):
        assert log_buckets(1e-6, 1e3) == log_buckets(1e-6, 1e3)

    def test_defaults_cover_engine_scales(self):
        assert DEFAULT_TIME_BUCKETS[0] == 1e-6
        assert DEFAULT_TIME_BUCKETS[-1] >= 1e3
        assert DEFAULT_SIZE_BUCKETS[0] == 1.0
        assert DEFAULT_SIZE_BUCKETS[-1] >= 1e9

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 10.0)
        with pytest.raises(ValueError):
            log_buckets(10.0, 1.0)


class TestRegistrySemantics:
    def test_namespace_prefix(self):
        reg = MetricsRegistry(namespace="x")
        c = reg.counter("events_total", "help")
        assert c.name == "x_events_total"

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

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad-name")
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("bad-label",))
        with pytest.raises(ValueError):
            reg.counter("ok_total", labelnames=("__reserved",))

    def test_time_base_validated_and_surfaced(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="time_base"):
            reg.histogram("h_seconds", time_base="lunar")
        h = reg.histogram("h_seconds", "engine time", time_base="sim")
        h.observe(0.5)
        text = reg.expose()
        assert "[sim clock]" in text
        snap = reg.snapshot()
        assert snap["repro_h_seconds"]["time_base"] == "sim"


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


class TestHistogram:
    def test_bucket_counts_cumulative_in_exposition(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        text = reg.expose()
        assert 'repro_h_bucket{le="1"} 1' in text
        assert 'repro_h_bucket{le="10"} 2' in text
        assert 'repro_h_bucket{le="100"} 3' in text
        assert 'repro_h_bucket{le="+Inf"} 4' in text
        assert "repro_h_count 4" in text
        assert "repro_h_sum 555.5" in text

    def test_boundary_value_lands_in_its_bucket(self):
        # le is inclusive: an observation equal to a bound counts there
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 10.0))
        h.observe(1.0)
        assert 'repro_h_bucket{le="1"} 1' in reg.expose()

    def test_buckets_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            Histogram("h", buckets=(1.0, 1.0, 2.0))

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
        """Both paths — exact from the reservoir and interpolated from
        the buckets — refuse a percentile rank outside [0, 100]."""
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0), reservoir=reservoir)
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

    def test_percentile_interpolates_from_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", buckets=(1.0, 2.0, 4.0))  # no reservoir
        for v in (0.5, 1.5, 3.0, 3.5):
            h.observe(v)
        p = h.percentile(50)
        assert 1.0 <= p <= 2.0
        assert h.percentile(100) >= 2.0
        assert h.percentile(0) == 0.0

    def test_empty_percentile_is_zero(self):
        reg = MetricsRegistry()
        h = reg.histogram("h")
        assert h.percentile(50) == 0.0


class TestExposition:
    def _populated(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        c = reg.counter("ops_total", "operations", ("op", "result"))
        c.inc_child(c.labels("scan", "ok"), 3)
        c.inc_child(c.labels("join", "err"))
        reg.gauge("depth", "queue depth").set(7)
        h = reg.histogram("lat_seconds", "latency", time_base="wall",
                          reservoir=8)
        for v in (0.001, 0.01, 0.1):
            h.observe(v)
        return reg

    def test_own_output_passes_checker(self):
        assert check_exposition(self._populated().expose()) == []

    def test_help_and_type_lines_present(self):
        text = self._populated().expose()
        assert "# HELP repro_ops_total operations" in text
        assert "# TYPE repro_ops_total counter" in text
        assert "# TYPE repro_depth gauge" in text
        assert "# TYPE repro_lat_seconds histogram" in text

    def test_label_escaping(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", labelnames=("k",))
        c.inc_child(c.labels('we"ird\\va\nlue'))
        text = reg.expose()
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert check_exposition(text) == []

    def test_json_snapshot_round_trips(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "m.json"
        reg.save_json(str(path))
        snap = json.loads(path.read_text())
        assert snap["repro_ops_total"]["type"] == "counter"
        labels = [s["labels"] for s in snap["repro_ops_total"]["samples"]]
        assert {"op": "scan", "result": "ok"} in labels
        hist = snap["repro_lat_seconds"]["samples"][0]
        assert hist["count"] == 3
        assert sum(hist["buckets"]) == 3

    def test_exposition_sorted_and_stable(self):
        a, b = self._populated(), self._populated()
        assert a.expose() == b.expose()


class TestChecker:
    def test_rejects_sample_before_type(self):
        errs = check_exposition("foo_total 3\n# TYPE foo_total counter\n")
        assert any("precedes its TYPE" in e for e in errs)

    def test_rejects_negative_counter(self):
        errs = check_exposition("# TYPE c_total counter\nc_total -1\n")
        assert any("counter" in e for e in errs)

    def test_rejects_bad_value(self):
        errs = check_exposition("# TYPE g gauge\ng not_a_number\n")
        assert any("bad sample value" in e for e in errs)

    def test_rejects_malformed_labels(self):
        errs = check_exposition('# TYPE g gauge\ng{k="unterminated} 1\n')
        assert errs

    def test_rejects_non_cumulative_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="2"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 4\nh_count 5\n")
        errs = check_exposition(text)
        assert any("cumulative" in e for e in errs)

    def test_rejects_missing_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                "h_sum 4\nh_count 5\n")
        errs = check_exposition(text)
        assert any("+Inf" in e for e in errs)

    def test_rejects_inf_bucket_count_mismatch(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="1"} 5\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 4\nh_count 6\n")
        errs = check_exposition(text)
        assert any("_count" in e for e in errs)

    def test_rejects_unknown_type(self):
        errs = check_exposition("# TYPE x flavour\n")
        assert any("unknown metric type" in e for e in errs)

    def test_accepts_inf_and_nan_values(self):
        errs = check_exposition("# TYPE g gauge\n# TYPE g2 gauge\n"
                                "g +Inf\ng2 NaN\n")
        assert errs == []


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
        assert check_exposition(reg.expose()) == []


class TestFormatting:
    def test_integral_floats_render_as_ints(self):
        from repro.obs.metrics import _fmt

        assert _fmt(3.0) == "3"
        assert _fmt(3.5) == "3.5"
        assert _fmt(math.inf) == "+Inf"
        assert _fmt(-math.inf) == "-Inf"
        assert _fmt(float("nan")) == "NaN"
