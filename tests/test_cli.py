"""Tests for the command-line interface (python -m repro)."""

import json

import pytest

from repro.__main__ import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_query_defaults(self):
        args = build_parser().parse_args(["query", "--data", "GO"])
        args.func  # bound
        assert args.pattern == "triangle"
        assert args.machines == 4

    def test_unknown_pattern_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["query", "--data", "GO", "--pattern", "q99"])


class TestCommands:
    def test_query_counts(self, capsys):
        assert main(["query", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "matches:" in out
        assert "simulated time" in out

    def test_query_show_matches(self, capsys):
        main(["query", "--data", "GO", "--pattern", "triangle",
              "--machines", "2", "--show", "2"])
        out = capsys.readouterr().out
        assert out.count("(") >= 2

    def test_query_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n2 3\n")
        main(["query", "--data", str(path), "--pattern", "triangle",
              "--machines", "2"])
        assert "matches: 1" in capsys.readouterr().out

    def test_query_trace_writes_chrome_json(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["query", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2", "--trace", str(path)]) == 0
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        assert any(e["ph"] == "X" for e in data["traceEvents"])
        assert "trace:" in capsys.readouterr().out

    def test_query_json_output_parses(self, capsys):
        assert main(["query", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] > 0
        assert data["report"]["mem_underflows"] == 0

    def test_explain_plain_shows_plan(self, capsys):
        assert main(["explain", "--data", "GO", "--pattern", "q1",
                     "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "ExecutionPlan" in out
        assert "analyze" not in out

    def test_explain_analyze_annotates_actuals(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        assert main(["explain", "--data", "GO", "--pattern", "q1",
                     "--machines", "2", "--analyze",
                     "--trace", str(path)]) == 0
        out = capsys.readouterr().out
        assert "analyze (estimate vs traced run)" in out
        assert "est |R|" in out
        assert "span coverage" in out
        assert json.loads(path.read_text())["traceEvents"]

    def test_explain_analyze_json_reports_q_errors(self, capsys):
        assert main(["explain", "--data", "GO", "--pattern", "q1",
                     "--machines", "2", "--analyze", "--json"]) == 0
        view = json.loads(capsys.readouterr().out)
        errors = [n["q_error"] for n in view["nodes"]
                  if n["q_error"] is not None]
        assert errors and view["max_q_error"] == max(errors) >= 1.0

    def test_plan(self, capsys):
        main(["plan", "--data", "GO", "--pattern", "q1"])
        out = capsys.readouterr().out
        assert "ExecutionPlan" in out
        assert "symmetry order" in out

    def test_datasets(self, capsys):
        main(["datasets"])
        out = capsys.readouterr().out
        for name in ("GO", "LJ", "CW"):
            assert name in out

    def test_motifs(self, capsys):
        main(["motifs", "--data", "GO", "--k", "3", "--machines", "2"])
        out = capsys.readouterr().out
        assert "motif3-0" in out and "motif3-1" in out

    def test_census(self, capsys):
        assert main(["census", "--data", "GO", "--k", "3",
                     "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert "motif3-0" in out and "motif3-1" in out
        assert "simulated time" in out

    def test_census_json_and_trace(self, tmp_path, capsys):
        assert main(["census", "--data", "GO", "--k", "4", "--machines",
                     "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["k"] == 4
        assert sum(data["counts"].values()) == data["total_subgraphs"]
        assert set(data) == {"k", "counts", "class_keys",
                             "total_subgraphs", "report"}
        # a span Trace is one run's timeline; the census is many runs
        with pytest.raises(SystemExit):
            build_parser().parse_args(["census", "--data", "GO", "--trace",
                                       str(tmp_path / "census-trace.json")])

    def test_census_rejects_bad_k(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["census", "--data", "GO",
                                       "--k", "6"])


class TestMetricsCommand:
    def test_serve_smoke_with_metrics(self, capsys):
        assert main(["serve", "--data", "GO", "--smoke", "--queries", "6",
                     "--machines", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verified"] is True
        assert data["metrics"]["repro_serve_latency_seconds"]["samples"] == [
            {"labels": {}, "count": data["service"]["completed"],
             "sum": pytest.approx(data["service"]["latency"]["mean_s"]
                                  * data["service"]["completed"])}]

    @pytest.mark.parametrize("command", [
        ["serve", "--data", "GO", "--smoke", "--queries", "6",
         "--machines", "2", "--tenants", "a,b"],
        ["stream", "--data", "GO", "--smoke", "--updates", "12",
         "--batch", "4"],
    ], ids=["serve", "stream"])
    def test_json_stdout_is_one_document_whose_metrics_match_stats(
            self, command, capsys):
        """``--json`` stdout parses as one JSON document, and its
        ``"metrics"`` snapshot counts what the report's service stats
        count: both are reads of the same registry."""
        assert main([*command, "--seed", "1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        metrics = data["metrics"]

        def total(family, **match):
            samples = metrics[f"repro_{family}"]["samples"]
            return sum(s.get("value", s.get("count")) for s in samples
                       if match.items() <= s["labels"].items())

        if command[0] == "serve":
            stats = data["service"]
            assert stats["completed"] == stats["submitted"] == 6
            stats = {**stats, "hits": stats["plan_cache"]["hits"],
                     "misses": stats["plan_cache"]["misses"]}
            want = {"submitted": total("serve_submitted_total"),
                    "completed": total("serve_requests_total",
                                       status="completed"),
                    "hits": total("serve_plan_cache_total", result="hit"),
                    "misses": total("serve_plan_cache_total",
                                    result="miss")}
            assert total("serve_completed_total") == stats["completed"]
        else:
            stats = data["stream_stats"]
            assert stats["stream_updates"] == data["update_batches"] == 3
            want = {"subscriptions_total": total("stream_subscribed_total"),
                    "stream_updates": total("stream_updates_total"),
                    "stream_batches": total("stream_batch_latency_seconds"),
                    "stream_additions": total("stream_deltas_emitted_total",
                                              sign="+"),
                    "stream_retractions": total(
                        "stream_deltas_emitted_total", sign="-"),
                    "stream_errors": total("stream_batch_errors_total")}
        assert {k: stats[k] for k in want} == want


class TestStreamCommand:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream", "--data", "GO"])
        args.func  # bound
        assert args.updates == 40 and args.batch == 8
        assert args.patterns == "triangle,q1"

    def test_stream_verify_smoke(self, capsys):
        assert main(["stream", "--data", "GO", "--smoke", "--updates", "16",
                     "--batch", "4", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "stream: " in out
        assert "verify: incremental counts bit-identical" in out

    def test_stream_json_with_metrics(self, capsys):
        assert main(["stream", "--data", "GO", "--updates", "12",
                     "--batch", "4", "--verify", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verified"] is True
        assert data["stream_stats"]["stream_errors"] == 0
        assert len(data["reports"]) == data["update_batches"]
        assert data["metrics"]["repro_stream_updates_total"]["samples"] == [
            {"labels": {"dataset": "GO"},
             "value": float(data["update_batches"])}]
