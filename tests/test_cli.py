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

    def test_query_cypher(self, capsys):
        main(["query", "--data", "GO", "--machines", "2", "--cypher",
              "MATCH (a)--(b)--(c), (c)--(a) RETURN count(*)"])
        out = capsys.readouterr().out
        assert "matches:" in out

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

    def test_query_trace_rejected_with_cypher(self, capsys):
        assert main(["query", "--data", "GO", "--cypher",
                     "MATCH (a)--(b) RETURN count(*)",
                     "--trace", "t.json"]) == 2
        assert "not supported" in capsys.readouterr().err

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
    def test_dump_passes_own_checker(self, capsys):
        from repro.obs import check_exposition

        assert main(["metrics", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2"]) == 0
        out = capsys.readouterr().out
        assert check_exposition(out) == []
        assert "# TYPE repro_engine_matches_total counter" in out

    def test_check_accepts_dump(self, tmp_path, capsys):
        path = tmp_path / "m.prom"
        assert main(["metrics", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2", "--out", str(path)]) == 0
        assert main(["metrics", "--check", str(path)]) == 0
        assert "exposition ok" in capsys.readouterr().out

    def test_check_rejects_malformed(self, tmp_path, capsys):
        path = tmp_path / "bad.prom"
        path.write_text("# TYPE h histogram\n"
                        'h_bucket{le="1"} 5\n'
                        'h_bucket{le="+Inf"} 5\n'
                        "h_sum 1\nh_count 7\n")
        assert main(["metrics", "--check", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().out

    def test_json_snapshot(self, capsys):
        assert main(["metrics", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2", "--json"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["repro_engine_matches_total"]["type"] == "counter"
        assert snap["repro_engine_matches_total"]["samples"][0]["value"] > 0

    def test_query_metrics_flag(self, tmp_path, capsys):
        from repro.obs import check_exposition

        path = tmp_path / "q.prom"
        assert main(["query", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2", "--metrics", str(path)]) == 0
        assert check_exposition(path.read_text()) == []

    def test_query_metrics_json_stdout_stays_parseable(self, tmp_path,
                                                       capsys):
        path = tmp_path / "q.prom"
        assert main(["query", "--data", "GO", "--pattern", "triangle",
                     "--machines", "2", "--json",
                     "--metrics", str(path)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] > 0
        assert path.exists()

    def test_query_metrics_rejected_with_cypher(self, capsys):
        assert main(["query", "--data", "GO", "--cypher",
                     "MATCH (a)--(b) RETURN count(*)",
                     "--metrics", "m.prom"]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_serve_smoke_with_metrics_and_flight(self, tmp_path, capsys):
        from repro.obs import check_exposition

        mpath = tmp_path / "s.prom"
        fpath = tmp_path / "f.jsonl"
        assert main(["serve", "--data", "GO", "--smoke", "--queries", "6",
                     "--machines", "2", "--metrics", str(mpath),
                     "--flight", str(fpath)]) == 0
        out = capsys.readouterr().out
        assert "verify: all completed queries bit-identical" in out
        assert "flight recorder:" in out
        assert check_exposition(mpath.read_text()) == []
        events = [json.loads(ln) for ln in
                  fpath.read_text().splitlines()]
        assert events
        assert all("kind" in e and "seq" in e for e in events)

    def test_census_metrics_flag(self, tmp_path, capsys):
        from repro.obs import check_exposition

        path = tmp_path / "c.prom"
        assert main(["census", "--data", "GO", "--k", "3", "--machines",
                     "2", "--metrics", str(path)]) == 0
        text = path.read_text()
        assert check_exposition(text) == []
        assert "repro_census_subgraphs_total" in text


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

    def test_stream_json_with_metrics_and_flight(self, tmp_path, capsys):
        from repro.obs import check_exposition

        mpath = tmp_path / "st.prom"
        fpath = tmp_path / "st.jsonl"
        assert main(["stream", "--data", "GO", "--updates", "12",
                     "--batch", "4", "--verify", "--json",
                     "--metrics", str(mpath), "--flight", str(fpath)]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["verified"] is True
        assert data["stream_stats"]["stream_errors"] == 0
        assert len(data["reports"]) == data["update_batches"]
        text = mpath.read_text()
        assert check_exposition(text) == []
        assert "stream_updates_total" in text
        assert fpath.exists() and fpath.read_text().strip()
