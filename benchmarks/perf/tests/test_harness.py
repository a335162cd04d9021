"""Harness tests for the perf benchmark.

Run explicitly (not part of tier-1's ``testpaths``)::

    PYTHONPATH=src python -m pytest benchmarks/perf/tests -q
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

PERF_DIR = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(PERF_DIR))
sys.path.insert(0, str(PERF_DIR.parent.parent / "src"))

import batch  # noqa: E402
import compare  # noqa: E402
import harness  # noqa: E402
import layers  # noqa: E402
import serve_open  # noqa: E402
import stream_updates  # noqa: E402


# -- the seed drives the inputs ---------------------------------------------

def request_signature(requests):
    return [(r.tag, int(r.priority), r.tenant,
             r.pattern if isinstance(r.pattern, str)
             else tuple(sorted(r.pattern.edges)))
            for r in requests]


def test_same_seed_same_requests_and_schedule():
    a = serve_open.ServeOpenWorkload(seed=3, expected={})
    b = serve_open.ServeOpenWorkload(seed=3, expected={})
    c = serve_open.ServeOpenWorkload(seed=4, expected={})
    for stage in serve_open.STAGES:
        ra, da = a.stage_inputs(stage, 4.0)
        rb, db = b.stage_inputs(stage, 4.0)
        rc, dc = c.stage_inputs(stage, 4.0)
        assert request_signature(ra) == request_signature(rb)
        assert da == db
        assert request_signature(ra) != request_signature(rc)
        assert da != dc
        assert all(x < y for x, y in zip(da, da[1:]))


def test_same_seed_same_update_stream():
    graph = harness.load_graph("LJ", 0.25)

    def stream(seed):
        w = stream_updates.StreamUpdatesWorkload(seed, seconds=2.0)
        s = w.build_stream(graph)
        return sorted(s.base.edges()), [(b.inserts, b.deletes)
                                        for b in s.batches]

    assert stream(5) == stream(5)
    assert stream(5) != stream(6)


# -- the percentile rule -----------------------------------------------------

@pytest.mark.parametrize("n, want", [
    (1000, 99), (200, 95), (132, 90), (100, 90), (99, 80), (60, 80),
    (45, 75), (40, 75), (39, 50), (5, 50),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, want):
    samples = [float(i) for i in range(1, n + 1)]
    q, value = harness.tail_percentile(samples)
    assert q == want
    if q > 50:
        assert sum(1 for s in samples if s > value) >= 10
    for rung in harness.TAIL_LADDER:  # no higher rung qualifies
        if rung > q:
            beyond = sum(1 for s in samples
                         if s > harness.nearest_rank(samples, rung))
            assert beyond < 10


def test_lower_quartile_ignores_one_sided_noise():
    quiet = [1.0, 1.01, 1.02, 1.0, 1.01, 1.0, 1.02, 1.01]
    noisy = quiet[:5] + [1.6, 1.9, 2.4]
    assert harness.lower_quartile(noisy) == pytest.approx(
        harness.lower_quartile(quiet), rel=0.02)


# -- layers -------------------------------------------------------------------

def test_every_module_maps_to_exactly_one_layer():
    root = harness.REPO_ROOT / "src" / "repro"
    modules = [p.relative_to(root).as_posix() for p in root.rglob("*.py")]
    assert len(modules) > 50
    for rel in modules:
        hits = [layer for prefix, layer in layers.LAYER_PREFIXES
                if rel.startswith(prefix)]
        assert hits, rel
        assert layers.module_layer(rel) == hits[0]
    assert layers.module_layer("core/kernels.py") == "kernels"
    assert layers.module_layer("core/plan/optimiser.py") == "plan.optimiser"
    assert layers.module_layer("query/estimate.py") == "query.estimate"
    assert layers.module_layer("obs/trace.py") == "other"


def test_kernel_functions_split_and_missing_ones_read_zero():
    import repro.core.kernels as kernels
    path = kernels.__file__
    for name in ("chain_add", "chunk_charges", "hash_destinations"):
        assert hasattr(kernels, name)
        assert layers.function_layer(path, name) == "kernels.accounting"
    for name in ("fused_extend_candidates", "intersect_sorted", "join_pairs"):
        assert hasattr(kernels, name)
        assert layers.function_layer(path, name) == "kernels.enumerate"
    # a profile in which the accounting kernels no longer exist
    builtin = ("~", 0, "<built-in method numpy.searchsorted>")
    extend = (path, 290, "fused_extend_candidates")
    loop = ("/somewhere/benchmarks/perf/batch.py", 1, "run_pass")
    stats = {
        extend: (1, 1, 0.5, 0.8, {loop: (1, 1, 0.5, 0.8)}),
        builtin: (4, 4, 0.3, 0.3, {extend: (4, 4, 0.3, 0.3)}),
        loop: (1, 1, 0.1, 0.9, {}),
    }
    times = layers.layer_self_times(stats)
    assert times["kernels.enumerate"] == pytest.approx(0.8)
    assert times["other"] == pytest.approx(0.1)
    assert times.get("kernels.accounting", 0.0) == 0.0
    assert layers.function_calls(stats, "core/kernels.py", "chain_add") == 0
    assert layers.function_calls(
        stats, "core/kernels.py", "fused_extend_candidates") == 1


# -- correctness checking ------------------------------------------------------

def test_wrong_expected_count_is_a_failed_operation():
    expected = dict(harness.load_expected())
    expected["triangle-GO"] += 1
    w = batch.BatchWorkload("plan-bound", seed=1, quick=True,
                            expected=expected)
    w.setup()
    result = w.measure(0.1, None)
    assert result["attempted"] == len(w.cases)
    assert result["failed"] == 1
    assert "triangle-GO" in result["failures"][0]


def test_declaration_names_every_case_and_metric_is_legal():
    import re
    decl = harness.load_declaration()
    names = [m["name"] for m in decl["end_to_end"] + decl["per_layer"]]
    names += [w["name"] for w in decl["workloads"]]
    assert len(names) == len(set(names))
    assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n)
               for n in names)
    per_layer = harness.metric_units(decl, "per_layer")
    for cid in batch.all_case_ids():
        assert f"case.{cid}.wall_s" in per_layer
    assert "setup_s" in harness.metric_units(decl, "end_to_end")
    with pytest.raises(KeyError):
        harness.fill_metrics({"no.such.metric": 1.0}, per_layer)


# -- compare.py ------------------------------------------------------------------

def record(value, seed=1, noisy=False, matches=10):
    return {"label": "x", "seed": seed, "seconds": 15.0, "trace": 0,
            "quick": False, "noisy": noisy, "workloads": {"enum-pull": {
                "attempted": 10, "failed": 0,
                "end_to_end": {"op_q1_s": {"value": value, "unit": "s"}},
                "per_layer": {"engine.matches": {"value": matches,
                                                 "unit": "count"}}}}}


DECL = {"workloads": [{"name": "enum-pull"}],
        "end_to_end": [{"name": "op_q1_s", "unit": "s", "better": "lower",
                        "bound": 0.1}]}


def verdicts(a, b):
    rows, exact = compare.compare(a, b, DECL)
    return {r[1]: r[6] for r in rows}, exact


def test_compare_verdicts():
    base = [record(1.0), record(1.01), record(0.99)]
    assert verdicts(base, [record(1.02)])[0]["op_q1_s"] == "within"
    assert verdicts(base, [record(1.3)])[0]["op_q1_s"] == "worse"
    assert verdicts(base, [record(0.7)])[0]["op_q1_s"] == "better"
    wide = [record(1.0), record(1.5), record(0.8), record(1.3)]
    assert verdicts(wide, [record(1.2)])[0]["op_q1_s"] == "unresolved"
    assert verdicts(wide, [record(0.5)])[0]["op_q1_s"] == "better"
    _, exact = verdicts([record(1.0)], [record(1.0, matches=11)])
    assert [e[3] for e in exact] == ["changed"]


def test_compare_refuses_noisy_and_fails_on_worse(tmp_path):
    def write(name, records):
        path = tmp_path / name
        path.write_text(json.dumps({"records": records}))
        return str(path)

    real = harness.load_declaration
    compare.harness.load_declaration = lambda: DECL
    try:
        a = write("a.json", [record(1.0)])
        assert compare.main([a, write("b.json", [record(1.02)])]) == 0
        assert compare.main([a, write("c.json", [record(1.5)])]) == 1
        noisy = write("d.json", [record(1.0, noisy=True)])
        assert compare.main([a, noisy]) == 2
        assert compare.main([a, noisy, "--allow-noisy"]) == 0
    finally:
        compare.harness.load_declaration = real


# -- the whole thing, shrunken ---------------------------------------------------

def test_quick_run_finishes_in_a_minute(tmp_path):
    out = tmp_path / "quick.json"
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(PERF_DIR / "run.py"), "--quick",
         "--out", str(out)], capture_output=True, text=True, timeout=120)
    wall = time.perf_counter() - t0
    assert done.returncode == 0, done.stderr[-2000:]
    assert wall < 60
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0
    rec = json.loads(out.read_text())
    assert rec["quick"] is True
    decl = harness.load_declaration()
    assert set(rec["workloads"]) == {w["name"] for w in decl["workloads"]}
    for result in rec["workloads"].values():
        for m in decl["end_to_end"]:
            assert result["end_to_end"][m["name"]]["value"] > 0
    assert compare.main([str(out), str(out)]) == 2  # never comparable
