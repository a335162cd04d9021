"""Conformance-harness tests: the smoke sweep the CI runs, the
mutation-catching self-test, shrinking, and artifact replay.

The smoke test here is the acceptance gate from the design: a fixed-seed
sweep of ≥100 workload×config cases over the smoke matrix must pass well
under 60 seconds.  The mutation test proves the harness has teeth — an
engine with symmetry breaking deliberately disabled must be caught,
shrunk to a minimal workload, and round-trip through a replayable JSON
artifact.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

from repro.cluster import Cluster
from repro.core import EngineConfig, HugeEngine
from repro.graph import load_dataset
from repro.query import get_query
from repro.testing import (ConformanceHarness, EngineSpec, compute_reference,
                           default_matrix, load_artifact, random_workload,
                           replay_artifact, run_case, save_artifact,
                           shrink_workload, smoke_matrix)
from repro.testing.harness import traced_peak
from repro.testing.oracles import (PROCESS_MEMORY_ALPHA, PROCESS_MEMORY_BETA,
                                   CaseOutcome, check_case,
                                   check_process_memory)


class TestSmokeSweep:
    def test_smoke_matrix_100_cases(self):
        harness = ConformanceHarness(specs=smoke_matrix(), seed=1,
                                     max_vertices=12, shrink=False)
        report = harness.run(num_cases=100, stop_on_failure=True)
        assert report.ok, report.summary()
        assert report.cases_run >= 100
        assert report.elapsed_s < 60.0, (
            f"smoke sweep too slow: {report.elapsed_s:.1f}s")

    def test_time_cap_cutting_the_run_short_is_not_a_pass(self):
        """a cap that ends the loop before the case target used to read
        ``PASS: 0 cases`` and exit 0"""
        from repro.conformance import main

        harness = ConformanceHarness(specs=smoke_matrix(), seed=1,
                                     shrink=False)
        report = harness.run(num_cases=50, max_seconds=0)
        assert report.truncated and not report.ok and not report.failures
        assert report.summary().endswith(
            "truncated by --max-seconds at 0/50 cases")
        assert main(["run", "--cases", "50", "--seed", "1",
                     "--max-seconds", "0"]) == 1
        # an uncapped (or generously capped) run is unaffected
        full = harness.run(num_cases=10, max_seconds=60)
        assert full.ok and not full.truncated
        assert "truncated" not in full.summary()

    def test_full_matrix_one_workload(self):
        """Every spec in the full matrix runs and agrees on one workload."""
        wl = random_workload(1)
        ref = compute_reference(wl)
        for spec in default_matrix():
            if not spec.supports(wl):
                continue
            outcome = run_case(wl, spec, ref=ref)
            assert outcome.ok, (
                f"{spec.name}: " + "; ".join(
                    f.message for f in outcome.failures))


class TestMutationCatching:
    def test_disabled_symmetry_is_caught(self, tmp_path):
        mutant = EngineSpec("huge-default").mutated()
        assert mutant.disable_symmetry

        caught = None
        for i in range(50):
            wl = random_workload(i, max_vertices=10)
            ref = compute_reference(wl)
            outcome = run_case(wl, mutant, ref=ref)
            if not outcome.ok:
                caught = (wl, outcome)
                break
        assert caught is not None, (
            "mutation never caught in 50 workloads — harness has no teeth")
        wl, outcome = caught
        oracles_hit = {f.oracle for f in outcome.failures}
        assert oracles_hit & {"count", "embeddings", "symmetry"}

        # shrink to a minimal repro: still failing, no larger than the
        # original, and every surviving edge is load-bearing
        small = shrink_workload(wl, mutant)
        assert not run_case(small, mutant,
                            ref=compute_reference(small)).ok
        assert len(small.edges) <= len(wl.edges)
        assert small.num_vertices <= wl.num_vertices

        # artifact round-trip: save, load, replay — replay must still fail
        path = str(tmp_path / "mutant.json")
        save_artifact(path, small, mutant, outcome.failures)
        wl2, spec2, recorded = load_artifact(path)
        assert wl2 == small
        assert spec2 == mutant
        assert recorded
        replayed = replay_artifact(path)
        assert not replayed.ok

    def test_replay_cli_exit_codes(self, tmp_path):
        """``python -m repro.conformance replay`` exits 1 while the bug
        reproduces and 0 for an artifact whose case now passes."""
        mutant = EngineSpec("huge-default").mutated()
        wl = None
        for i in range(50):
            cand = random_workload(i, max_vertices=10)
            outcome = run_case(cand, mutant, ref=compute_reference(cand))
            if not outcome.ok:
                wl = shrink_workload(cand, mutant)
                failures = outcome.failures
                break
        assert wl is not None

        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env["PYTHONPATH"] = os.path.abspath(src)

        bad = str(tmp_path / "bad.json")
        save_artifact(bad, wl, mutant, failures)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.conformance", "replay", bad],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, proc.stdout + proc.stderr

        # the same workload under the unmutated spec passes → exit 0
        good = str(tmp_path / "good.json")
        save_artifact(good, wl, EngineSpec("huge-default"), failures)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.conformance", "replay", good],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestSerialisation:
    def test_workload_json_round_trip(self):
        wl = random_workload(7)
        blob = json.dumps(wl.to_dict())
        assert type(wl).from_dict(json.loads(blob)) == wl

    def test_labelled_workload_round_trip(self):
        wl = None
        for i in range(40):
            cand = random_workload(i, labelled_fraction=1.0)
            if cand.is_labelled:
                wl = cand
                break
        assert wl is not None
        blob = json.dumps(wl.to_dict())
        assert type(wl).from_dict(json.loads(blob)) == wl

    def test_engine_spec_round_trip(self):
        for spec in default_matrix():
            blob = json.dumps(spec.to_dict())
            assert EngineSpec.from_dict(json.loads(blob)) == spec

    def test_infinite_queue_capacity_serialises(self):
        spec = EngineSpec("bfs", output_queue_capacity=float("inf"))
        again = EngineSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert again.output_queue_capacity == float("inf")


class TestOracles:
    def _ref_and_workload(self):
        for i in range(30):
            wl = random_workload(i)
            ref = compute_reference(wl)
            if ref.count > 0:
                return wl, ref
        raise AssertionError("no workload with matches in 30 seeds")

    def test_count_oracle_flags_wrong_count(self):
        wl, ref = self._ref_and_workload()
        outcome = CaseOutcome(spec_name="x", count=ref.count + 1)
        fails = check_case(wl, EngineSpec("seed", engine="seed"),
                           outcome, ref)
        assert any(f.oracle == "count" for f in fails)

    def test_error_short_circuits(self):
        wl, ref = self._ref_and_workload()
        outcome = CaseOutcome(spec_name="x", error="boom")
        fails = check_case(wl, EngineSpec("seed", engine="seed"),
                           outcome, ref)
        assert [f.oracle for f in fails] == ["error"]

    def test_embedding_multiset_oracle(self):
        wl, ref = self._ref_and_workload()
        bogus = [tuple(range(wl.pattern_num_vertices))] * ref.count
        outcome = CaseOutcome(spec_name="x", count=ref.count, matches=bogus)
        fails = check_case(wl, EngineSpec("seed", engine="seed"),
                           outcome, ref)
        assert any(f.oracle == "embeddings" for f in fails)

    def test_reference_symmetry_identity(self):
        wl, ref = self._ref_and_workload()
        assert ref.count * ref.automorphisms == ref.ordered_count

    def test_process_memory_oracle_flags_a_peak_over_the_bound(self):
        wl, ref = self._ref_and_workload()
        outcome = run_case(wl, EngineSpec("huge-default"), ref=ref)
        assert outcome.ok and outcome.traced_peak_bytes > 0
        charged = int(outcome.ledger.peak_mem_bytes.sum())
        outcome.traced_peak_bytes = (
            PROCESS_MEMORY_ALPHA * charged + PROCESS_MEMORY_BETA + 1)
        fails = check_case(wl, EngineSpec("huge-default"), outcome, ref)
        assert [f.oracle for f in fails] == ["process-memory"]

    def test_memory_bound_oracle_holds_queue_tuples_to_pattern_width(self):
        """Theorem 5.4's queue tuples are ``|V_q|`` ids wide: a peak above
        that bound but below the same queues' bound at ``D_G``-wide tuples
        is flagged, and a peak at the bound passes"""
        wl, ref = self._ref_and_workload()
        spec = EngineSpec("huge-default")
        outcome = run_case(wl, spec, ref=ref)
        assert outcome.ok
        q, deg = wl.pattern_num_vertices, wl.graph().max_degree
        assert deg > q
        tuples = spec.output_queue_capacity + spec.batch_size * deg
        constant = (outcome.cache_reserved_ids + outcome.num_push_joins * 2
                    * outcome.join_buffer_tuples * q)
        bound = (q * q * q * tuples + constant) * outcome.bytes_per_id
        loose = (q * q * deg * tuples + constant) * outcome.bytes_per_id
        for peak, flagged in ((bound, []), ((bound + loose) / 2,
                                            ["memory-bound"])):
            outcome.report = replace(outcome.report,
                                     peak_memory_bytes=peak)
            fails = check_case(wl, spec, outcome, ref)
            assert [f.oracle for f in fails] == flagged

    def test_baseline_runs_are_not_traced(self):
        wl, ref = self._ref_and_workload()
        outcome = run_case(wl, EngineSpec("seed", engine="seed"), ref=ref)
        assert outcome.ok and outcome.traced_peak_bytes is None


class TestProcessMemory:
    def test_push_join_run_obeys_its_ledger(self):
        """q6 on GO: one PUSH-JOIN of 5.6 M key matches per run.  Its
        process peak must stay within the bound the ledger charges
        (a join that materialised every match traced 113 MB against a
        25.5 MB bound)."""
        graph = load_dataset("GO")
        cluster = Cluster(graph, num_machines=10, workers_per_machine=4,
                          seed=1)
        engine = HugeEngine(cluster, EngineConfig(collect_results=False))
        plan = engine.plan(get_query("q6"))
        assert plan.num_push_joins() == 1
        outcome = CaseOutcome(spec_name="q6-GO")
        with traced_peak(outcome, graph):
            result = engine.run(plan=plan)
        assert result.count == 1821932
        outcome.ledger = cluster.metrics  # the run's ledger
        assert outcome.ledger.peak_mem_bytes.sum() > 0
        assert check_process_memory(outcome) is None


class TestBenchmarkSeeding:
    def test_make_cluster_is_deterministic(self):
        bench = os.path.abspath(os.path.join(
            os.path.dirname(__file__), os.pardir, "benchmarks"))
        sys.path.insert(0, bench)
        try:
            import common
            a = common.make_cluster("GO", scale=0.05)
            b = common.make_cluster("GO", scale=0.05)
        finally:
            sys.path.remove(bench)
        assert a.graph.num_vertices == b.graph.num_vertices
        assert a.graph.num_edges == b.graph.num_edges
        assert list(a.graph.edges()) == list(b.graph.edges())
        for m in range(a.num_machines):
            assert list(a.local_vertices(m)) == list(b.local_vertices(m))

    @pytest.mark.slow
    def test_soak_full_matrix(self):
        harness = ConformanceHarness(specs=default_matrix(), seed=42,
                                     max_vertices=14, shrink=False)
        report = harness.run(num_cases=400, stop_on_failure=True)
        assert report.ok, report.summary()
