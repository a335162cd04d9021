"""Simulated metrics match the frozen goldens, exactly.

The golden file pins the full accounting (tick-derived times, bytes,
messages, peak memory, worker-load statistics, match counts) of every
engine configuration on fixed workloads.  Every value is an integer or
one fixed expression of integers, so exact equality is the point — see
:mod:`repro.testing.goldens` for when regenerating is legitimate::

    PYTHONPATH=src python -m repro.testing.goldens --write tests/golden/metrics.json
"""

import json
import os

import pytest

from repro.testing.goldens import (capture_goldens, golden_budget_cases,
                                   golden_specs, golden_workloads)

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "metrics.json")


@pytest.fixture(scope="module")
def goldens():
    with open(GOLDEN_PATH, encoding="utf-8") as f:
        return json.load(f)


@pytest.fixture(scope="module")
def current():
    return capture_goldens()


def test_golden_file_covers_matrix(goldens):
    spec_names = {s.name for s in golden_specs()}
    case_names = {name for name, _ in golden_workloads()}
    assert set(goldens["cases"]) == case_names
    for case in goldens["cases"].values():
        assert set(case["specs"]) == spec_names
    budget_names = {name for name, _, _, _ in golden_budget_cases()}
    assert set(goldens["budget_cases"]) == budget_names


def test_golden_file_covers_baselines(goldens):
    # every baseline engine is golden-pinned on the unlabelled workloads
    # (labelled ones are recorded as explicitly unsupported)
    for case in goldens["cases"].values():
        for engine in ("seed", "bigjoin", "benu", "rads"):
            assert engine in case["specs"]


def test_budget_trip_points_bit_identical(goldens, current):
    # OOM/overtime aborts must trip at the same charge: both the error
    # string (which embeds the tripping machine/amount) and the full
    # abort-time metrics snapshot are compared exactly
    assert current["budget_cases"] == goldens["budget_cases"]


@pytest.mark.parametrize("case_name",
                         [name for name, _ in golden_workloads()])
def test_metrics_bit_identical(goldens, current, case_name):
    expected = goldens["cases"][case_name]["specs"]
    actual = current["cases"][case_name]["specs"]
    for spec_name, record in expected.items():
        got = actual[spec_name]
        assert got == record, (
            f"{case_name}/{spec_name}: simulated metrics drifted from "
            f"the golden record.\n  golden: {record}\n  got:    {got}")


@pytest.mark.parametrize("case_name",
                         [name for name, _ in golden_workloads()])
def test_goldens_unchanged_with_metrics_enabled(goldens, case_name):
    """Attaching the metrics registry (PR 7) must not move a single
    golden number: re-run every HUGE spec under a MetricsTracer and
    compare against the same frozen records."""
    from repro.obs import MetricsRegistry, MetricsTracer
    from repro.testing.harness import execute

    workload = dict(golden_workloads())[case_name]
    for spec in golden_specs():
        if not getattr(spec, "is_huge", False) or not spec.supports(workload):
            continue
        record = goldens["cases"][case_name]["specs"][spec.name]
        outcome = execute(workload, spec,
                          tracer=MetricsTracer(MetricsRegistry()))
        assert outcome.error is None, outcome.error
        got = {"count": outcome.count,
               "report": outcome.report.as_dict(),
               "cache_overflow_ids": outcome.cache_overflow_ids}
        assert got == record, (
            f"{case_name}/{spec.name}: metrics-enabled run drifted from "
            f"the golden record")
