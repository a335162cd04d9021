"""The differential conformance runner, shrinker and replay artifacts.

:func:`run_case` executes one (workload, engine-spec) pair through the
appropriate engine, collects the oracle observables into a
:class:`~repro.testing.oracles.CaseOutcome` and checks every oracle.
:class:`ConformanceHarness` fans a stream of random workloads across the
engine matrix; on the first violation it greedily shrinks the workload to
a minimal reproducing case (:func:`shrink_workload`) and serialises a
replayable JSON artifact (:func:`save_artifact`) that
``python -m repro.conformance replay`` re-executes.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterable

from ..apps.mining import motif_census
from ..baselines import (BenuEngine, BigJoinEngine, RadsEngine, SeedEngine)
from ..cluster.cluster import Cluster
from ..core.engine import HugeEngine
from ..core.plan.plans import (benu_plan, rads_plan, seed_plan,
                               starjoin_plan, wco_plan)
from ..core.plan.tree import ExecutionPlan
from ..query.estimate import SamplingEstimator
from .configs import EngineSpec, default_matrix
from .oracles import (CaseOutcome, OracleFailure, Reference, check_case,
                      compute_reference)
from .workloads import Workload, random_workload

__all__ = ["ARTIFACT_VERSION", "CaseFailure", "ConformanceHarness",
           "HarnessReport", "load_artifact", "replay_artifact", "run_case",
           "save_artifact", "shrink_workload"]

ARTIFACT_VERSION = 1

_BASELINES: dict[str, Callable] = {
    "seed": SeedEngine,
    "bigjoin": BigJoinEngine,
    "benu": BenuEngine,
    "rads": RadsEngine,
}


_PLUGIN_PLANS: dict[str, Callable] = {
    "wco": wco_plan,
    "benu": benu_plan,
    "rads": rads_plan,
    "starjoin": starjoin_plan,
}


def _build_plan(spec: EngineSpec, engine: HugeEngine, query,
                graph) -> ExecutionPlan:
    """Resolve the spec's plan mode into the plan the engine runs."""
    if spec.plan == "optimal":
        plan = engine.plan(query)
    elif spec.plan == "seed":
        plan = seed_plan(query, SamplingEstimator(graph, trials=80, seed=11))
    else:  # EngineSpec validates plan names
        plan = _PLUGIN_PLANS[spec.plan](query)
    if spec.disable_symmetry:
        plan = replace(plan, conditions=frozenset(),
                       name=plan.name + "-nosym")
    return plan


def execute(workload: Workload, spec: EngineSpec,
            tracer=None) -> CaseOutcome:
    """Run one engine on one workload, capturing the oracle observables.

    Engine exceptions are captured as the outcome's ``error`` (a crash is
    a conformance failure, not a harness failure).  ``tracer`` (HUGE
    specs) records a span trace of the run for failure artifacts.
    """
    outcome = CaseOutcome(spec_name=spec.name)
    graph = workload.graph()
    query = workload.pattern()
    cluster = Cluster(graph, num_machines=workload.num_machines,
                      workers_per_machine=workload.workers_per_machine,
                      seed=workload.partition_seed,
                      labels=workload.label_array())
    try:
        if spec.is_delta:
            from .deltas import run_delta
            run_delta(workload, spec, outcome)
        elif spec.is_census:
            census = motif_census(cluster, spec.census_k)
            outcome.count = census.total_subgraphs
            outcome.report = census.report
            outcome.census_total = census.total_subgraphs
            outcome.census_counts = dict(census.counts)
            outcome.census_class_keys = dict(census.class_keys)
        elif spec.is_huge:
            config = spec.engine_config(collect=True)
            engine = HugeEngine(cluster, config,
                                estimator=SamplingEstimator(
                                    graph, trials=60, seed=7))
            plan = _build_plan(spec, engine, query, graph)
            result = engine.run(query, plan=plan, tracer=tracer)
            outcome.count = result.count
            outcome.matches = result.matches
            outcome.report = result.report
            outcome.num_push_joins = result.plan.num_push_joins()
            outcome.cache_overflow_ids = result.cache_overflow_ids
            outcome.cache_reserved_ids = result.cache_capacity_ids
            outcome.join_buffer_tuples = config.join_buffer_tuples
        else:
            result = _BASELINES[spec.engine](cluster).run(query)
            outcome.count = result.count
            outcome.report = result.report
        outcome.bytes_per_id = cluster.cost.bytes_per_id
        outcome.ledger = cluster.metrics
    except Exception as exc:  # noqa: BLE001 - crashes become oracle failures
        outcome.error = f"{type(exc).__name__}: {exc}"
    return outcome


def run_case(workload: Workload, spec: EngineSpec,
             ref: Reference | None = None) -> CaseOutcome:
    """Execute one case and check every oracle; failures land on the
    returned outcome."""
    if ref is None and not spec.is_census:
        # census specs carry their own brute-force reference (computed
        # inside check_census_case); don't pay for the pattern one
        ref = compute_reference(workload)
    outcome = execute(workload, spec)
    outcome.failures = check_case(workload, spec, outcome, ref)
    return outcome


# -- shrinking -----------------------------------------------------------------


def shrink_workload(workload: Workload, spec: EngineSpec,
                    max_trials: int = 300) -> Workload:
    """Greedily minimise a failing workload while it keeps failing.

    Passes: strip labels, drop graph edges one at a time (repeating until
    a fixed point), then compact away isolated vertices.  Every candidate
    is re-verified end to end (engine run + reference + oracles), so the
    shrunk case is guaranteed to still reproduce.
    """
    trials = 0

    def still_fails(cand: Workload) -> bool:
        nonlocal trials
        trials += 1
        return bool(run_case(cand, spec).failures)

    if not still_fails(workload):
        raise ValueError("workload does not fail; nothing to shrink")

    cand = workload.without_labels()
    if (workload.labels is not None or workload.pattern_labels is not None) \
            and still_fails(cand):
        workload = cand

    improved = True
    while improved and trials < max_trials:
        improved = False
        for edge in list(workload.edges):
            if trials >= max_trials:
                break
            fewer = tuple(e for e in workload.edges if e != edge)
            cand = workload.with_edges(fewer)
            if still_fails(cand):
                workload = cand
                improved = True

    cand = workload.compact()
    if cand is not workload and still_fails(cand):
        workload = cand
    return workload


# -- artifacts -----------------------------------------------------------------


def save_artifact(path: str, workload: Workload, spec: EngineSpec,
                  failures: Iterable[OracleFailure], trace=None) -> None:
    """Serialise a failing case (workload + engine config + violations).

    ``trace`` (a :class:`~repro.obs.trace.Trace`) embeds the failing
    run's span timeline in Chrome ``trace_event`` form; the key is
    optional, so version-1 readers stay compatible.
    """
    payload = {
        "version": ARTIFACT_VERSION,
        "workload": workload.to_dict(),
        "engine": spec.to_dict(),
        "failures": [{"oracle": f.oracle, "message": f.message}
                     for f in failures],
    }
    if trace is not None:
        payload["trace"] = trace.to_chrome()
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str) -> tuple[Workload, EngineSpec,
                                      list[OracleFailure]]:
    """Deserialise an artifact written by :func:`save_artifact`."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    version = payload.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {version!r}")
    return (
        Workload.from_dict(payload["workload"]),
        EngineSpec.from_dict(payload["engine"]),
        [OracleFailure(f["oracle"], f["message"])
         for f in payload.get("failures", [])],
    )


def replay_artifact(path: str) -> CaseOutcome:
    """Re-execute an artifact's case; the outcome's failures say whether
    it still reproduces."""
    workload, spec, _ = load_artifact(path)
    return run_case(workload, spec)


# -- the harness ---------------------------------------------------------------


@dataclass
class CaseFailure:
    """One failing case, already shrunk when shrinking was enabled."""

    workload: Workload
    spec: EngineSpec
    failures: list[OracleFailure]
    artifact_path: str | None = None

    def describe(self) -> str:
        """Multi-line human summary."""
        lines = [f"{self.spec.name} on {self.workload.describe()}"]
        lines += [f"  {f}" for f in self.failures]
        if self.artifact_path:
            lines.append(f"  artifact: {self.artifact_path}")
        return "\n".join(lines)


@dataclass
class HarnessReport:
    """Summary of one harness run."""

    cases_run: int = 0
    workloads: int = 0
    skipped: int = 0
    elapsed_s: float = 0.0
    failures: list[CaseFailure] = field(default_factory=list)
    target: int = 0
    """The case target the run was asked for."""
    truncated: bool = False
    """Whether the time cap ended the run before ``target`` cases ran."""

    @property
    def ok(self) -> bool:
        """Whether the run met its case target and every case passed
        every oracle."""
        return not self.failures and not self.truncated

    def summary(self) -> str:
        """One-line result summary."""
        if self.failures:
            status = f"FAIL ({len(self.failures)} cases)"
        else:
            status = "INCOMPLETE" if self.truncated else "PASS"
        text = (f"{status}: {self.cases_run} cases over {self.workloads} "
                f"workloads ({self.skipped} unsupported pairs skipped) "
                f"in {self.elapsed_s:.1f}s")
        if self.truncated:
            text += (f", truncated by --max-seconds at "
                     f"{self.cases_run}/{self.target} cases")
        return text


class ConformanceHarness:
    """Engine-matrix fuzzer: random workloads × engine configurations.

    Parameters
    ----------
    specs:
        Engine matrix to fan each workload across (default: the full
        :func:`~repro.testing.configs.default_matrix`).
    seed:
        Base seed; workload ``i`` is generated from ``seed + i`` so runs
        are reproducible and individually replayable.
    max_vertices:
        Data-graph size cap (kept small: every case also pays for the
        brute-force reference).
    shrink:
        Shrink failing workloads before reporting them.
    artifact_dir:
        Where to write replay artifacts for failing cases (``None``
        disables artifact emission).
    """

    def __init__(self, specs: list[EngineSpec] | None = None, seed: int = 0,
                 max_vertices: int = 14, shrink: bool = True,
                 artifact_dir: str | None = None):
        self.specs = list(specs) if specs is not None else default_matrix()
        if not self.specs:
            raise ValueError("need at least one engine spec")
        self.seed = seed
        self.max_vertices = max_vertices
        self.shrink = shrink
        self.artifact_dir = artifact_dir

    def workload(self, index: int) -> Workload:
        """The ``index``-th workload of this harness's deterministic stream."""
        return random_workload(self.seed + index,
                               max_vertices=self.max_vertices)

    def run(self, num_cases: int = 100, max_seconds: float | None = None,
            stop_on_failure: bool = True,
            progress: Callable[[str], None] | None = None) -> HarnessReport:
        """Run at least ``num_cases`` workload × config cases.

        Workloads are consumed in order; each is fanned across every
        supported spec (so one workload contributes ``len(specs)``-ish
        cases and its reference is computed once).  Stops once the case
        target is met; ``max_seconds`` stops it earlier, and a run cut
        short that way is ``truncated`` — not ``ok``, whatever it found.
        """
        report = HarnessReport(target=num_cases)
        start = time.perf_counter()
        index = 0
        while report.cases_run < num_cases:
            if max_seconds is not None and \
                    time.perf_counter() - start > max_seconds:
                report.truncated = True
                break
            workload = self.workload(index)
            index += 1
            report.workloads += 1
            ref = compute_reference(workload)
            for spec in self.specs:
                if not spec.supports(workload):
                    report.skipped += 1
                    continue
                outcome = run_case(workload, spec, ref=ref)
                report.cases_run += 1
                if outcome.ok:
                    continue
                failure = self._handle_failure(workload, spec,
                                               outcome.failures, progress)
                report.failures.append(failure)
                if stop_on_failure:
                    report.elapsed_s = time.perf_counter() - start
                    return report
            if progress is not None:
                progress(f"workload {index}: {workload.describe()} — "
                         f"{report.cases_run}/{num_cases} cases, "
                         f"{len(report.failures)} failures")
        report.elapsed_s = time.perf_counter() - start
        return report

    def _handle_failure(self, workload: Workload, spec: EngineSpec,
                        failures: list[OracleFailure],
                        progress: Callable[[str], None] | None
                        ) -> CaseFailure:
        if self.shrink:
            if progress is not None:
                progress(f"shrinking failing case for {spec.name} ...")
            shrunk = shrink_workload(workload, spec)
            # report the violations of the *shrunk* case
            failures = run_case(shrunk, spec).failures or failures
            workload = shrunk
        artifact_path = None
        if self.artifact_dir is not None:
            import os

            trace = None
            if spec.is_huge:
                # re-run the (shrunk) case traced so the artifact carries
                # the failing run's span timeline
                from ..obs.trace import Tracer

                tracer = Tracer()
                execute(workload, spec, tracer=tracer)
                trace = tracer.trace
            os.makedirs(self.artifact_dir, exist_ok=True)
            artifact_path = os.path.join(
                self.artifact_dir,
                f"conformance-{spec.name}-seed{workload.seed}.json")
            save_artifact(artifact_path, workload, spec, failures,
                          trace=trace)
        return CaseFailure(workload, spec, failures, artifact_path)
