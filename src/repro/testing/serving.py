"""Serving-semantics oracles for :mod:`repro.serve`.

The conformance oracles in :mod:`repro.testing.oracles` check one engine
run; these check a whole **service run** — a :class:`DriverReport` (or a
service + its outcomes directly) — against the serving tier's contract:

* ``accounted`` — every submitted request reached exactly one terminal
  state (completed + cancelled + failed + rejected = submitted) and no
  handle saw a duplicate terminal delivery (``delivery_violations == 0``
  — the no-lost/no-duplicated-results invariant, including across
  worker-crash retries);
* ``ledger`` — the admission ledger drained back to zero after the run
  and never double-released (``underflows == 0``);
* ``solo-identical`` — every completed query's count, collected match
  multiset and full simulated metrics report are bit-identical to the
  same request (same engine config) executed solo through
  :func:`~repro.serve.service.run_query_solo` — concurrency must not
  change what any query computes, and every served request is one engine
  run of its own, so no completed request is exempt;
* ``crash-recovered`` — every injected crash was observed
  (``worker_crashes >= injected``) and recovered: a crashed query either
  completed on a retry (``attempts > 1``) or failed only after
  exhausting its retry budget.
"""

from __future__ import annotations

from dataclasses import replace

from ..graph.graph import Graph
from ..query.pattern import QueryGraph, get_query
from ..serve.driver import DriverReport
from ..serve.executor import effective_config
from ..serve.request import QueryStatus
from ..serve.service import run_query_solo
from .oracles import OracleFailure

__all__ = ["SERVING_ORACLES", "solo_mismatches", "check_service_run",
           "check_driver_report"]

#: serving oracle names, in checking order
SERVING_ORACLES = ("accounted", "ledger", "solo-identical", "crash-recovered")


def _config_fingerprint(config) -> str:
    """Solo-run reuse key for an effective engine config: every knob that
    changes what a run computes or charges.  ``cancellation`` is
    per-attempt (``repr=False`` on the dataclass) and ``collect_results``
    is keyed separately, from the request."""
    return repr(replace(config, collect_results=False, cancellation=None))


def _canonical_rows(pattern, rows):
    """Matches rebased from the request's vertex order to canonical
    order — isomorphic requests' solo runs agree in this frame."""
    resolved = pattern if isinstance(pattern, QueryGraph) \
        else get_query(pattern)
    _, mapping = resolved.canonical_form()
    n = resolved.num_vertices
    out = []
    for r in rows:
        c = [0] * n
        for v in range(n):
            c[mapping[v]] = r[v]
        out.append(tuple(c))
    return sorted(out)


def solo_mismatches(graph: Graph, requests, outcomes,
                    default_config=None) -> list[str]:
    """The ``solo-identical`` oracle: every completed outcome against the
    same request executed solo (one solo run per distinct canonical
    pattern × cluster shape × engine config × collect flag).  Also what
    ``LoadDriver.run(verify=True)`` and ``serve --verify`` report."""
    solo_cache: dict[tuple, object] = {}
    failures: list[str] = []
    for req, outcome in zip(requests, outcomes):
        if outcome.status is not QueryStatus.COMPLETED:
            continue
        # the engine config and collect both change what a run charges,
        # so a request must not reuse a solo run made under other ones
        key = (outcome.canonical_key, req.num_machines,
               req.workers_per_machine, req.partition_seed,
               _config_fingerprint(effective_config(req, default_config)),
               req.collect)
        cached = solo_cache.get(key)
        if cached is None:
            cached = (run_query_solo(graph, req,
                                     default_config=default_config),
                      req.pattern)
            solo_cache[key] = cached
        solo, solo_pattern = cached
        if outcome.count != solo.count:
            failures.append(f"{req.label}: served {outcome.count} != solo "
                            f"{solo.count}")
            continue
        served, alone = outcome.result.matches, solo.result.matches
        if (served is not None and alone is not None
                and _canonical_rows(req.pattern, served)
                != _canonical_rows(solo_pattern, alone)):
            failures.append(
                f"{req.label}: served match multiset differs from solo")
        if outcome.result.report.as_dict() != solo.result.report.as_dict():
            failures.append(
                f"{req.label}: simulated metrics differ from solo")
    return failures


def check_service_run(service, requests, outcomes, graph: Graph,
                      injected_crashes: int = 0,
                      check_solo: bool = True,
                      default_config=None) -> list[OracleFailure]:
    """Check one drained service run; returns violated invariants.

    ``service`` must be stopped (drained); ``requests``/``outcomes`` are
    the parallel submitted/terminal lists.
    """
    failures: list[OracleFailure] = []
    stats = service.stats()

    terminal = (stats.completed + stats.cancelled + stats.failed
                + stats.rejected)
    if terminal != stats.submitted:
        failures.append(OracleFailure(
            "accounted",
            f"{stats.submitted} submitted but {terminal} terminal "
            f"({stats.completed}C/{stats.cancelled}X/{stats.failed}F/"
            f"{stats.rejected}R)"))
    if stats.delivery_violations:
        failures.append(OracleFailure(
            "accounted",
            f"{stats.delivery_violations} duplicate terminal deliveries"))
    for req, outcome in zip(requests, outcomes):
        if not outcome.status.terminal:
            failures.append(OracleFailure(
                "accounted", f"{req.label} ended non-terminal: "
                f"{outcome.status.value}"))

    if stats.reserved_bytes != 0.0:
        failures.append(OracleFailure(
            "ledger", f"admission ledger holds {stats.reserved_bytes}B "
            f"after drain (expected 0)"))
    underflows = stats.admission.get("underflows", 0)
    if underflows:
        failures.append(OracleFailure(
            "ledger", f"{underflows} admission double-releases"))

    if check_solo:
        failures += [OracleFailure("solo-identical", msg)
                     for msg in solo_mismatches(graph, requests, outcomes,
                                                default_config)]

    if injected_crashes:
        if stats.worker_crashes < injected_crashes:
            failures.append(OracleFailure(
                "crash-recovered",
                f"{injected_crashes} crashes injected but only "
                f"{stats.worker_crashes} observed"))
        for req, outcome in zip(requests, outcomes):
            if outcome.status is QueryStatus.COMPLETED:
                continue
            if (outcome.status is QueryStatus.FAILED
                    and "crashed" in (outcome.error or "")
                    and outcome.attempts <= service.max_retries):
                failures.append(OracleFailure(
                    "crash-recovered",
                    f"{req.label} failed after {outcome.attempts} attempts "
                    f"with retries left"))
    return failures


def check_driver_report(report: DriverReport) -> list[OracleFailure]:
    """The subset of serving oracles checkable from a serialised
    :class:`DriverReport` (accounting, ledger, recorded verification)."""
    failures: list[OracleFailure] = []
    svc = report.service
    terminal = sum(report.counts_by_status.values())
    if terminal != svc["submitted"]:
        failures.append(OracleFailure(
            "accounted", f"{svc['submitted']} submitted, {terminal} "
            f"terminal outcomes"))
    if svc["delivery_violations"]:
        failures.append(OracleFailure(
            "accounted",
            f"{svc['delivery_violations']} duplicate deliveries"))
    if svc["reserved_bytes"] != 0.0:
        failures.append(OracleFailure(
            "ledger", f"ledger holds {svc['reserved_bytes']}B after drain"))
    if svc["admission"].get("underflows", 0):
        failures.append(OracleFailure(
            "ledger", f"{svc['admission']['underflows']} double-releases"))
    if report.verified is False:
        for msg in report.verify_failures:
            failures.append(OracleFailure("solo-identical", msg))
    return failures
