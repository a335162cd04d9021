"""Differential conformance testing for the HUGE reproduction.

The paper's core claim is configuration-independence: one engine with many
physical configurations — hash vs wco joins, pushing vs pulling, BFS/DFS
adaptive scheduling, the LRBU cache ablations — plus the four baseline
systems must all produce the same symmetry-broken embeddings as the
brute-force reference, while respecting the Theorem 5.4 memory bound.
This package is the correctness backstop behind that claim:

* :mod:`repro.testing.workloads` — randomized, replayable workloads
  (graph × pattern × cluster shape), JSON round-trippable;
* :mod:`repro.testing.configs` — the engine-configuration matrix
  (baselines, HUGE across plan × scheduler × cache dimensions, and the
  motif-census workload family);
* :mod:`repro.testing.oracles` — the invariant oracles every run is
  checked against;
* :mod:`repro.testing.harness` — the differential runner, the greedy
  workload shrinker and the replayable failure artifacts;
* :mod:`repro.testing.strategies` — hypothesis strategies shared with
  ``tests/`` (imported lazily; requires hypothesis);
* :mod:`repro.testing.serving` — service-level oracles for
  :mod:`repro.serve` (exactly-once accounting, admission-ledger drain,
  concurrency == solo bit-identity, crash recovery).

Long soak runs and artifact replay are driven by the CLI::

    python -m repro.conformance run --cases 200 --seed 1
    python -m repro.conformance replay artifact.json
"""

from .configs import (EngineSpec, census_matrix, default_matrix,
                      smoke_matrix)
from .harness import (CaseFailure, ConformanceHarness, HarnessReport,
                      load_artifact, replay_artifact, run_case,
                      save_artifact, shrink_workload)
from .oracles import (CensusReference, OracleFailure, Reference, check_case,
                      check_census_case, compute_census_reference,
                      compute_reference)
from .serving import (SERVING_ORACLES, check_driver_report,
                      check_service_run)
from .workloads import Workload, random_pattern, random_workload

__all__ = [
    "EngineSpec",
    "census_matrix",
    "default_matrix",
    "smoke_matrix",
    "CaseFailure",
    "ConformanceHarness",
    "HarnessReport",
    "load_artifact",
    "replay_artifact",
    "run_case",
    "save_artifact",
    "shrink_workload",
    "CensusReference",
    "OracleFailure",
    "Reference",
    "check_case",
    "check_census_case",
    "compute_census_reference",
    "compute_reference",
    "SERVING_ORACLES",
    "check_driver_report",
    "check_service_run",
    "Workload",
    "random_pattern",
    "random_workload",
]
