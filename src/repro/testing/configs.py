"""The engine-configuration matrix the harness fans every workload across.

One :class:`EngineSpec` names either a baseline system (SEED, BiGJoin,
BENU, RADS) or the HUGE engine under a specific physical configuration:

* **plan** — which logical plan the run executes.  ``optimal`` is
  Algorithm 1; ``wco`` forces a pure worst-case-optimal (all PULL-EXTEND)
  plan; ``seed`` / ``benu`` / ``rads`` / ``starjoin`` are the plug-in
  plans of Remark 3.2 and exercise the hash-join × pushing corners of the
  Equation 3 matrix that the optimiser's own plans may avoid;
* **scheduler** — output-queue capacity (``0`` = pure DFS, ``inf`` = pure
  BFS, Exp-7), batch size, and the stealing mode (full / none /
  region-group, Exp-8);
* **cache** — the Table 5 variants and a deliberately tiny capacity that
  stresses eviction and the §4.4 overflow invariant.

``disable_symmetry`` is a *mutation knob* for the harness's self-test: it
strips the symmetry-breaking partial order from the execution plan, which
the count/embedding oracles must catch (every instance is then emitted
once per automorphism).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Mapping

from ..core.cache import CACHE_VARIANTS
from ..core.engine import EngineConfig
from ..core.stealing import STEALING_MODES

__all__ = ["BASELINE_ENGINES", "CENSUS_SIZES", "DELTA_SCHEDULES",
           "PLAN_MODES", "EngineSpec", "baseline_matrix", "census_matrix",
           "default_matrix", "delta_matrix", "smoke_matrix"]

#: baseline engines the harness can run (HUGE is ``"huge"``; ``"census"``
#: is the motif-census workload family)
BASELINE_ENGINES = ("seed", "bigjoin", "benu", "rads")

#: census subgraph sizes the census workload family fans across
CENSUS_SIZES = (3, 4, 5)

#: update-batch schedules the delta (incremental) family fans across
DELTA_SCHEDULES = ("insert", "delete", "mixed")

#: accepted values of :attr:`EngineSpec.plan` for HUGE runs
PLAN_MODES = ("optimal", "wco", "seed", "benu", "rads", "starjoin")


@dataclass(frozen=True)
class EngineSpec:
    """One fully-specified engine configuration (JSON round-trippable)."""

    name: str
    engine: str = "huge"
    plan: str = "optimal"
    cache_variant: str = "lrbu"
    cache_capacity_ids: int | None = None
    stealing: str = "full"
    output_queue_capacity: float = 16384.0
    batch_size: int = 64
    scan_pivot_chunk: int = 16
    disable_symmetry: bool = False
    census_k: int | None = None
    """Subgraph size for ``engine="census"`` specs (ignored otherwise)."""
    delta_schedule: str | None = None
    """Batch schedule for ``engine="delta"`` specs: ``insert`` (insert-only),
    ``delete`` (delete-only) or ``mixed`` (both, plus same-batch churn)."""
    delta_batches: int = 3
    """How many update batches the delta schedule spreads its edits over."""

    def __post_init__(self) -> None:
        if self.engine not in ("huge", "census", "delta") \
                and self.engine not in BASELINE_ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}")
        if self.engine == "census":
            if self.census_k is None or not 2 <= self.census_k <= 5:
                raise ValueError(f"census specs need census_k in 2..5, "
                                 f"got {self.census_k!r}")
        if self.engine == "delta":
            if self.delta_schedule not in DELTA_SCHEDULES:
                raise ValueError(
                    f"delta specs need delta_schedule in {DELTA_SCHEDULES}, "
                    f"got {self.delta_schedule!r}")
            if self.delta_batches < 1:
                raise ValueError("delta_batches must be >= 1")
        if self.engine == "huge":
            if self.plan not in PLAN_MODES:
                raise ValueError(f"unknown plan mode {self.plan!r}; "
                                 f"choose from {PLAN_MODES}")
            if self.cache_variant not in CACHE_VARIANTS:
                raise ValueError(f"unknown cache variant "
                                 f"{self.cache_variant!r}")
            if self.stealing not in STEALING_MODES:
                raise ValueError(f"unknown stealing mode {self.stealing!r}")

    @property
    def is_huge(self) -> bool:
        """Whether this spec runs the HUGE engine (vs a baseline)."""
        return self.engine == "huge"

    @property
    def is_census(self) -> bool:
        """Whether this spec runs the motif census."""
        return self.engine == "census"

    @property
    def is_delta(self) -> bool:
        """Whether this spec runs the incremental (streaming delta) path."""
        return self.engine == "delta"

    def supports(self, workload) -> bool:
        """Whether this engine can run ``workload`` at all.  The baseline
        reproductions implement the papers' unlabelled algorithms, so
        label-constrained patterns are HUGE-only.  The census ignores the
        workload's pattern and labels entirely (it enumerates the data
        graph), so it supports every workload.  The delta path supports
        labels but needs a pattern with at least one edge to pin."""
        if self.is_census:
            return True
        if self.is_delta:
            return workload.pattern().num_edges > 0
        if not self.is_huge:
            return workload.pattern_labels is None
        return True

    def engine_config(self, collect: bool = True) -> EngineConfig:
        """The :class:`~repro.core.engine.EngineConfig` for a HUGE run."""
        if not self.is_huge:
            raise ValueError(f"{self.name}: only HUGE specs take an "
                             f"EngineConfig")
        return EngineConfig(
            collect_results=collect,
            cache_variant=self.cache_variant,
            cache_capacity_ids=self.cache_capacity_ids,
            stealing=self.stealing,
            output_queue_capacity=self.output_queue_capacity,
            batch_size=self.batch_size,
            scan_pivot_chunk=self.scan_pivot_chunk,
        )

    def mutated(self, disable_symmetry: bool = True) -> "EngineSpec":
        """Copy with the symmetry-breaking mutation toggled (self-test)."""
        return replace(self, name=self.name + "-nosym",
                       disable_symmetry=disable_symmetry)

    # -- (de)serialisation ----------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (``inf`` encoded as ``null``)."""
        d = asdict(self)
        if self.output_queue_capacity == float("inf"):
            d["output_queue_capacity"] = None
        return d

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "EngineSpec":
        """Inverse of :meth:`to_dict`."""
        d = dict(d)
        if d.get("output_queue_capacity") is None:
            d["output_queue_capacity"] = float("inf")
        return cls(**d)


def default_matrix() -> list[EngineSpec]:
    """The full engine matrix: the four baselines, and HUGE across the
    join-algorithm × communication-mode (via plan modes), scheduler and
    cache dimensions."""
    return [
        # -- HUGE plan dimension: wco/pull vs hash/push joins (Equation 3)
        EngineSpec("huge-default"),
        EngineSpec("huge-wco", plan="wco"),
        EngineSpec("huge-plugin-seed", plan="seed"),
        EngineSpec("huge-plugin-benu", plan="benu"),
        EngineSpec("huge-plugin-rads", plan="rads"),
        EngineSpec("huge-plugin-starjoin", plan="starjoin"),
        # -- scheduler dimension: DFS / BFS extremes, stealing modes
        EngineSpec("huge-dfs", output_queue_capacity=0.0, batch_size=8),
        EngineSpec("huge-bfs", output_queue_capacity=float("inf")),
        EngineSpec("huge-nostl", stealing="none"),
        EngineSpec("huge-rgp", stealing="region-group"),
        # -- cache dimension: Table 5 variants, tiny capacity
        EngineSpec("huge-tiny-cache", cache_capacity_ids=2, batch_size=8),
        EngineSpec("huge-lrbu-copy", cache_variant="lrbu-copy"),
        EngineSpec("huge-lrbu-lock", cache_variant="lrbu-lock"),
        EngineSpec("huge-lru-inf", cache_variant="lru-inf"),
        EngineSpec("huge-cncr-lru", cache_variant="cncr-lru"),
        # -- the baseline systems
        EngineSpec("seed", engine="seed"),
        EngineSpec("bigjoin", engine="bigjoin"),
        EngineSpec("benu", engine="benu"),
        EngineSpec("rads", engine="rads"),
        # -- the motif-census workload family (pattern-independent)
        *census_matrix(),
        # -- the incremental (streaming delta) workload family
        *delta_matrix(),
    ]


def census_matrix() -> list[EngineSpec]:
    """The census workload family: one motif-census spec per size
    ``k``.  Census specs ignore the workload's pattern — they count
    *all* connected k-subgraphs of the workload's data graph and are
    checked against census-specific oracles (brute-force totals,
    per-class counts and the automorphism identity)."""
    return [EngineSpec(f"census-k{k}", engine="census", census_k=k)
            for k in CENSUS_SIZES]


def delta_matrix() -> list[EngineSpec]:
    """The incremental workload family: one spec per update-batch schedule.

    Each spec derives a deterministic batch schedule from the workload
    (held-out inserts, planted-then-deleted extras, or both) whose final
    graph equals the workload graph, replays it through
    :class:`~repro.stream.delta.IncrementalMatcher`, and presents the
    accumulated standing matches as the outcome — so the standard count /
    embeddings / symmetry oracles assert incremental ≡ from-scratch,
    while the delta-once oracle asserts no batch double-counts or
    retracts an undelivered match."""
    return [EngineSpec(f"delta-{s}", engine="delta", delta_schedule=s)
            for s in DELTA_SCHEDULES]


def baseline_matrix() -> list[EngineSpec]:
    """The baseline-systems profile: the four reproduced systems plus the
    HUGE plug-in plans that replay their logical strategies.  This is the
    matrix the columnar baseline runtime is validated against — fuzzing it
    cross-checks the vectorised SEED/BiGJoin/BENU/RADS inner loops (and
    their OOM/overtime trip points) against every oracle without paying
    for the full HUGE scheduler/cache dimensions."""
    keep = {"huge-plugin-seed", "huge-plugin-benu", "huge-plugin-rads",
            "huge-plugin-starjoin", "seed", "bigjoin", "benu", "rads"}
    return [s for s in default_matrix() if s.name in keep]


def smoke_matrix() -> list[EngineSpec]:
    """A cheaper sub-matrix for the CI smoke run: one representative per
    dimension, all baselines kept (cross-system agreement is the point)."""
    keep = {"huge-default", "huge-wco", "huge-plugin-seed", "huge-dfs",
            "huge-bfs", "huge-nostl", "huge-tiny-cache", "huge-cncr-lru",
            "seed", "bigjoin", "benu", "rads"}
    return [s for s in default_matrix() if s.name in keep]
