"""Invariant oracles checked against every conformance case.

Each oracle inspects one :class:`CaseOutcome` (what an engine run
produced) against the brute-force :class:`Reference` (ground truth) and
the workload/configuration that produced it:

* ``error`` — the engine must not crash;
* ``count`` — the symmetry-broken match count equals the reference;
* ``embeddings`` — the collected embedding *multiset* equals the
  reference's (HUGE runs; baselines only report counts);
* ``symmetry`` — ``ordered embeddings = matches × |Aut(q)|``, i.e.
  symmetry breaking keeps exactly one embedding per instance;
* ``memory-bound`` — the memory ledger never underflows (``mem_underflows
  == 0``: a ``free`` larger than the balance means double-free
  accounting), and HUGE's peak per-machine memory respects the
  Theorem 5.4 ``O(|V_q|² · D_G)`` queue bound (plus the configured
  constant reservations: cache capacity and PUSH-JOIN buffers).  The
  peak check is skipped for pure-BFS runs (infinite queues void the
  theorem's premise) and for baselines (whose unbounded intermediates
  are the paper's point);
* ``cache-overflow`` — the LRBU cache never overflows its capacity by
  more than one batch's worth of distinct remote vertices (§4.4);
* ``time-conservation`` — exact identities, no tolerance: on the integer
  ledger, every machine's worker-attributed ticks are covered by its
  compute ticks (the rest is unattributed scheduling/fetch work) and the
  reported aggregate worker time is their sum; on the report,
  ``T_C = T − T_R`` and ``T = max_m T_m``.

Census specs (``engine="census"``) run a different workload — the
motif census over the data graph — and are checked against their own
family of oracles, built on an *independent* brute-force classifier (the
``itertools.combinations`` sweep plus the O(k!) permutation-minimal
canonical form the census itself does not use):

* ``census-total`` — the census enumerated exactly as many connected
  k-subgraphs as the combinations sweep finds, and the per-class counts
  sum to that total;
* ``census-classes`` — the per-class counts match the brute-force
  classification class by class (bridged through ``canonical_key``, so a
  canonicaliser collision merges classes and trips the comparison);
* ``census-automorphism`` — each class's brute-force automorphism count
  matches :func:`~repro.query.automorphism.automorphism_count`, and
  (when the graph is small enough to afford the ordered sweep) the
  per-class labelled-embedding count equals ``census × |Aut|`` — i.e.
  labelled counts divide by the automorphism order exactly.

Delta specs (``engine="delta"``, the incremental streaming family) end
their batch schedule at the workload graph, so their accumulated
standing matches go through the standard ``count`` / ``embeddings`` /
``symmetry`` oracles unchanged — incremental ≡ from-scratch,
bit-identically — plus one family-specific oracle:

* ``delta-once`` — per batch, no addition is emitted twice, no emitted
  addition was already standing, every retraction retracts a standing
  match, and the running count folds exactly (the
  :class:`~repro.stream.delta.IncrementalMatcher` violation counter
  stays zero).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, permutations
from math import comb, factorial

from ..baselines.reference import (count_ordered_embeddings,
                                   enumerate_matches)
from ..cluster.metrics import Metrics, RunReport
from ..query.automorphism import automorphism_count
from ..query.pattern import QueryGraph
from .configs import EngineSpec
from .workloads import Workload

__all__ = ["CENSUS_ORACLES", "DELTA_ORACLES", "ORACLES", "CaseOutcome",
           "CensusReference", "OracleFailure", "Reference", "check_case",
           "check_census_case", "compute_census_reference",
           "compute_reference"]

#: the oracle names, in checking order
ORACLES = ("error", "count", "embeddings", "symmetry", "memory-bound",
           "cache-overflow", "time-conservation")

#: the census-family oracle names, in checking order
CENSUS_ORACLES = ("error", "census-total", "census-classes",
                  "census-automorphism")

#: the delta-family oracle names (checked on top of the standard ones)
DELTA_ORACLES = ("delta-once",)

#: permutation budget above which the labelled-embedding sweep of the
#: census reference is skipped (``C(n, k) · k!`` grows fast at k=5)
_CENSUS_LABELLED_BUDGET = 100_000


@dataclass(frozen=True)
class OracleFailure:
    """One violated invariant."""

    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


@dataclass(frozen=True)
class Reference:
    """Brute-force ground truth for one workload."""

    count: int
    ordered_count: int
    automorphisms: int
    matches: tuple[tuple[int, ...], ...]
    """Symmetry-broken embeddings in query-vertex order, sorted."""


@dataclass
class CaseOutcome:
    """What one engine run produced (as much as the engine exposes)."""

    spec_name: str
    count: int = 0
    matches: list[tuple[int, ...]] | None = None
    report: RunReport | None = None
    ledger: Metrics | None = None
    """The run's metrics ledger (integer side of ``report``)."""
    num_push_joins: int = 0
    cache_overflow_ids: int = 0
    cache_reserved_ids: int = 0
    join_buffer_tuples: int = 0
    bytes_per_id: int = 8
    error: str | None = None
    failures: list[OracleFailure] = field(default_factory=list)
    # census-spec observables (None/0 on pattern-enumeration runs)
    census_total: int = 0
    census_counts: dict[str, int] | None = None
    """Per-class census counts, motif name → count."""
    census_class_keys: dict[str, str] | None = None
    """Motif name → production canonical key."""
    # delta-spec observables (None on non-incremental runs)
    delta_batches: list[dict] | None = None
    """Per-batch bookkeeping: edge/match delta sizes, duplicate/stale
    addition counters, missing-retraction counters, running count."""
    delta_violations: int = 0
    """The IncrementalMatcher's fold-time exactly-once violation count."""

    @property
    def ok(self) -> bool:
        """Whether every oracle passed."""
        return not self.failures


def compute_reference(workload: Workload) -> Reference:
    """Run the brute-force reference enumerator on a workload."""
    graph = workload.graph()
    pattern = workload.pattern()
    labels = workload.label_array()
    matches = sorted(enumerate_matches(graph, pattern, labels=labels))
    ordered = count_ordered_embeddings(graph, pattern, labels=labels)
    return Reference(
        count=len(matches),
        ordered_count=ordered,
        automorphisms=automorphism_count(pattern),
        matches=tuple(matches),
    )


# -- individual oracles --------------------------------------------------------


def _check_count(outcome: CaseOutcome, ref: Reference) -> OracleFailure | None:
    if outcome.count != ref.count:
        return OracleFailure(
            "count", f"engine counted {outcome.count} symmetry-broken "
                     f"matches, reference says {ref.count}")
    return None


def _check_embeddings(outcome: CaseOutcome,
                      ref: Reference) -> OracleFailure | None:
    if outcome.matches is None:
        return None
    got = sorted(tuple(int(x) for x in f) for f in outcome.matches)
    want = list(ref.matches)
    if got != want:
        missing = set(want) - set(got)
        extra = set(got) - set(want)
        return OracleFailure(
            "embeddings",
            f"embedding multiset diverges from reference: "
            f"{len(missing)} missing (e.g. {sorted(missing)[:3]}), "
            f"{len(extra)} unexpected (e.g. {sorted(extra)[:3]}), "
            f"{len(got)} vs {len(want)} total")
    return None


def _check_symmetry(ref: Reference) -> OracleFailure | None:
    if ref.count * ref.automorphisms != ref.ordered_count:
        return OracleFailure(
            "symmetry",
            f"symmetry breaking kept {ref.count} of {ref.ordered_count} "
            f"ordered embeddings, expected ordered/|Aut| = "
            f"{ref.ordered_count}/{ref.automorphisms}")
    return None


def _check_memory_bound(workload: Workload, spec: EngineSpec,
                        outcome: CaseOutcome) -> OracleFailure | None:
    if outcome.report is None:
        return None
    # double-free accounting invalidates every memory observable, so it is
    # checked first and regardless of queue mode or engine family
    if outcome.report.mem_underflows:
        return OracleFailure(
            "memory-bound",
            f"{outcome.report.mem_underflows} memory-ledger underflow(s): "
            f"some Metrics.free released more bytes than were allocated "
            f"(double-free accounting bug)")
    if not spec.is_huge:
        return None
    if spec.output_queue_capacity == float("inf"):
        return None  # pure BFS: the theorem's bounded-queue premise is off
    graph = workload.graph()
    q = workload.pattern_num_vertices
    deg = max(1, graph.max_degree)
    bpi = outcome.bytes_per_id
    # Theorem 5.4: every operator queue holds at most its capacity plus the
    # expansion of one in-flight batch (≤ batch · D_G tuples of ≤ |V_q| ids)
    queue_ids = (q * q) * deg * (spec.output_queue_capacity
                                 + spec.batch_size * deg)
    # configured constant reservations on top of the queue bound
    constant_ids = outcome.cache_reserved_ids
    join_ids = outcome.num_push_joins * 2 * outcome.join_buffer_tuples * q
    bound = (queue_ids + constant_ids + join_ids) * bpi
    peak = outcome.report.peak_memory_bytes
    if peak > bound:
        return OracleFailure(
            "memory-bound",
            f"peak memory {peak:.0f}B exceeds the Theorem 5.4 bound "
            f"{bound:.0f}B (|Vq|={q}, D_G={deg}, "
            f"queue={spec.output_queue_capacity}, batch={spec.batch_size})")
    return None


def _check_cache_overflow(workload: Workload, spec: EngineSpec,
                          outcome: CaseOutcome) -> OracleFailure | None:
    if not spec.is_huge:
        return None
    graph = workload.graph()
    q = workload.pattern_num_vertices
    # §4.4: Insert may overflow only while S_free is empty, i.e. by at most
    # the footprint of the in-flight batch's distinct remote vertices —
    # ≤ batch · |V_q| vertices of ≤ D_G + 1 ids each
    bound = spec.batch_size * q * (graph.max_degree + 1)
    if outcome.cache_overflow_ids > bound:
        return OracleFailure(
            "cache-overflow",
            f"LRBU overflowed capacity by {outcome.cache_overflow_ids} ids, "
            f"more than one batch's remote footprint ({bound} ids)")
    return None


def _check_time_conservation(outcome: CaseOutcome) -> OracleFailure | None:
    rep = outcome.report
    if rep is None:
        return None

    def fail(detail: str) -> OracleFailure:
        return OracleFailure("time-conservation", detail)

    ledger = outcome.ledger
    if ledger is not None:
        attributed = 0
        for i, m in enumerate(ledger.machines):
            worker_ticks = sum(m.worker_ops)
            attributed += worker_ticks
            if not 0 <= worker_ticks <= m.compute_ops:
                return fail(
                    f"machine {i}: {worker_ticks} worker ticks not covered "
                    f"by {m.compute_ops} compute ticks")
        if rep.aggregate_worker_time_s != ledger.cost.ticks_to_seconds(
                attributed):
            return fail(
                f"aggregate worker time {rep.aggregate_worker_time_s} is "
                f"not the ledger's {attributed} worker ticks")
    if rep.comm_time_s < 0 or rep.compute_time_s < 0:
        return fail(f"negative component time: T_R={rep.compute_time_s}, "
                    f"T_C={rep.comm_time_s}")
    if rep.comm_time_s != rep.total_time_s - rep.compute_time_s:
        return fail(f"T_C != T - T_R: {rep.comm_time_s} vs "
                    f"{rep.total_time_s} - {rep.compute_time_s}")
    if rep.per_machine_time_s and (
            rep.total_time_s != max(rep.per_machine_time_s)):
        return fail(f"T != max per-machine time: {rep.total_time_s} vs "
                    f"{max(rep.per_machine_time_s)}")
    return None


def check_case(workload: Workload, spec: EngineSpec, outcome: CaseOutcome,
               ref: Reference | None) -> list[OracleFailure]:
    """Run every applicable oracle; returns the violations (empty = pass).

    Census specs are routed to the census oracle family (``ref`` is the
    pattern-enumeration ground truth and is ignored for them)."""
    if spec.is_census:
        return check_census_case(workload, spec, outcome)
    if outcome.error is not None:
        return [OracleFailure("error", outcome.error)]
    failures = []
    for failure in (
        _check_count(outcome, ref),
        _check_embeddings(outcome, ref),
        _check_symmetry(ref),
        _check_memory_bound(workload, spec, outcome),
        _check_cache_overflow(workload, spec, outcome),
        _check_time_conservation(outcome),
    ):
        if failure is not None:
            failures.append(failure)
    if spec.is_delta:
        failure = _check_delta_once(outcome)
        if failure is not None:
            failures.append(failure)
    return failures


def _check_delta_once(outcome: CaseOutcome) -> OracleFailure | None:
    """Per-batch exactly-once bookkeeping of an incremental run.

    Each batch must emit every addition once and only for matches that
    were not already standing, and every retraction exactly once for a
    match that *was* standing; the matcher's own fold must agree (zero
    violations) and the final batch's running count must equal the
    outcome's accumulated count.
    """
    if outcome.delta_violations:
        return OracleFailure(
            "delta-once", f"matcher recorded {outcome.delta_violations} "
            f"fold violations (duplicate addition or unmatched retraction)")
    records = outcome.delta_batches or []
    for i, rec in enumerate(records):
        for key in ("duplicate_additions", "duplicate_retractions",
                    "stale_additions", "missing_retractions"):
            if rec.get(key, 0):
                return OracleFailure(
                    "delta-once",
                    f"batch {i}: {rec[key]} {key.replace('_', ' ')} "
                    f"(additions={rec['additions']}, "
                    f"retractions={rec['retractions']})")
    if records and records[-1].get("count_after") != outcome.count:
        return OracleFailure(
            "delta-once",
            f"running count after final batch "
            f"({records[-1].get('count_after')}) != accumulated count "
            f"({outcome.count})")
    return None


# -- the census family ---------------------------------------------------------


#: one isomorphism class in the census reference: its permutation-minimal
#: edge list, which doubles as a representative pattern on k vertices
_ClassKey = tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class CensusReference:
    """Brute-force ground truth for one size-k census workload."""

    k: int
    total: int
    """Number of connected k-vertex subsets of the data graph."""
    counts: dict[_ClassKey, int]
    """Census count per class, keyed by permutation-minimal edge list."""
    labelled_counts: dict[_ClassKey, int] | None
    """Ordered induced embedding count per class (brute-force over all
    injections), or ``None`` when the sweep exceeded the perm budget."""


def _perm_min_edges(k: int, edges: _ClassKey) -> _ClassKey:
    """Lexicographically smallest relabelling of ``edges`` over all k!
    permutations — the O(k!) canonical form the census itself no longer
    uses, kept as the oracles' independent classifier."""
    best = None
    for perm in permutations(range(k)):
        mapped = tuple(sorted(
            (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
            for a, b in edges))
        if best is None or mapped < best:
            best = mapped
    return best


def _edges_connected(k: int, edges: _ClassKey) -> bool:
    """Whether ``edges`` connect all ``k`` local vertices (DFS)."""
    adj: list[list[int]] = [[] for _ in range(k)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == k


def _map_edges(edges: _ClassKey, perm) -> frozenset:
    """``edges`` relabelled by ``perm``, as an order-free set."""
    return frozenset(
        (perm[a], perm[b]) if perm[a] < perm[b] else (perm[b], perm[a])
        for a, b in edges)


def compute_census_reference(workload: Workload, k: int) -> CensusReference:
    """Brute-force size-``k`` census of the workload's data graph.

    Sweeps every ``itertools.combinations`` k-subset, keeps the connected
    ones and classifies each by :func:`_perm_min_edges` — sharing nothing
    with the ESU walk, the bitset adjacency or the WL+BnB canonicaliser
    under test.  When ``C(n, k) · k!`` fits the permutation budget it also
    counts ordered induced embeddings per class (every injective map from
    the class representative onto a subset), which the automorphism oracle
    divides back down.
    """
    graph = workload.graph()
    n = graph.num_vertices
    adj = [frozenset(int(v) for v in graph.neighbours(u)) for u in range(n)]
    locals_ = list(combinations(range(k), 2))
    sweep = k <= n and comb(n, k) * factorial(k) <= _CENSUS_LABELLED_BUDGET
    all_perms = list(permutations(range(k))) if sweep else []
    counts: dict[_ClassKey, int] = {}
    labelled: dict[_ClassKey, int] = {}
    total = 0
    for combo in combinations(range(n), k):
        edges = tuple((i, j) for i, j in locals_
                      if combo[j] in adj[combo[i]])
        if not _edges_connected(k, edges):
            continue
        key = _perm_min_edges(k, edges)
        counts[key] = counts.get(key, 0) + 1
        total += 1
        if sweep:
            eset = frozenset(edges)
            labelled[key] = labelled.get(key, 0) + sum(
                1 for perm in all_perms if _map_edges(key, perm) == eset)
    return CensusReference(k=k, total=total, counts=counts,
                           labelled_counts=labelled if sweep else None)


def _check_census_total(outcome: CaseOutcome,
                        ref: CensusReference) -> OracleFailure | None:
    if outcome.census_total != ref.total:
        return OracleFailure(
            "census-total",
            f"census enumerated {outcome.census_total} connected "
            f"{ref.k}-subgraphs, brute force finds {ref.total}")
    if outcome.census_counts is not None \
            and sum(outcome.census_counts.values()) != outcome.census_total:
        return OracleFailure(
            "census-total",
            f"per-class counts sum to "
            f"{sum(outcome.census_counts.values())}, not the reported "
            f"total {outcome.census_total}")
    return None


def _check_census_classes(outcome: CaseOutcome,
                          ref: CensusReference) -> OracleFailure | None:
    if outcome.census_counts is None or outcome.census_class_keys is None:
        return OracleFailure(
            "census-classes", "census run exposed no per-class counts")
    key_to_name = {key: name
                   for name, key in outcome.census_class_keys.items()}
    expected = dict.fromkeys(outcome.census_counts, 0)
    for rep, count in ref.counts.items():
        prod_key = QueryGraph(ref.k, list(rep)).canonical_key()
        name = key_to_name.get(prod_key)
        if name is None:
            return OracleFailure(
                "census-classes",
                f"brute-force class {rep} canonicalises to a key unknown "
                f"to the census ({prod_key!r})")
        # += so a canonicaliser collision (two brute-force classes landing
        # on one key) inflates that class and trips the comparison below
        expected[name] += count
    diverged = {name: (outcome.census_counts.get(name), want)
                for name, want in expected.items()
                if outcome.census_counts.get(name) != want}
    if diverged:
        return OracleFailure(
            "census-classes",
            f"per-class counts diverge from brute force "
            f"(got, want): {diverged}")
    return None


def _check_census_automorphism(ref: CensusReference) -> OracleFailure | None:
    ident = tuple(range(ref.k))
    for rep, count in ref.counts.items():
        brute_aut = sum(1 for perm in permutations(ident)
                        if _map_edges(rep, perm) == frozenset(rep))
        prod_aut = automorphism_count(QueryGraph(ref.k, list(rep)))
        if brute_aut != prod_aut:
            return OracleFailure(
                "census-automorphism",
                f"|Aut| mismatch for class {rep}: brute force {brute_aut}, "
                f"automorphism_count says {prod_aut}")
        if ref.labelled_counts is None:
            continue
        labelled = ref.labelled_counts[rep]
        if labelled != count * brute_aut:
            return OracleFailure(
                "census-automorphism",
                f"class {rep}: {labelled} labelled embeddings != census "
                f"{count} × |Aut| {brute_aut} (labelled counts must "
                f"divide by the automorphism order exactly)")
    return None


def check_census_case(workload: Workload, spec: EngineSpec,
                      outcome: CaseOutcome,
                      ref: CensusReference | None = None
                      ) -> list[OracleFailure]:
    """Run the census oracle family on one census-spec outcome."""
    if outcome.error is not None:
        return [OracleFailure("error", outcome.error)]
    if ref is None:
        ref = compute_census_reference(workload, spec.census_k)
    return [failure for failure in (
        _check_census_total(outcome, ref),
        _check_census_classes(outcome, ref),
        _check_census_automorphism(ref),
    ) if failure is not None]
