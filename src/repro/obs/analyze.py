"""``explain --analyze``: run a query under tracing and annotate the plan.

Each plan node is matched to the dataflow operator that produces its
partial results (by output schema), then shown with the optimiser's
cardinality estimate next to the traced actuals — tuples, batches,
simulated time (split into fetch/intersect for ``PULL-EXTEND``), bytes
moved and cache hit rate.  This is the span-level evidence behind the
paper's §4–§5 arguments, per plan node instead of per run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..core.plan.tree import CommMode
from .trace import OperatorStats, Tracer

__all__ = ["NodeActuals", "AnalyzeReport", "analyze"]


@dataclass
class NodeActuals:
    """One plan node's estimate vs traced actuals."""

    label: str
    opid: str | None
    kind: str
    est_cardinality: float
    stats: OperatorStats | None

    @property
    def q_error(self) -> float | None:
        """``max(est/actual, actual/est)`` — how far off the optimiser's
        estimate was, as a factor ≥ 1.  Both sides are floored at one
        tuple (the estimator's own floor); ``None`` for a node that
        never materialised."""
        if self.stats is None:
            return None
        est = max(self.est_cardinality, 1.0)
        actual = max(self.stats.tuples_out, 1)
        return max(est / actual, actual / est)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view of this node."""
        st = self.stats
        return {
            "label": self.label,
            "operator": self.opid,
            "kind": self.kind,
            "est_cardinality": self.est_cardinality,
            "actual": st.tuples_out if st else None,
            "q_error": self.q_error,
        }

    def render(self) -> list[str]:
        """The indented lines describing this node."""
        head = f"{self.label}"
        if self.opid is None:
            return [head, "    (never materialised — fused into a pulling "
                          "extend)"]
        st = self.stats
        head += f"  ->  {self.opid} [{self.kind}]"
        lines = [head]
        lines.append(f"    est |R| = {self.est_cardinality:.4g}"
                     f"    actual = {st.tuples_out} tuples"
                     f" in {st.batches} batches"
                     f"    q-error = {self.q_error:.3g}")
        time_bits = [f"time {st.time_s:.6f}s"]
        if st.fetch_time_s or st.intersect_time_s:
            time_bits.append(f"(fetch {st.fetch_time_s:.6f}s"
                             f" + intersect {st.intersect_time_s:.6f}s)")
        if st.build_time_s or st.probe_time_s:
            time_bits.append(f"(build {st.build_time_s:.6f}s"
                             f" + probe {st.probe_time_s:.6f}s)")
        lines.append("    " + " ".join(time_bits)
                     + f"  bytes {st.bytes}")
        accesses = st.cache_hits + st.cache_misses
        if accesses:
            lines.append(f"    cache hit-rate {st.cache_hit_rate:.1%}"
                         f" ({st.cache_hits}/{accesses})")
        return lines


@dataclass
class AnalyzeReport:
    """The full ``explain --analyze`` output for one traced run."""

    result: Any
    rows: list[NodeActuals]
    coverage: float

    @property
    def max_q_error(self) -> float | None:
        """Worst per-node q-error of the plan (``None`` if no node
        materialised)."""
        return max((row.q_error for row in self.rows
                    if row.q_error is not None), default=None)

    def as_dict(self) -> dict[str, Any]:
        """JSON-ready view: per-node estimate / actual / q-error."""
        return {
            "count": self.result.count,
            "nodes": [row.as_dict() for row in self.rows],
            "max_q_error": self.max_q_error,
            "coverage": self.coverage,
        }

    def render(self) -> str:
        """Human-readable report."""
        r = self.result
        lines = [r.plan.describe(), "", "analyze (estimate vs traced run):"]
        for row in self.rows:
            lines.extend("  " + ln for ln in row.render())
        lines.append("")
        if self.max_q_error is not None:
            lines.append(f"  max q-error: {self.max_q_error:.3g}")
        rep = r.report
        lines.append(
            f"  matches: {r.count}   total {rep.total_time_s:.6f}s "
            f"(compute {rep.compute_time_s:.6f}s, "
            f"comm {rep.comm_time_s:.6f}s)")
        lines.append(
            f"  comm {rep.bytes_transferred} bytes in {rep.messages} msgs   "
            f"peak mem {rep.peak_memory_bytes:.0f} bytes   "
            f"cache hit-rate {rep.cache_hit_rate:.1%}")
        lines.append(f"  span coverage of critical machine: "
                     f"{self.coverage:.1%}")
        return "\n".join(lines)


def analyze(engine, query=None, plan=None) -> AnalyzeReport:
    """Run ``query``/``plan`` on ``engine`` with tracing and build the
    node-by-node estimate-vs-actual report."""
    tracer = Tracer()
    result = engine.run(query=query, plan=plan, tracer=tracer)
    trace = result.trace
    stats = trace.per_operator()
    # declaration order == the segment tree's operator table == chain
    # order (segments post-order, then source -> extends); a plan node maps
    # to the LAST operator with its vertex set, so verify extends and
    # pulling-join rewrites resolve to the operator that finishes the
    # node's partial results
    decls = list(trace.operators.items())

    def find_op(vertices) -> str | None:
        target = set(vertices)
        match = None
        for opid, decl in decls:
            if set(decl.get("schema", ())) == target:
                match = opid
        return match

    def fmt(sub) -> str:
        return "{" + ",".join(f"{u}-{v}" for u, v in sorted(sub.edges)) + "}"

    join_no = {id(n): i for i, n in enumerate(result.plan.joins(), 1)}
    # the star side of a pulling join is extended onto the left side's
    # rows, never materialised on its own — it must not borrow the
    # join's operator (same vertex set) and report the join's actuals
    fused = {id(j.operands[1]) for j in result.plan.joins()
             if j.setting.comm is CommMode.PULLING}
    rows: list[NodeActuals] = []
    for node in result.plan.nodes():
        if node.is_leaf:
            label = f"unit {fmt(node.sub)}"
        else:
            label = f"J{join_no[id(node)]} {fmt(node.sub)} {node.setting}"
        pattern, _ = node.sub.to_query_graph()
        est = engine.estimator.estimate(pattern)
        opid = None if id(node) in fused else find_op(node.sub.vertices)
        rows.append(NodeActuals(
            label=label,
            opid=opid,
            kind=trace.operators[opid]["kind"] if opid else "",
            est_cardinality=est,
            stats=stats.get(opid) if opid else None,
        ))
    coverage = trace.coverage(result.report.total_time_s,
                              result.report.per_machine_time_s)
    return AnalyzeReport(result=result, rows=rows, coverage=coverage)
