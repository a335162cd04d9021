"""Cross-query work sharing: shared-prefix grouping of concurrent requests.

The plan cache already shares *plans* across isomorphic requests; this
module shares *work*.  Concurrent queries whose translated dataflows
begin with the same star scan and ``PULL-EXTEND`` chain recompute an
identical stream of partial embeddings independently — a Zipf-skewed
production mix over a small pattern set wastes most of its cycles on
exactly this duplication.

A plan's **prefix signature**
(:func:`repro.core.dataflow.plan_signature`, the one place the
"single-segment scan + extend chain" test is written) is the tuple of
frozen operator specs of its translated chain::

    (ScanSpec, ExtendSpec, ExtendSpec, ...)

The specs are frozen dataclasses carrying *everything* the operator does
— schemas, extend indices, symmetry conditions, label constraints — so
literal equality of two signature prefixes guarantees the engine would
compute literally the same partial-embedding batches for both plans.
That is the sufficient condition for sharing (the shape-level necessary
condition is isomorphism of the cumulative join-unit prefixes, exposed
by :func:`repro.query.decompose.join_unit_prefix_keys`).  Multi-segment
plans (``PUSH-JOIN`` trees) never share: a pushing join is a global
synchronisation barrier with its own buffers, so the signature is
``None`` and the dispatcher runs them solo.

At dispatch time the service pops a leader, then gathers compatible
followers (same dataset / cluster shape / engine-config fingerprint,
scan specs equal) into a :class:`ShareGroup` — the query side of the
service's one task protocol (``run(worker) -> [(member, outcome)]``).
The engine's one run body (:meth:`HugeEngine.run_group`) executes the
group's longest common spec prefix **once**; for more than one member it
runs into a tee buffer and is replayed through each member's remaining
extends into a per-member sink.  Full isomorphism dedup is the case where
the prefix is every member's whole chain and the tails are empty; a solo
query is the group of one, with no tee at all.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.dataflow import plan_signature
from ..core.plan.tree import ExecutionPlan
from ..core.plan.translate import translate
from .request import QueryOutcome, QueryStatus, ResultChunk

__all__ = ["plan_signature", "signature_of_plan", "config_fingerprint",
           "ShareGroup", "MAX_SHARE_GROUP"]

#: most requests one dispatch batches into a single engine run (the
#: leader included)
MAX_SHARE_GROUP = 8


def signature_of_plan(plan: ExecutionPlan) -> tuple | None:
    """Translate ``plan`` and return its prefix signature (or ``None``).

    ``translate`` is pure spec construction (no data touched), so this is
    cheap enough to run once per plan-cache insert.
    """
    return plan_signature(translate(plan))


def config_fingerprint(config) -> str:
    """Grouping key for an effective engine config.

    Two requests may share an engine run only when every knob that
    affects *what the engine computes or charges* is identical.  The
    per-attempt fields are excluded: ``cancellation`` is ``repr=False``
    on the dataclass, and ``collect_results`` is forced ``False`` here
    because collection is per-member (each member gets its own sink).
    """
    return repr(replace(config, collect_results=False, cancellation=None))


class ShareGroup:
    """One dispatched query task: a leader plus piggybacking followers.

    Every dispatched query runs as a share group — a solo query is a
    group of one.  The group occupies a single worker (one dispatch
    unit) but every member stays individually in flight — reservations,
    tenant counts, cancellation flags and terminal delivery are all per
    member.  The group's :class:`~repro.core.cancel.CancelToken` is what
    the engine polls.  In a group of one it is also the member's token
    (cancelling the member aborts the run); in a larger group each
    member's private token is only a delivery-time flag (cancelling one
    member must not abort the others' shared run).
    """

    __slots__ = ("members", "token")

    #: members are tracked in the in-flight / per-tenant tables and are
    #: retried after a worker crash
    tracked = True

    def __init__(self, members: list, token):
        if not members:
            raise ValueError("a share group needs at least one member")
        self.members = members
        self.token = token

    @property
    def leader(self):
        return self.members[0]

    @property
    def seq(self) -> int:
        return self.leader.seq

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def label(self) -> str:
        return (self.leader.handle.request.label if self.size == 1
                else f"group#{self.seq}")

    def run(self, worker) -> list:
        """Execute the group on ``worker`` (its thread); returns
        ``[(member, outcome)]``.

        ``Executor.execute`` runs the common plan prefix once and each
        member's tail into its own sink; a group of one *is* a solo
        run.  A member cancelled
        by its client while the shared run was in progress gets a
        ``CANCELLED`` outcome while the rest of the group completes.
        Engine errors (cancellation, crash, failure) propagate to the
        lifecycle, which maps them for every member.
        """
        svc = worker.service
        members, size = self.members, self.size
        reqs = [e.handle.request for e in members]
        graph = self.leader.graph
        t0 = svc._now()
        runs = worker.executor.execute(
            reqs, graph, [e.pattern for e in members],
            plan_keys=[e.plan_key for e in members], token=self.token)
        t1 = svc._now()
        shared = ({"share_group": size,
                   "counts": [result.count for result, _ in runs]}
                  if size > 1 else {})
        t_plan = t0
        t_exec = t0 + sum(info["plan_s"] for _, info in runs)
        out = []
        for e, req, (result, info) in zip(members, reqs, runs):
            svc.emit("planned", req.seq, label=req.label, worker=worker.wid,
                     t0=t_plan, t1=t_plan + info["plan_s"],
                     cache_hit=info["plan_cache_hit"], plan_s=info["plan_s"],
                     key=info["canonical_key"])
            t_plan += info["plan_s"]
            svc.emit("executed", req.seq, task=self.label, leader=self.seq,
                     worker=worker.wid, attempt=e.attempts, t0=t_exec, t1=t1,
                     execute_s=info["execute_s"], count=result.count,
                     sim_time_s=result.report.total_time_s, **shared)
            if e.token is not self.token and e.token.cancelled:
                out.append((e, e.terminal(
                    QueryStatus.CANCELLED, e.token.reason, svc._now(),
                    info["execute_s"])))
                continue
            if req.stream:
                ts0 = svc._now()
                chunks = _stream_result(e.handle, result, svc._abort)
                svc.emit("streamed", req.seq, label=req.label,
                         worker=worker.wid, t0=ts0, t1=svc._now(),
                         chunks=chunks)
            svc._store_result(e, result.count, info["canonical_matches"])
            out.append((e, QueryOutcome(
                status=QueryStatus.COMPLETED, count=result.count,
                result=result, attempts=e.attempts,
                plan_cache_hit=info["plan_cache_hit"], shared_group=size,
                canonical_key=info["canonical_key"],
                queue_wait_s=e.dispatch_t - e.submit_t,
                plan_s=info["plan_s"], execute_s=info["execute_s"],
                total_s=svc._now() - e.submit_t)))
        return out


def _stream_result(handle, result, abort) -> int:
    """Deliver collected matches as bounded chunks; returns #chunks."""
    matches = result.matches or []
    result.matches = None  # delivered via the stream, not the outcome
    size = handle.request.chunk_size
    chunks = [matches[i:i + size] for i in range(0, len(matches), size)] \
        or [[]]
    for seq, rows in enumerate(chunks):
        chunk = ResultChunk(seq=seq, rows=rows, last=seq == len(chunks) - 1)
        if not handle._push_chunk(chunk, abort=abort):
            break
    return len(chunks)
