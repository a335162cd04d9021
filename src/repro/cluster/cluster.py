"""The simulated shared-nothing cluster.

``Cluster`` bundles a partitioned data graph, a cost model and the metrics
ledger, and exposes the two communication primitives of the paper's
architecture (§4.1), one method each:

* **GetNbrs RPC** (:meth:`Cluster.pull`) — pulling communication: a
  machine requests the adjacency lists of an id array from their owners.
  Requests are aggregated per owner (one message pair per owner per
  call), which is exactly the RPC-batching effect Exp-4 measures.  It is
  the only pulling primitive: it accounts the transfer and returns entry
  sizes; the adjacency itself every caller reads from the CSR.
* **Router pushes** (:meth:`Cluster.push`) — pushing communication: a
  machine ships a batch of partial-result tuples to a destination machine.

All byte/message accounting flows into :class:`~repro.cluster.metrics.Metrics`.
The cluster is single-process and deterministic; "machines" are indices.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from ..graph.graph import Graph
from ..graph.partition import PartitionedGraph
from ..obs.trace import NULL_TRACER
from .cost import CostModel
from .metrics import Metrics

__all__ = ["Cluster"]


class Cluster:
    """A simulated ``k``-machine shared-nothing cluster.

    Parameters
    ----------
    graph:
        The data graph to partition across machines.
    num_machines:
        Cluster size ``k`` (paper default: 10-machine local cluster).
    workers_per_machine:
        Worker threads per machine (paper default: 4 in the local cluster).
    cost:
        The cost model converting counted work into simulated time.
    seed:
        Seed for the random vertex partitioning.
    """

    def __init__(self, graph: Graph, num_machines: int = 10,
                 workers_per_machine: int = 4,
                 cost: CostModel | None = None, seed: int = 0,
                 labels: "np.ndarray | None" = None,
                 owner: "np.ndarray | None" = None):
        self.cost = cost or CostModel()
        self.pgraph = PartitionedGraph(graph, num_machines, seed=seed,
                                       owner=owner)
        self.metrics = Metrics(num_machines, workers_per_machine, self.cost)
        self.num_machines = num_machines
        self.workers_per_machine = workers_per_machine
        #: set by the engine for the duration of a traced run; RPC service
        #: time lands on the owner machine's clock, so the serve spans must
        #: be emitted here, where that charge happens
        self.tracer = NULL_TRACER
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64)
            if len(labels) != graph.num_vertices:
                raise ValueError("need one label per vertex")
            labels.setflags(write=False)
        self.labels = labels

    # -- convenience -----------------------------------------------------------

    @property
    def graph(self) -> Graph:
        """The global data graph (planner use)."""
        return self.pgraph.graph

    @cached_property
    def probe_ticks(self) -> np.ndarray:
        """This graph's :meth:`~repro.cluster.cost.CostModel.probe_tick_table`
        (ticks per galloping probe, by adjacency length) — the one table
        every intersect path of every engine on this cluster indexes."""
        return self.cost.probe_tick_table(self.pgraph.graph.max_degree)

    def machine_of(self, v: int) -> int:
        """Owner machine of vertex ``v``."""
        return self.pgraph.owner_of(v)

    def local_vertices(self, machine: int) -> np.ndarray:
        """Vertices owned by ``machine``."""
        return self.pgraph.local_vertices(machine)

    def reset_metrics(self) -> None:
        """Start a fresh metrics ledger (same cluster/partitioning)."""
        self.metrics = Metrics(self.num_machines, self.workers_per_machine,
                               self.cost)

    # -- pulling: the GetNbrs RPC -----------------------------------------------

    def pull(self, requester, vertices: np.ndarray) -> np.ndarray:
        """Account a ``GetNbrs`` for an id array and return each vertex's
        entry size ``1 + degree`` (what its response carries and what it
        occupies in a cache).

        ``requester`` is one machine or a column with one per vertex (a
        stacked step's requests).  Vertices owned by their requester are
        free; the rest are grouped by (requester, owner) — two
        ``bincount``s — and charged as **one request/response pair per
        pair** (the fetch-stage RPC aggregation of §4.4), the ledger
        updated once per machine; in a trace each owner serves one span.
        The adjacency itself is not handed over: callers read the CSR.
        """
        k = self.num_machines
        indptr = self.pgraph.graph.indptr
        sizes = indptr[vertices + 1] - indptr[vertices] + 1
        pairs = np.asarray(requester) * k + self.pgraph.owner[vertices]
        requested = np.bincount(pairs, minlength=k * k)
        requested[::k + 1] = 0
        live = np.flatnonzero(requested)
        if not len(live):
            return sizes
        # weighted bincount sums in float64: exact for ids below 2**53
        response_ids = np.bincount(pairs, sizes, k * k)[live].astype(np.int64)
        self.account_pulls(live, requested[live], response_ids)
        return sizes

    def account_pulls(self, pairs: np.ndarray, requests: np.ndarray,
                      response_ids: np.ndarray) -> None:
        """Charge aggregated ``GetNbrs``: pair ``i`` is requester
        ``pairs[i] // k`` asking owner ``pairs[i] % k`` (distinct, never
        its own) for ``requests[i]`` vertices whose responses carry
        ``response_ids[i]`` ids — one request/response pair each, the
        ledger charged in one call per column; in a trace each owner
        serves one span.  :meth:`pull` ends here, and so does a compiled
        PULL-EXTEND step, which counts its pairs itself."""
        cost, metrics, tracer = self.cost, self.metrics, self.tracer
        k = self.num_machines
        src, owner = np.divmod(pairs, k)
        if tracer.enabled:
            t0 = tracer.now_all()
        metrics.send_many(
            np.concatenate((src, owner)), np.concatenate((owner, src)),
            np.concatenate((cost.rpc_request_overhead_bytes
                            + requests * cost.bytes_per_id,
                            response_ids * cost.bytes_per_id)))
        metrics.record_rpc(src)
        if tracer.enabled:
            served = np.bincount(owner, response_ids, k).astype(np.int64)
            for o in np.unique(owner).tolist():
                tracer.complete("rpc serve", o, t0[o], tracer.now(o),
                                {"requests": int((owner == o).sum()),
                                 "ids": int(served[o])})

    # -- pushing: the router ------------------------------------------------------

    def push(self, src: int, dst: int, num_tuples: int, arity: int,
             messages: int = 1) -> None:
        """Account a pushed batch of ``num_tuples`` arity-``arity`` tuples."""
        if num_tuples <= 0:
            return
        self.metrics.send(
            src, dst, num_tuples * arity * self.cost.bytes_per_id, messages)

    # -- sizing helpers -------------------------------------------------------------

    def graph_bytes(self) -> int:
        """Approximate size of the whole data graph on the wire."""
        g = self.pgraph.graph
        return (2 * g.num_edges + g.num_vertices) * self.cost.bytes_per_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Cluster(k={self.num_machines}, "
                f"w={self.workers_per_machine}, graph={self.pgraph.graph!r})")
