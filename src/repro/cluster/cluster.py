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

    def pull(self, requester: int, vertices: np.ndarray) -> np.ndarray:
        """Account a ``GetNbrs`` for an id array and return each vertex's
        entry size ``1 + degree`` (what its response carries and what it
        occupies in a cache).

        Vertices owned by ``requester`` are free; the rest are grouped by
        owner — two ``bincount``s — and charged as **one request/response
        pair per owner** (the fetch-stage RPC aggregation of §4.4).  The
        adjacency itself is not handed over: callers read the CSR.
        """
        cost, metrics, tracer = self.cost, self.metrics, self.tracer
        indptr = self.pgraph.graph.indptr
        sizes = indptr[vertices + 1] - indptr[vertices] + 1
        owners = self.pgraph.owner[vertices]
        requested = np.bincount(owners, minlength=self.num_machines)
        # weighted bincount sums in float64: exact for ids below 2**53
        response_ids = np.bincount(owners, weights=sizes,
                                   minlength=self.num_machines)
        requested[requester] = 0
        for owner in np.flatnonzero(requested).tolist():
            if tracer.enabled:
                t0 = tracer.now(owner)
            metrics.send(requester, owner,
                         cost.rpc_request_overhead_bytes
                         + int(requested[owner]) * cost.bytes_per_id,
                         messages=1)
            metrics.record_rpc(requester)
            ids = int(response_ids[owner])
            metrics.send(owner, requester, ids * cost.bytes_per_id,
                         messages=1)
            if tracer.enabled:
                tracer.complete("rpc serve", owner, t0, tracer.now(owner),
                                {"from": requester, "ids": ids})
        return sizes

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
