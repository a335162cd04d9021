"""Simulated external distributed key-value store (BENU's Cassandra [13]).

BENU "stores the whole graph data in a distributed key-value store" and
pulls adjacency lists on demand.  The paper's diagnosis (§1, Exp-1) is that
"the main culprit is the large overhead of pulling (and accessing cached)
data from the external key-value store" — a per-request client stall plus
serialisation work that lands in *computation* time, not communication
time.  The simulation charges exactly that: every ``get`` counts one
store request (``kvstore_request_s`` of compute-side stall when times are
read), ``kvstore_access_op`` serialisation ops, and the wire bytes of the
request/response pair.

Loading the graph into the store also has a cost (Exp-3: BENU "fails to
load the graph into Cassandra within one day" for CW); ``load`` charges it
and raises ``OvertimeError`` when it alone blows the time budget.
"""

from __future__ import annotations

import numpy as np

from ..cluster.cluster import Cluster
from ..cluster.errors import OvertimeError

__all__ = ["ExternalKVStore"]


class ExternalKVStore:
    """A Cassandra-like store holding every vertex's adjacency list."""

    def __init__(self, cluster: Cluster, loaded: bool = False):
        self.cluster = cluster
        self._loaded = loaded
        self.requests = 0

    def load(self) -> None:
        """Bulk-load the data graph into the store.

        Charged as one write request per vertex on machine 0 (the loader),
        at the store's per-request overhead — which is what makes loading
        web-scale graphs into an external store impractical (Exp-3).
        """
        cost = self.cluster.cost
        g = self.cluster.graph
        load_s = g.num_vertices * cost.kvstore_request_s
        self.cluster.metrics.charge_kv_requests(0, g.num_vertices)
        # the store is off-cluster: the loader's NIC carries the whole graph
        # regardless of cluster size (the old in-cluster ``send`` degenerated
        # to a free machine-0 self-send on single-machine clusters)
        self.cluster.metrics.send_external(
            0, self.cluster.graph_bytes(), messages=g.num_vertices)
        self.cluster.metrics.check_time()
        if load_s > cost.time_budget_s:
            raise OvertimeError(load_s, cost.time_budget_s)
        self._loaded = True

    def get(self, machine: int, vertex: int) -> np.ndarray:
        """Fetch one adjacency list; charges the external-store overhead."""
        if not self._loaded:
            raise RuntimeError("KV store not loaded; call load() first")
        cost = self.cluster.cost
        metrics = self.cluster.metrics
        nbrs = self.cluster.graph.neighbours(vertex)
        metrics.charge_kv_requests(machine)
        metrics.charge_ops(machine, cost.ticks.kvstore_access)
        wire = (cost.rpc_request_overhead_bytes
                + (1 + len(nbrs)) * cost.bytes_per_id)
        # the store is external: the full round trip rides the client's NIC
        # (request + response = 2 messages; no in-cluster receiver exists)
        metrics.send_external(machine, wire, messages=2)
        metrics.record_rpc(machine)
        self.requests += 1
        return nbrs
