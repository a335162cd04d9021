"""Runtime accounting: ops, bytes, messages, memory — and derived times.

Every engine charges its work here.  The report mirrors the paper's
metrics: total time ``T``, computation time ``T_R``, communication time
``T_C = T − T_R``, total transferred volume ``C`` and peak per-machine
memory ``M`` (Table 1), plus per-worker busy times for the load-balancing
experiment (Exp-8) and cache hit rates for Exp-5.

The ledger is one ``int64`` column per counter (:data:`COLUMNS`: compute
in ticks — see :mod:`repro.cluster.cost` — KV-store stalls as a request
count, memory and traffic in bytes), indexed by machine, and a ``(k,
workers)`` column of per-worker ticks.  Every charging method takes one
machine id or a column of them, so a stacked step charges all its
machines at once; integer sums are exact in any order, and floats are
refused (an ``int64`` column would truncate them silently).  Memory is
where order matters — a machine's peak and a budget error depend on its
sequence of allocations — so :meth:`Metrics.alloc` / :meth:`Metrics.free`
apply a column of distinct machines as a loop over it would, and a
machine's own sequence stays one call per allocation.  Seconds are
derived when a time is *read*, as ``float64`` column expressions
(elementwise the IEEE operations Python's floats do); the worker-time
stddev is summed in Python, machine-major, as it always was.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import index

import numpy as np

from .cost import CostModel
from .errors import OutOfMemoryError, OvertimeError

__all__ = ["COLUMNS", "Metrics", "RunReport"]

#: The ``(k,)`` counter columns, by :class:`Metrics` attribute name
COLUMNS = (
    "compute_ops",        # ticks
    "kv_requests",        # external KV-store round trips (client stalls)
    "bytes_sent", "messages_sent", "bytes_received", "messages_received",
    "rpc_requests", "cache_hits", "cache_misses",
    "cur_mem_bytes", "peak_mem_bytes", "spilled_bytes",
    "steals", "mem_underflows",
)


def _ints(values) -> np.ndarray:
    """``values`` as an integer array; floats are refused."""
    values = np.asarray(values)
    if values.dtype.kind not in "iub":
        raise TypeError(f"the ledger counts integers, not {values.dtype}")
    return values


def _add(column: np.ndarray, machine, amount) -> None:
    """``column[machine] += amount`` for one machine or a column of them
    (``amount`` one for all or one each; a repeated machine adds up)."""
    if isinstance(machine, (int, np.integer)) and column.ndim == 1:
        column[machine] += index(amount)  # refuses floats too
    else:
        np.add.at(column, machine, _ints(amount))


@dataclass(frozen=True)
class RunReport:
    """Summary of one query execution (the paper's T/T_R/T_C/C/M)."""

    total_time_s: float
    compute_time_s: float
    comm_time_s: float
    bytes_transferred: int
    messages: int
    peak_memory_bytes: int
    cache_hit_rate: float
    worker_time_stddev_s: float
    aggregate_worker_time_s: float
    network_utilisation: float
    per_machine_time_s: tuple[float, ...]
    mem_underflows: int = 0

    @property
    def comm_gb(self) -> float:
        """Transferred volume in GB (the paper's ``C``)."""
        return self.bytes_transferred / 1e9

    @property
    def peak_memory_gb(self) -> float:
        """Peak per-machine memory in GB (the paper's ``M``)."""
        return self.peak_memory_bytes / 1e9

    def as_dict(self) -> dict:
        """JSON-serialisable view of the report (all fields + derived GB)."""
        return {
            "total_time_s": self.total_time_s,
            "compute_time_s": self.compute_time_s,
            "comm_time_s": self.comm_time_s,
            "bytes_transferred": self.bytes_transferred,
            "comm_gb": self.comm_gb,
            "messages": self.messages,
            "peak_memory_bytes": self.peak_memory_bytes,
            "peak_memory_gb": self.peak_memory_gb,
            "cache_hit_rate": self.cache_hit_rate,
            "worker_time_stddev_s": self.worker_time_stddev_s,
            "aggregate_worker_time_s": self.aggregate_worker_time_s,
            "network_utilisation": self.network_utilisation,
            "per_machine_time_s": list(self.per_machine_time_s),
            "mem_underflows": self.mem_underflows,
        }


class Metrics:
    """Cluster-wide accounting with budget enforcement: the columns of
    :data:`COLUMNS` by machine, ``worker_ops`` by machine and worker."""

    def __init__(self, num_machines: int, workers_per_machine: int,
                 cost: CostModel):
        if num_machines < 1 or workers_per_machine < 1:
            raise ValueError("need at least one machine and one worker")
        self.cost = cost
        self.num_machines = num_machines
        self.workers_per_machine = workers_per_machine
        self._counts = np.zeros((len(COLUMNS), num_machines), dtype=np.int64)
        for name, column in zip(COLUMNS, self._counts):
            setattr(self, name, column)
        self.worker_ops = np.zeros((num_machines, workers_per_machine),
                                   dtype=np.int64)
        self._extra_mem_bytes = 0  # constant overheads (cache capacity etc.)

    # -- charging -------------------------------------------------------------

    def charge_ops(self, machine, ticks) -> None:
        """Charge weighted compute ops, in ticks, to a machine or a column
        of machines (no worker's share: see :meth:`charge_worker_ops`)."""
        _add(self.compute_ops, machine, ticks)

    def charge_worker_ops(self, machine, per_worker) -> None:
        """Charge per-worker tick totals at once: one row of them for one
        machine, one row per machine for a column."""
        per_worker = _ints(per_worker)
        _add(self.compute_ops, machine, per_worker.sum(-1))
        _add(self.worker_ops, machine, per_worker)

    def charge_kv_requests(self, machine, requests=1) -> None:
        """Count external KV-store round trips; each stalls the client
        for ``kvstore_request_s`` of *compute* time when a time is read."""
        _add(self.kv_requests, machine, requests)

    def send(self, src: int, dst: int, num_bytes: int, messages: int = 1) -> None:
        """Record a network transfer from ``src`` to ``dst``.

        Local (``src == dst``) moves are free — data stays in-process.
        """
        if src == dst:
            return
        num_bytes, messages = index(num_bytes), index(messages)
        self.bytes_sent[src] += num_bytes
        self.messages_sent[src] += messages
        self.bytes_received[dst] += num_bytes
        self.messages_received[dst] += messages

    def send_many(self, src: np.ndarray, dst: np.ndarray,
                  num_bytes: np.ndarray) -> None:
        """:meth:`send` for arrays of one-message transfers, each column
        updated once (weighted ``bincount`` sums in float64 — exact below
        2**53 bytes)."""
        k = self.num_machines
        remote = src != dst
        src, dst, num_bytes = src[remote], dst[remote], num_bytes[remote]
        self.bytes_sent += np.bincount(src, num_bytes, k).astype(np.int64)
        self.bytes_received += np.bincount(dst, num_bytes, k).astype(np.int64)
        self.messages_sent += np.bincount(src, minlength=k)
        self.messages_received += np.bincount(dst, minlength=k)

    def send_external(self, machine, num_bytes, messages=1) -> None:
        """Record a transfer to an *off-cluster* endpoint (external KV
        store): only the requesting machine's NIC is charged, so unlike
        :meth:`send` this is never a free ``src == dst`` self-send on a
        single-machine cluster."""
        _add(self.bytes_sent, machine, num_bytes)
        _add(self.messages_sent, machine, messages)

    def record_rpc(self, machine, requests=1) -> None:
        """Count RPC round trips issued by ``machine``."""
        _add(self.rpc_requests, machine, requests)

    def record_cache(self, machine, hits=0, misses=0) -> None:
        """Record cache hit/miss counts for a machine."""
        _add(self.cache_hits, machine, hits)
        _add(self.cache_misses, machine, misses)

    def record_steal(self, machine) -> None:
        """Count one work-steal event initiated by ``machine``."""
        _add(self.steals, machine, 1)

    def record_spill(self, machine, num_bytes) -> None:
        """Record bytes spilled to disk by a buffered join."""
        _add(self.spilled_bytes, machine, num_bytes)

    def absorb(self, run: "Metrics") -> None:
        """Fold the ledger of a finished run on the same cluster shape
        into this one (an application looping over engine runs): counters
        add per machine and per worker, the memory peak is the larger of
        the two, and the run's live allocation is not carried."""
        if run.worker_ops.shape != self.worker_ops.shape:
            raise ValueError("absorb needs a ledger of the same shape")
        peak = np.maximum(self.peak_mem_bytes, run.peak_mem_bytes)
        cur = self.cur_mem_bytes.copy()
        self._counts += run._counts
        self.peak_mem_bytes[:], self.cur_mem_bytes[:] = peak, cur
        self.worker_ops += run.worker_ops

    # -- memory ---------------------------------------------------------------

    def alloc(self, machine, num_bytes) -> None:
        """Allocate simulated memory on a machine, or on each of a column
        of distinct machines in turn; raises ``OutOfMemoryError`` at the
        first machine over budget, which stays charged (the machines
        after it are not)."""
        budget = self.cost.memory_budget_bytes
        if isinstance(machine, (int, np.integer)):
            cur = int(self.cur_mem_bytes[machine]) + index(num_bytes)
            self.cur_mem_bytes[machine] = cur
            total = cur + self._extra_mem_bytes
            if total > self.peak_mem_bytes[machine]:
                self.peak_mem_bytes[machine] = total
            if total > budget:
                raise OutOfMemoryError(machine, total, budget)
            return
        machine = np.asarray(machine)
        cur = self.cur_mem_bytes[machine] + _ints(num_bytes)
        total = cur + self._extra_mem_bytes
        over = np.flatnonzero(total > budget)
        n = int(over[0]) + 1 if len(over) else len(machine)
        charged = machine[:n]
        self.cur_mem_bytes[charged] = cur[:n]
        self.peak_mem_bytes[charged] = np.maximum(
            self.peak_mem_bytes[charged], total[:n])
        if len(over):
            raise OutOfMemoryError(int(charged[-1]), int(total[n - 1]),
                                   budget)

    def free(self, machine, num_bytes) -> None:
        """Release simulated memory on a machine or a column of distinct
        machines.  Freeing more than is allocated is a double-free
        accounting bug: the balance is still clamped to 0 (the simulation
        keeps running) and the underflow counted, for the conformance
        memory oracle to flag."""
        if isinstance(machine, (int, np.integer)):
            num_bytes, cur = index(num_bytes), int(self.cur_mem_bytes[machine])
            self.mem_underflows[machine] += num_bytes > cur
            self.cur_mem_bytes[machine] = max(0, cur - num_bytes)
            return
        num_bytes = _ints(num_bytes)
        cur = self.cur_mem_bytes[machine]
        self.mem_underflows[machine] += num_bytes > cur
        self.cur_mem_bytes[machine] = np.maximum(cur - num_bytes, 0)

    def reserve_constant(self, num_bytes: int) -> None:
        """Add a constant per-machine overhead (cache capacity, buffers)."""
        self._extra_mem_bytes += index(num_bytes)
        self.alloc(np.arange(self.num_machines), 0)

    # -- derived times ----------------------------------------------------------

    def compute_time(self, machine=slice(None)):
        """Simulated computation time ``T_R`` per machine (a column), or
        of one machine."""
        return (self.cost.ticks_to_seconds(self.compute_ops[machine])
                + self.kv_requests[machine] * self.cost.kvstore_request_s)

    def comm_time(self, machine=slice(None)):
        """Simulated communication time per machine (a column), or of one
        machine.

        Both directions count: a machine receiving a skewed hash-shuffle
        (all tuples of a hub join key) is bottlenecked on ingestion even
        if it sends little — the receiver-side skew that makes pushing
        systems' real communication time far worse than line rate.
        """
        return self.cost.transfer_seconds(
            self.bytes_sent[machine] + self.bytes_received[machine],
            self.messages_sent[machine] + self.messages_received[machine])

    def machine_time(self, machine=slice(None)):
        """Total simulated time per machine (a column), or of one machine."""
        return self.compute_time(machine) + self.comm_time(machine)

    def elapsed(self) -> float:
        """Cluster elapsed time = the slowest machine (shared-nothing)."""
        return float(self.machine_time().max())

    def check_time(self) -> None:
        """Raise ``OvertimeError`` if the time budget is exhausted."""
        if self.cost.time_budget_s == math.inf:
            return  # no elapsed time exceeds it
        elapsed = self.elapsed()
        if elapsed > self.cost.time_budget_s:
            raise OvertimeError(elapsed, self.cost.time_budget_s)

    # -- reporting ----------------------------------------------------------------

    def report(self) -> RunReport:
        """Snapshot the paper's metrics for the run so far."""
        total = self.elapsed()
        compute = float(self.compute_time().max())
        comm = max(0.0, total - compute)
        bytes_total = int(self.bytes_sent.sum())
        messages = int(self.messages_sent.sum())
        hits, misses = int(self.cache_hits.sum()), int(self.cache_misses.sum())
        hit_rate = hits / (hits + misses) if hits + misses else 0.0

        worker_times = self.cost.ticks_to_seconds(self.worker_ops).ravel()
        aggregate = self.cost.ticks_to_seconds(int(self.worker_ops.sum()))
        mean = aggregate / len(worker_times)
        stddev = math.sqrt(sum((t - mean) ** 2 for t in worker_times.tolist())
                           / len(worker_times))

        # Exp-4's network utilisation: share of communication time spent
        # actually moving bytes (the rest is per-message latency).
        wire = bytes_total / self.cost.bandwidth_bytes_per_s
        lat = messages * self.cost.latency_s
        utilisation = wire / (wire + lat) if (wire + lat) > 0 else 0.0

        return RunReport(
            total_time_s=total,
            compute_time_s=compute,
            comm_time_s=comm,
            bytes_transferred=bytes_total,
            messages=messages,
            peak_memory_bytes=int(self.peak_mem_bytes.max()),
            cache_hit_rate=hit_rate,
            worker_time_stddev_s=stddev,
            aggregate_worker_time_s=aggregate,
            network_utilisation=utilisation,
            per_machine_time_s=tuple(self.machine_time().tolist()),
            mem_underflows=int(self.mem_underflows.sum()),
        )
