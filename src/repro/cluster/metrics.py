"""Runtime accounting: ops, bytes, messages, memory — and derived times.

Every engine charges its work here.  The report mirrors the paper's
metrics: total time ``T``, computation time ``T_R``, communication time
``T_C = T − T_R``, total transferred volume ``C`` and peak per-machine
memory ``M`` (Table 1), plus per-worker busy times for the load-balancing
experiment (Exp-8) and cache hit rates for Exp-5.

Every counter is an integer — compute in ticks (see
:mod:`repro.cluster.cost`), KV-store stalls as a request count, memory
and traffic in bytes — so the ledger's state does not depend on the order
charges arrive in.  Seconds are derived when a time is *read*
(:meth:`Metrics.compute_time` and everything built on it), never stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import index

from .cost import CostModel
from .errors import OutOfMemoryError, OvertimeError

__all__ = ["MachineMetrics", "Metrics", "RunReport"]


@dataclass
class MachineMetrics:
    """Counters for one simulated machine."""

    compute_ops: int = 0  # ticks
    kv_requests: int = 0  # external KV-store round trips (client stalls)
    bytes_sent: int = 0
    messages_sent: int = 0
    bytes_received: int = 0
    messages_received: int = 0
    rpc_requests: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cur_mem_bytes: int = 0
    peak_mem_bytes: int = 0
    spilled_bytes: int = 0
    steals: int = 0
    mem_underflows: int = 0
    worker_ops: list[int] = field(default_factory=list)  # ticks


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
    """Cluster-wide accounting with budget enforcement."""

    def __init__(self, num_machines: int, workers_per_machine: int,
                 cost: CostModel):
        if num_machines < 1 or workers_per_machine < 1:
            raise ValueError("need at least one machine and one worker")
        self.cost = cost
        self.num_machines = num_machines
        self.workers_per_machine = workers_per_machine
        self.machines = [
            MachineMetrics(worker_ops=[0] * workers_per_machine)
            for _ in range(num_machines)
        ]
        self._extra_mem_bytes = 0  # constant overheads (cache capacity etc.)

    # -- charging -------------------------------------------------------------

    def charge_ops(self, machine: int, ticks: int,
                   worker: int | None = None) -> None:
        """Charge weighted compute ops, in ticks, to a machine (and
        optionally to one of its workers, for per-worker load statistics)."""
        m = self.machines[machine]
        ticks = index(ticks)
        m.compute_ops += ticks
        if worker is not None:
            m.worker_ops[worker] += ticks

    def charge_worker_ops(self, machine: int, per_worker: list[int]) -> None:
        """Charge a batch of per-worker tick totals at once."""
        m = self.machines[machine]
        for w, ticks in enumerate(per_worker):
            ticks = index(ticks)
            m.worker_ops[w] += ticks
            m.compute_ops += ticks

    def charge_kv_requests(self, machine: int, requests: int = 1) -> None:
        """Count external KV-store round trips; each stalls the client
        for ``kvstore_request_s`` of *compute* time when a time is read."""
        self.machines[machine].kv_requests += index(requests)

    def send(self, src: int, dst: int, num_bytes: int, messages: int = 1) -> None:
        """Record a network transfer from ``src`` to ``dst``.

        Local (``src == dst``) moves are free — data stays in-process.
        """
        if src == dst:
            return
        m = self.machines[src]
        m.bytes_sent += num_bytes
        m.messages_sent += messages
        d = self.machines[dst]
        d.bytes_received += num_bytes
        d.messages_received += messages

    def send_external(self, machine: int, num_bytes: int,
                      messages: int = 1) -> None:
        """Record a transfer to an *off-cluster* endpoint (external KV store).

        Only the requesting machine's NIC is charged — the remote side is
        outside the simulated cluster, so there is no receiver machine to
        account and no in-cluster destination to pick.  Unlike :meth:`send`
        this never degenerates to a free ``src == dst`` self-send on
        single-machine clusters.
        """
        m = self.machines[machine]
        m.bytes_sent += num_bytes
        m.messages_sent += messages

    def record_rpc(self, machine: int, requests: int = 1) -> None:
        """Count RPC round trips issued by ``machine``."""
        self.machines[machine].rpc_requests += requests

    def record_cache(self, machine: int, hits: int = 0, misses: int = 0) -> None:
        """Record cache hit/miss counts for a machine."""
        m = self.machines[machine]
        m.cache_hits += hits
        m.cache_misses += misses

    def record_steal(self, machine: int) -> None:
        """Count one work-steal event initiated by ``machine``."""
        self.machines[machine].steals += 1

    def record_spill(self, machine: int, num_bytes: int) -> None:
        """Record bytes spilled to disk by a buffered join."""
        self.machines[machine].spilled_bytes += num_bytes

    def absorb(self, run: "Metrics") -> None:
        """Fold the ledger of a finished run on the same cluster shape
        into this one (an application looping over engine runs): counters
        add per machine and per worker, the memory peak is the larger of
        the two, and the run's live allocation is not carried."""
        for mine, theirs in zip(self.machines, run.machines, strict=True):
            for name, value in vars(theirs).items():
                if name == "worker_ops":
                    mine.worker_ops = [a + b for a, b in
                                       zip(mine.worker_ops, value, strict=True)]
                elif name == "peak_mem_bytes":
                    mine.peak_mem_bytes = max(mine.peak_mem_bytes, value)
                elif name != "cur_mem_bytes":
                    setattr(mine, name, getattr(mine, name) + value)

    # -- memory ---------------------------------------------------------------

    def alloc(self, machine: int, num_bytes: int) -> None:
        """Allocate simulated memory; raises ``OutOfMemoryError`` over budget."""
        m = self.machines[machine]
        m.cur_mem_bytes += index(num_bytes)
        total = m.cur_mem_bytes + self._extra_mem_bytes
        if total > m.peak_mem_bytes:
            m.peak_mem_bytes = total
        if total > self.cost.memory_budget_bytes:
            raise OutOfMemoryError(machine, total, self.cost.memory_budget_bytes)

    def free(self, machine: int, num_bytes: int) -> None:
        """Release simulated memory.

        Freeing more than is currently allocated indicates a double-free
        accounting bug; the balance is still clamped to 0 (the simulation
        keeps running) but the underflow is counted so the conformance
        memory oracle can flag it.
        """
        m = self.machines[machine]
        num_bytes = index(num_bytes)
        if num_bytes > m.cur_mem_bytes:
            m.mem_underflows += 1
        m.cur_mem_bytes = max(0, m.cur_mem_bytes - num_bytes)

    def reserve_constant(self, num_bytes: int) -> None:
        """Add a constant per-machine overhead (cache capacity, buffers)."""
        self._extra_mem_bytes += index(num_bytes)
        for i, m in enumerate(self.machines):
            total = m.cur_mem_bytes + self._extra_mem_bytes
            if total > m.peak_mem_bytes:
                m.peak_mem_bytes = total
            if total > self.cost.memory_budget_bytes:
                raise OutOfMemoryError(i, total, self.cost.memory_budget_bytes)

    # -- derived times ----------------------------------------------------------

    def compute_time(self, machine: int) -> float:
        """Simulated computation time ``T_R`` for one machine."""
        m = self.machines[machine]
        return (self.cost.ticks_to_seconds(m.compute_ops)
                + m.kv_requests * self.cost.kvstore_request_s)

    def comm_time(self, machine: int) -> float:
        """Simulated communication time for one machine.

        Both directions count: a machine receiving a skewed hash-shuffle
        (all tuples of a hub join key) is bottlenecked on ingestion even
        if it sends little — the receiver-side skew that makes pushing
        systems' real communication time far worse than line rate.
        """
        m = self.machines[machine]
        return self.cost.transfer_seconds(
            m.bytes_sent + m.bytes_received,
            m.messages_sent + m.messages_received)

    def machine_time(self, machine: int) -> float:
        """Total simulated time for one machine."""
        return self.compute_time(machine) + self.comm_time(machine)

    def elapsed(self) -> float:
        """Cluster elapsed time = the slowest machine (shared-nothing)."""
        return max(self.machine_time(i) for i in range(self.num_machines))

    def check_time(self) -> None:
        """Raise ``OvertimeError`` if the time budget is exhausted."""
        elapsed = self.elapsed()
        if elapsed > self.cost.time_budget_s:
            raise OvertimeError(elapsed, self.cost.time_budget_s)

    # -- reporting ----------------------------------------------------------------

    def report(self) -> RunReport:
        """Snapshot the paper's metrics for the run so far."""
        total = self.elapsed()
        compute = max(self.compute_time(i) for i in range(self.num_machines))
        comm = max(0.0, total - compute)
        bytes_total = sum(m.bytes_sent for m in self.machines)
        messages = sum(m.messages_sent for m in self.machines)
        peak = max(m.peak_mem_bytes for m in self.machines)
        hits = sum(m.cache_hits for m in self.machines)
        misses = sum(m.cache_misses for m in self.machines)
        hit_rate = hits / (hits + misses) if hits + misses else 0.0

        worker_times = [
            self.cost.ticks_to_seconds(ticks)
            for m in self.machines for ticks in m.worker_ops
        ]
        aggregate = self.cost.ticks_to_seconds(
            sum(ticks for m in self.machines for ticks in m.worker_ops))
        mean = aggregate / len(worker_times)
        stddev = math.sqrt(
            sum((t - mean) ** 2 for t in worker_times) / len(worker_times))

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
            peak_memory_bytes=peak,
            cache_hit_rate=hit_rate,
            worker_time_stddev_s=stddev,
            aggregate_worker_time_s=aggregate,
            network_utilisation=utilisation,
            per_machine_time_s=tuple(
                self.machine_time(i) for i in range(self.num_machines)),
            mem_underflows=sum(m.mem_underflows for m in self.machines),
        )
