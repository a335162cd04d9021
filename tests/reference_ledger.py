"""A scalar reference model of the ledger, and a column reader.

:class:`ScalarLedger` is :class:`~repro.cluster.metrics.Metrics` written
one machine at a time: a record of Python ints per machine, every
charge a scalar update, every derived time a Python float computed per
machine.  ``tests/test_cluster.py`` drives random call sequences
through both (a column call on the ledger, the loop over the column on
the model) and asserts the same state, the same ``RunReport`` and the
same exception at the same call.

:func:`columns` reads either as ``{column: per-machine list}``, which is
how tests compare two ledgers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import index

from repro.cluster import OutOfMemoryError, OvertimeError, RunReport
from repro.cluster.metrics import COLUMNS


@dataclass
class MachineRecord:
    """One machine's counters (Python ints)."""

    compute_ops: int = 0
    kv_requests: int = 0
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
    worker_ops: list[int] = field(default_factory=list)


def columns(ledger) -> dict[str, list]:
    """Every column of a ledger (or of a :class:`ScalarLedger`) as
    per-machine lists, ``worker_ops`` as a list of per-worker lists."""
    if isinstance(ledger, ScalarLedger):
        return {name: [getattr(m, name) for m in ledger.machines]
                for name in COLUMNS + ("worker_ops",)}
    return {name: getattr(ledger, name).tolist()
            for name in COLUMNS + ("worker_ops",)}


class ScalarLedger:
    """The ledger, one machine at a time (scalar machine ids only)."""

    def __init__(self, num_machines: int, workers_per_machine: int, cost):
        self.cost = cost
        self.num_machines = num_machines
        self.workers_per_machine = workers_per_machine
        self.machines = [MachineRecord(worker_ops=[0] * workers_per_machine)
                         for _ in range(num_machines)]
        self._extra_mem_bytes = 0

    def charge_ops(self, machine, ticks):
        self.machines[machine].compute_ops += index(ticks)

    def charge_worker_ops(self, machine, per_worker):
        m = self.machines[machine]
        per_worker = [index(t) for t in per_worker]
        m.compute_ops += sum(per_worker)
        m.worker_ops = [a + b for a, b in zip(m.worker_ops, per_worker,
                                              strict=True)]

    def charge_kv_requests(self, machine, requests=1):
        self.machines[machine].kv_requests += index(requests)

    def send(self, src, dst, num_bytes, messages=1):
        if src == dst:
            return
        self.machines[src].bytes_sent += num_bytes
        self.machines[src].messages_sent += messages
        self.machines[dst].bytes_received += num_bytes
        self.machines[dst].messages_received += messages

    def send_external(self, machine, num_bytes, messages=1):
        self.machines[machine].bytes_sent += num_bytes
        self.machines[machine].messages_sent += messages

    def record_rpc(self, machine, requests=1):
        self.machines[machine].rpc_requests += requests

    def record_cache(self, machine, hits=0, misses=0):
        self.machines[machine].cache_hits += hits
        self.machines[machine].cache_misses += misses

    def record_steal(self, machine):
        self.machines[machine].steals += 1

    def record_spill(self, machine, num_bytes):
        self.machines[machine].spilled_bytes += num_bytes

    def absorb(self, run: "ScalarLedger"):
        for mine, theirs in zip(self.machines, run.machines, strict=True):
            for name, value in vars(theirs).items():
                if name == "worker_ops":
                    mine.worker_ops = [a + b for a, b in zip(
                        mine.worker_ops, value, strict=True)]
                elif name == "peak_mem_bytes":
                    mine.peak_mem_bytes = max(mine.peak_mem_bytes, value)
                elif name != "cur_mem_bytes":
                    setattr(mine, name, getattr(mine, name) + value)

    def alloc(self, machine, num_bytes):
        m = self.machines[machine]
        m.cur_mem_bytes += index(num_bytes)
        total = m.cur_mem_bytes + self._extra_mem_bytes
        if total > m.peak_mem_bytes:
            m.peak_mem_bytes = total
        if total > self.cost.memory_budget_bytes:
            raise OutOfMemoryError(machine, total,
                                   self.cost.memory_budget_bytes)

    def free(self, machine, num_bytes):
        m = self.machines[machine]
        num_bytes = index(num_bytes)
        if num_bytes > m.cur_mem_bytes:
            m.mem_underflows += 1
        m.cur_mem_bytes = max(0, m.cur_mem_bytes - num_bytes)

    def reserve_constant(self, num_bytes):
        self._extra_mem_bytes += index(num_bytes)
        for i, m in enumerate(self.machines):
            total = m.cur_mem_bytes + self._extra_mem_bytes
            if total > m.peak_mem_bytes:
                m.peak_mem_bytes = total
            if total > self.cost.memory_budget_bytes:
                raise OutOfMemoryError(i, total, self.cost.memory_budget_bytes)

    def compute_time(self, machine):
        m = self.machines[machine]
        return (self.cost.ticks_to_seconds(m.compute_ops)
                + m.kv_requests * self.cost.kvstore_request_s)

    def comm_time(self, machine):
        m = self.machines[machine]
        return self.cost.transfer_seconds(
            m.bytes_sent + m.bytes_received,
            m.messages_sent + m.messages_received)

    def machine_time(self, machine):
        return self.compute_time(machine) + self.comm_time(machine)

    def elapsed(self):
        return max(self.machine_time(i) for i in range(self.num_machines))

    def check_time(self):
        elapsed = self.elapsed()
        if elapsed > self.cost.time_budget_s:
            raise OvertimeError(elapsed, self.cost.time_budget_s)

    def report(self) -> RunReport:
        k = self.num_machines
        total = self.elapsed()
        compute = max(self.compute_time(i) for i in range(k))
        bytes_total = sum(m.bytes_sent for m in self.machines)
        messages = sum(m.messages_sent for m in self.machines)
        hits = sum(m.cache_hits for m in self.machines)
        misses = sum(m.cache_misses for m in self.machines)
        ticks = [t for m in self.machines for t in m.worker_ops]
        worker_times = [self.cost.ticks_to_seconds(t) for t in ticks]
        aggregate = self.cost.ticks_to_seconds(sum(ticks))
        mean = aggregate / len(worker_times)
        wire = bytes_total / self.cost.bandwidth_bytes_per_s
        lat = messages * self.cost.latency_s
        return RunReport(
            total_time_s=total,
            compute_time_s=compute,
            comm_time_s=max(0.0, total - compute),
            bytes_transferred=bytes_total,
            messages=messages,
            peak_memory_bytes=max(m.peak_mem_bytes for m in self.machines),
            cache_hit_rate=hits / (hits + misses) if hits + misses else 0.0,
            worker_time_stddev_s=math.sqrt(
                sum((t - mean) ** 2 for t in worker_times)
                / len(worker_times)),
            aggregate_worker_time_s=aggregate,
            network_utilisation=(wire / (wire + lat) if wire + lat > 0
                                 else 0.0),
            per_machine_time_s=tuple(self.machine_time(i) for i in range(k)),
            mem_underflows=sum(m.mem_underflows for m in self.machines),
        )
