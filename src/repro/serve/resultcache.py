"""Tenant-aware result cache with ledger-accounted capacity.

Caches *final answers* — the symmetry-broken match count and (when the
producing request collected) the matches in canonical vertex order —
keyed on everything that determines them::

    (canonical pattern key, dataset, graph version, tenant,
     num_machines, workers_per_machine, partition_seed, config fp)

The **graph version** is bumped by ``QueryService.register_dataset``
whenever a dataset is (re-)registered, so stale results become
unreachable the moment the data changes; :meth:`ResultCache.invalidate`
additionally drops them eagerly (explicit invalidation).  The **tenant**
is part of the key: tenants never observe each other's cached results,
even for identical queries — a tenant-isolation property the tests pin.

Capacity is accounted in *bytes through the admission ledger*: every
resident entry holds an ``AdmissionController.reserve_cache``
reservation, so cached results and in-flight queries compete for the
same global memory budget and the drained-ledger oracle covers both.
Insertion evicts least-recently-used entries until the newcomer fits;
an entry larger than the whole capacity is simply not cached.

Matches are stored in **canonical** vertex order (the order the shared
canonical plan produces); the service remaps them to each request's own
vertex numbering at delivery time, exactly as the executor does for a
fresh run — so a cache hit is bit-identical to a solo execution of the
same request.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

__all__ = ["ResultCacheStats", "CachedResult", "ResultCache"]

#: accounted per-entry bookkeeping overhead, in bytes
_ENTRY_OVERHEAD = 256
#: accounted bytes per stored match-tuple element
_BYTES_PER_ID = 28  # a small python int


class ResultCacheStats:
    """Thread-safe counters of what only the cache observes (its hits and
    misses are the service's ``result_cache`` events); snapshots are
    taken under the lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.inserts = 0
        self.evictions = 0
        self.invalidations = 0
        self.uncacheable = 0

    def as_dict(self) -> dict:
        with self._lock:
            return {"inserts": self.inserts, "evictions": self.evictions,
                    "invalidations": self.invalidations,
                    "uncacheable": self.uncacheable}


class CachedResult:
    """One cached answer (count + optional canonical-order matches)."""

    __slots__ = ("count", "matches", "nbytes", "dataset", "tenant")

    def __init__(self, count: int, matches: list | None,
                 dataset: str, tenant: str):
        self.count = count
        self.matches = matches
        self.dataset = dataset
        self.tenant = tenant
        ids = sum(len(m) for m in matches) if matches else 0
        self.nbytes = float(_ENTRY_OVERHEAD + ids * _BYTES_PER_ID)


class ResultCache:
    """LRU result cache whose resident bytes live in the admission ledger."""

    def __init__(self, capacity_bytes: float, ledger=None):
        if capacity_bytes <= 0:
            raise ValueError("result cache capacity must be positive")
        self.capacity_bytes = capacity_bytes
        self.ledger = ledger
        self.stats = ResultCacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, CachedResult] = OrderedDict()
        self._resident = 0.0

    @staticmethod
    def key(canonical_key: str, dataset: str, graph_version: int,
            tenant: str, num_machines: int, workers_per_machine: int,
            partition_seed: int, config_fp: str) -> tuple:
        return (canonical_key, dataset, graph_version, tenant, num_machines,
                workers_per_machine, partition_seed, config_fp)

    @property
    def resident_bytes(self) -> float:
        with self._lock:
            return self._resident

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple, need_matches: bool = False) -> CachedResult | None:
        """Look up a cached answer, refreshing recency.

        ``need_matches=True`` (a collecting request) misses on count-only
        entries — they cannot serve the matches the client asked for.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None or (need_matches and entry.matches is None):
                return None
            self._entries.move_to_end(key)
        return entry

    def _drop(self, key: tuple, counter: str) -> None:
        """Remove one entry (lock held) and release its reservation."""
        entry = self._entries.pop(key)
        self._resident -= entry.nbytes
        with self.stats._lock:
            setattr(self.stats, counter,
                    getattr(self.stats, counter) + 1)
        if self.ledger is not None:
            self.ledger.release_cache(entry.nbytes)

    def put(self, key: tuple, count: int, matches: list | None,
            dataset: str, tenant: str) -> bool:
        """Insert an answer, evicting LRU entries until it fits.

        Returns ``False`` (and counts ``uncacheable``) when the entry
        alone exceeds the whole capacity.  Overwrites keep the newer
        answer (a matches-carrying entry upgrades a count-only one).
        """
        entry = CachedResult(count, matches, dataset, tenant)
        if entry.nbytes > self.capacity_bytes:
            with self.stats._lock:
                self.stats.uncacheable += 1
            return False
        with self._lock:
            if key in self._entries:
                old = self._entries[key]
                if old.matches is not None and matches is None:
                    # never downgrade a collected entry to count-only
                    self._entries.move_to_end(key)
                    return True
                self._drop(key, "evictions")
            while self._resident + entry.nbytes > self.capacity_bytes:
                oldest = next(iter(self._entries))
                self._drop(oldest, "evictions")
            self._entries[key] = entry
            self._resident += entry.nbytes
            with self.stats._lock:
                self.stats.inserts += 1
            if self.ledger is not None:
                # inside the cache lock so a racing invalidate cannot
                # release this reservation before it is taken
                self.ledger.reserve_cache(entry.nbytes)
        return True

    def invalidate(self, dataset: str | None = None,
                   tenant: str | None = None) -> int:
        """Eagerly drop entries matching the filters (both ``None`` =
        everything); returns how many were dropped."""
        with self._lock:
            victims = [k for k, e in self._entries.items()
                       if (dataset is None or e.dataset == dataset)
                       and (tenant is None or e.tenant == tenant)]
            for k in victims:
                self._drop(k, "invalidations")
        return len(victims)

    def clear(self) -> int:
        """Drop everything (service shutdown: the ledger must drain)."""
        return self.invalidate()
