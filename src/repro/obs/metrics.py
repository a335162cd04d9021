"""Labelled metrics: Counter / Gauge / Histogram in one registry.

The serving tier counts things — admission decisions, queue depths,
plan-cache hits, latencies.  This module is the substrate: a thread-safe
:class:`MetricsRegistry` of named metric families, each optionally
labelled, with a JSON snapshot (:meth:`MetricsRegistry.snapshot`).  A
registry is something to *read*: :meth:`Counter.total` sums children by
label and :meth:`Histogram.summary` gives exact percentiles, which is all
``QueryService.stats()`` is — a read of the service's registry.  Reads
never create a labelled child, so reading a registry leaves its snapshot
as it was.

A histogram keeps its count, its sum and a deterministic reservoir of
samples (round-robin overwrite, so retention is a pure function of the
stream) for *exact* percentiles; the serving tier's latency / queue-wait
/ execute dicts are :meth:`Histogram.summary` reads of such histograms.
The serving tier observes **wall-clock** seconds (`time.perf_counter`
deltas); simulated seconds live on the cost ledger.

Nothing here ever touches the simulated cost ledger: registries only
*read* observations handed to them.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "percentile"]


def percentile(values: list[float], q: float) -> float:
    """The ``q``-th percentile (0..100) with linear interpolation.

    ``values`` must be sorted ascending (guarded: unsorted input raises
    ``ValueError`` rather than silently returning nonsense); ``q``
    outside [0, 100] raises too.  Empty input gives 0.0.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
    if not values:
        return 0.0
    if any(b < a for a, b in zip(values, values[1:])):
        raise ValueError("percentile() requires ascending-sorted input")
    if len(values) == 1:
        return values[0]
    rank = (q / 100.0) * (len(values) - 1)
    lo = int(rank)
    hi = min(lo + 1, len(values) - 1)
    frac = rank - lo
    return values[lo] * (1.0 - frac) + values[hi] * frac


class _Family:
    """Common machinery: a named family with labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",  # noqa: A002
                 labelnames: Iterable[str] = ()):
        self.name = name
        self.help = help
        self.labelnames = tuple(labelnames)
        self._lock = threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def _key(self, values: tuple, kv: dict) -> tuple[str, ...]:
        """The child key for positional or keyword label values."""
        if kv:
            if values:
                raise ValueError("pass positional or keyword labels, not both")
            try:
                values = tuple(kv[ln] for ln in self.labelnames)
            except KeyError as exc:
                raise ValueError(f"missing label {exc} for {self.name}") from None
            if len(kv) != len(self.labelnames):
                raise ValueError(f"unexpected labels for {self.name}: "
                                 f"{sorted(set(kv) - set(self.labelnames))}")
        key = tuple(str(v) for v in values)
        if len(key) != len(self.labelnames):
            raise ValueError(f"{self.name} takes labels {self.labelnames}, "
                             f"got {key}")
        return key

    def labels(self, *values: Any, **kv: Any):
        """The child for one label combination (created on first use)."""
        key = self._key(values, kv)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def _peek(self, values: tuple, kv: dict):
        """The child for one label combination, or ``None`` when nothing
        was ever recorded there: a read creates no child."""
        key = self._key(values, kv)
        with self._lock:
            return self._children.get(key)

    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled {self.labelnames}; "
                             f"use .labels(...)")
        return self._children[()]

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable view of the family."""
        with self._lock:
            items = sorted(self._children.items())
        return {
            "type": self.kind,
            "help": self.help,
            "samples": [
                {"labels": dict(zip(self.labelnames, key)),
                 **child.as_dict()}
                for key, child in items
            ],
        }


class _ValueChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def as_dict(self) -> dict:
        return {"value": self.value}


class _ValueFamily(_Family):
    """A family whose children each hold one number."""

    def _make_child(self) -> _ValueChild:
        return _ValueChild()

    @property
    def value(self) -> float:
        return self._default().value

    def get(self, *values: Any, **kv: Any) -> float:
        """One child's value (0.0 for a combination never written)."""
        child = self._peek(values, kv)
        return 0.0 if child is None else child.value


class Counter(_ValueFamily):
    """A monotonically increasing count (events, rows, bytes)."""

    kind = "counter"

    def inc(self, amount: float = 1.0) -> None:
        self.inc_child(self._default(), amount)

    def inc_child(self, child: _ValueChild, amount: float = 1.0) -> None:
        """Increment a child obtained from :meth:`labels` (hot paths keep
        the child handle instead of re-resolving labels per event)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            child.value += amount

    def total(self, **match: Any) -> float:
        """Sum over the children whose labels include ``match`` (every
        child when empty); like :meth:`get`, reading creates none."""
        unknown = sorted(set(match) - set(self.labelnames))
        if unknown:
            raise ValueError(f"{self.name} has no label {unknown}; its "
                             f"labels are {self.labelnames}")
        want = [(self.labelnames.index(k), str(v)) for k, v in match.items()]
        with self._lock:
            return sum(c.value for key, c in self._children.items()
                       if all(key[i] == v for i, v in want))


class Gauge(_ValueFamily):
    """A value that can go up and down (queue depth, reserved bytes)."""

    kind = "gauge"

    def set(self, value: float) -> None:
        self.set_child(self._default(), value)

    def inc(self, amount: float = 1.0) -> None:
        child = self._default()
        with self._lock:
            child.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_child(self, child: _ValueChild, value: float) -> None:
        with self._lock:
            child.value = float(value)


class _HistogramChild:
    __slots__ = ("count", "sum", "samples")

    def __init__(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.samples: list[float] = []           # deterministic reservoir

    def as_dict(self) -> dict:
        return {"count": self.count, "sum": self.sum}


class Histogram(_Family):
    """Count, sum and an exact-percentile reservoir of the last
    ``reservoir`` samples (deterministic round-robin overwrite,
    oldest-first)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",  # noqa: A002
                 labelnames: Iterable[str] = (),
                 reservoir: int = 10_000):
        self.reservoir = int(reservoir)
        super().__init__(name, help, labelnames)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild()

    def observe(self, value: float) -> None:
        child, v = self._default(), float(value)
        with self._lock:
            child.count += 1
            child.sum += v
            if len(child.samples) < self.reservoir:
                child.samples.append(v)
            elif self.reservoir:
                # round-robin overwrite: sample i of the stream (the
                # count-th) lands in slot i mod capacity, so the oldest
                # sample goes first and retention is deterministic
                child.samples[(child.count - 1) % self.reservoir] = v

    @property
    def count(self) -> int:
        return self._default().count

    def _read(self, child: _HistogramChild) -> tuple[list[float], int, float]:
        """The reservoir sorted, the count and the sum, read together."""
        if not self.reservoir:
            raise ValueError(f"{self.name}: percentiles need a reservoir")
        with self._lock:
            return sorted(child.samples), child.count, child.sum

    def percentile(self, q: float, *label_values: Any) -> float:
        """The ``q``-th percentile, exact over the reservoir (0.0 for a
        combination never observed; reading creates no child)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile q must be in [0, 100], got {q!r}")
        child = self._peek(label_values, {})
        if child is None:
            return 0.0
        return percentile(self._read(child)[0], q)

    def summary(self) -> dict:
        """``{count, mean_s, p50_s, p95_s, p99_s, max_s}`` of an
        unlabelled histogram, percentiles exact over the reservoir (so a
        histogram without one raises)."""
        ordered, count, total = self._read(self._default())
        return {
            "count": count,
            "mean_s": total / count if count else 0.0,
            "p50_s": percentile(ordered, 50.0),
            "p95_s": percentile(ordered, 95.0),
            "p99_s": percentile(ordered, 99.0),
            "max_s": ordered[-1] if ordered else 0.0,
        }


class MetricsRegistry:
    """A named, thread-safe collection of metric families.

    Families are get-or-create: registering the same name twice returns
    the existing family (and raises if the type or labels disagree), so
    instrumentation sites can declare their metrics independently.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _register(self, cls, name: str, help: str,  # noqa: A002
                  labelnames: Iterable[str], **extra: Any):
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                fam = self._families[name] = cls(name, help, labelnames,
                                                 **extra)
                return fam
        if not isinstance(fam, cls) or fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {name!r} already registered as {fam.kind} with "
                f"labels {fam.labelnames}")
        return fam

    def counter(self, name: str, help: str = "",  # noqa: A002
                labelnames: Iterable[str] = ()) -> Counter:
        return self._register(Counter, name, help, labelnames)

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labelnames: Iterable[str] = ()) -> Gauge:
        return self._register(Gauge, name, help, labelnames)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labelnames: Iterable[str] = (),
                  reservoir: int = 10_000) -> Histogram:
        return self._register(Histogram, name, help, labelnames,
                              reservoir=reservoir)

    def get(self, name: str) -> _Family | None:
        """Look a family up by its name."""
        with self._lock:
            return self._families.get(name)

    def snapshot(self) -> dict[str, Any]:
        """JSON snapshot: ``{family name: {type, help, samples}}``."""
        with self._lock:
            families = sorted(self._families.items())
        return {name: fam.snapshot() for name, fam in families}
