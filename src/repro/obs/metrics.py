"""Labelled metrics: Counter / Gauge / Histogram with Prometheus export.

The serving tier and the engine both count things — admission
decisions, queue depths, plan-cache hits, batch sizes, cache hit rates.
This module is the shared substrate: a thread-safe
:class:`MetricsRegistry` of named metric families, each optionally
labelled, exportable as Prometheus text-exposition
(:meth:`MetricsRegistry.expose`) and as a JSON snapshot
(:meth:`MetricsRegistry.snapshot`).  A registry is also something to
*read*: :meth:`Counter.total` sums children by label and
:meth:`Histogram.summary` gives exact percentiles, which is all
``QueryService.stats()`` is — a read of the service's registry.

Two time bases coexist.  Serving-tier metrics observe **wall-clock**
seconds (`time.perf_counter` deltas); engine metrics observe **simulated**
seconds (the metrics-ledger clocks that the cost model charges).  A
family declares its base at registration (``time_base="wall"`` /
``"sim"``); the base is carried into the JSON snapshot and the HELP text
so dashboards never mix the two axes.

Histograms use **fixed log-scaled buckets** (:func:`log_buckets`): the
default time buckets span 1µs–1000s at three per decade, so p50/p99
estimates stay within ~½ decade-third everywhere without per-workload
tuning.  A histogram may additionally keep a small deterministic
reservoir (round-robin overwrite, so retention is a pure function of the
stream) for *exact* percentiles; the serving tier's latency /
queue-wait / execute dicts are :meth:`Histogram.summary` reads of such
histograms.

:func:`check_exposition` is a self-contained line-format validator for
the text exposition (``python -m repro metrics --check``): CI feeds the
output of an instrumented run back through it, so a malformed escape or
non-cumulative bucket fails the build rather than a scrape.

Nothing here ever touches the simulated cost ledger: registries only
*read* observations handed to them, so a metrics-enabled run is
bit-identical to a metrics-off run (tier-1 tests assert this against the
golden metric grid).
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left
from typing import Any, Iterable, Mapping

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry",
           "log_buckets", "DEFAULT_TIME_BUCKETS",
           "DEFAULT_SIZE_BUCKETS", "check_exposition", "percentile"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def log_buckets(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Fixed log-scaled bucket upper bounds from ``lo`` to at least ``hi``.

    Bounds are ``lo * 10**(i/per_decade)`` rounded to a short repr, so two
    registries built with the same arguments expose byte-identical
    ``le=`` labels.
    """
    if lo <= 0 or hi <= lo or per_decade < 1:
        raise ValueError("need 0 < lo < hi and per_decade >= 1")
    out: list[float] = []
    i = 0
    while True:
        b = float(f"{lo * 10 ** (i / per_decade):.6g}")
        if not out or b > out[-1]:
            out.append(b)
        if b >= hi:
            break
        i += 1
    return tuple(out)


#: 1µs .. 1000s, three buckets per decade (time histograms, both bases)
DEFAULT_TIME_BUCKETS = log_buckets(1e-6, 1e3, per_decade=3)

#: 1 .. 1e9 rows/bytes, two buckets per decade (size histograms)
DEFAULT_SIZE_BUCKETS = log_buckets(1.0, 1e9, per_decade=2)


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


def _fmt(v: float) -> str:
    """Prometheus sample-value formatting (ints stay integral)."""
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if isinstance(v, float) and v != v:
        return "NaN"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


class _Family:
    """Common machinery: a named family with labelled children."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "",  # noqa: A002 - prom term
                 labelnames: Iterable[str] = (),
                 time_base: str | None = None,
                 _lock: threading.Lock | None = None):
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.labelnames = tuple(labelnames)
        for ln in self.labelnames:
            if not _LABEL_RE.match(ln) or ln.startswith("__"):
                raise ValueError(f"invalid label name {ln!r}")
        if time_base not in (None, "wall", "sim"):
            raise ValueError(f"time_base must be 'wall'/'sim', not {time_base!r}")
        self.name = name
        self.help = help
        self.time_base = time_base
        self._lock = _lock or threading.Lock()
        self._children: dict[tuple[str, ...], Any] = {}
        if not self.labelnames:
            self._children[()] = self._make_child()

    def _make_child(self):
        raise NotImplementedError

    def labels(self, *values: Any, **kv: Any):
        """The child for one label combination (created on first use)."""
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
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._children[key] = self._make_child()
        return child

    def _default(self):
        if self.labelnames:
            raise ValueError(f"{self.name} is labelled {self.labelnames}; "
                             f"use .labels(...)")
        return self._children[()]

    # -- export ----------------------------------------------------------------

    def _label_str(self, key: tuple[str, ...],
                   extra: tuple[tuple[str, str], ...] = ()) -> str:
        pairs = [*zip(self.labelnames, key), *extra]
        if not pairs:
            return ""
        inner = ",".join(f'{n}="{_escape(v)}"' for n, v in pairs)
        return "{" + inner + "}"

    def expose(self) -> list[str]:
        """This family's text-exposition lines (HELP, TYPE, samples)."""
        help_text = self.help
        if self.time_base:
            help_text = (f"{help_text} [{self.time_base} clock]"
                         if help_text else f"[{self.time_base} clock]")
        lines = []
        if help_text:
            lines.append(f"# HELP {self.name} {_escape(help_text)}")
        lines.append(f"# TYPE {self.name} {self.kind}")
        with self._lock:
            items = sorted(self._children.items())
        for key, child in items:
            lines.extend(self._sample_lines(key, child))
        return lines

    def _sample_lines(self, key, child) -> list[str]:
        raise NotImplementedError

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable view of the family."""
        with self._lock:
            items = sorted(self._children.items())
        return {
            "type": self.kind,
            "help": self.help,
            "time_base": self.time_base,
            "samples": [
                {"labels": dict(zip(self.labelnames, key)),
                 **child.as_dict()}
                for key, child in items
            ],
        }


class _CounterChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def as_dict(self) -> dict:
        return {"value": self.value}


class Counter(_Family):
    """A monotonically increasing count (events, rows, bytes)."""

    kind = "counter"

    def _make_child(self) -> _CounterChild:
        return _CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        child = self._default()
        with self._lock:
            child.value += amount

    def inc_child(self, child: _CounterChild, amount: float = 1.0) -> None:
        """Increment a child obtained from :meth:`labels` (hot paths keep
        the child handle instead of re-resolving labels per event)."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            child.value += amount

    @property
    def value(self) -> float:
        return self._default().value

    def get(self, *values: Any, **kv: Any) -> float:
        return self.labels(*values, **kv).value

    def total(self, **match: Any) -> float:
        """Sum over the children whose labels include ``match`` (every
        child when empty); unlike :meth:`get`, reading creates none."""
        want = [(self.labelnames.index(k), str(v)) for k, v in match.items()]
        with self._lock:
            return sum(c.value for key, c in self._children.items()
                       if all(key[i] == v for i, v in want))

    def _sample_lines(self, key, child) -> list[str]:
        return [f"{self.name}{self._label_str(key)} {_fmt(child.value)}"]


class _GaugeChild:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def as_dict(self) -> dict:
        return {"value": self.value}


class Gauge(_Family):
    """A value that can go up and down (queue depth, reserved bytes)."""

    kind = "gauge"

    def _make_child(self) -> _GaugeChild:
        return _GaugeChild()

    def set(self, value: float) -> None:
        child = self._default()
        with self._lock:
            child.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        child = self._default()
        with self._lock:
            child.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.inc(-amount)

    def set_child(self, child: _GaugeChild, value: float) -> None:
        with self._lock:
            child.value = float(value)

    @property
    def value(self) -> float:
        return self._default().value

    def get(self, *values: Any, **kv: Any) -> float:
        return self.labels(*values, **kv).value

    def _sample_lines(self, key, child) -> list[str]:
        return [f"{self.name}{self._label_str(key)} {_fmt(child.value)}"]


class _HistogramChild:
    __slots__ = ("counts", "count", "sum", "samples", "_reservoir")

    def __init__(self, num_buckets: int, reservoir: int) -> None:
        self.counts = [0] * num_buckets          # per-bucket (non-cumulative)
        self.count = 0
        self.sum = 0.0
        self._reservoir = reservoir
        self.samples: list[float] = []           # deterministic reservoir

    def as_dict(self) -> dict:
        return {"count": self.count, "sum": self.sum,
                "buckets": list(self.counts)}


class Histogram(_Family):
    """Fixed-bucket distribution with an optional exact-percentile
    reservoir (deterministic round-robin overwrite, oldest-first)."""

    kind = "histogram"

    def __init__(self, name: str, help: str = "",  # noqa: A002
                 labelnames: Iterable[str] = (),
                 buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
                 time_base: str | None = None,
                 reservoir: int = 0,
                 _lock: threading.Lock | None = None):
        bs = tuple(float(b) for b in buckets)
        if not bs or any(b2 <= b1 for b1, b2 in zip(bs, bs[1:])):
            raise ValueError("buckets must be non-empty and ascending")
        if bs[-1] == math.inf:
            bs = bs[:-1]
        self.buckets = bs
        self.reservoir = int(reservoir)
        super().__init__(name, help, labelnames, time_base, _lock)

    def _make_child(self) -> _HistogramChild:
        return _HistogramChild(len(self.buckets) + 1, self.reservoir)

    def observe(self, value: float) -> None:
        self.observe_child(self._default(), value)

    def observe_child(self, child: _HistogramChild, value: float) -> None:
        """Observe into a child handle (hot-path form)."""
        v = float(value)
        i = bisect_left(self.buckets, v)
        with self._lock:
            child.counts[i] += 1
            child.count += 1
            child.sum += v
            if child._reservoir:
                if len(child.samples) < child._reservoir:
                    child.samples.append(v)
                else:
                    # round-robin overwrite: sample i of the stream lands in
                    # slot i mod capacity, so retention is deterministic
                    child.samples[child.count % child._reservoir] = v
        return None

    @property
    def count(self) -> int:
        return self._default().count

    @property
    def sum(self) -> float:
        return self._default().sum

    def percentile(self, q: float, *label_values: Any) -> float:
        """The ``q``-th percentile: exact from the reservoir when one is
        kept, otherwise interpolated from the log buckets."""
        child = self.labels(*label_values) if label_values else self._default()
        with self._lock:
            samples = sorted(child.samples)
            counts = list(child.counts)
            total = child.count
        if samples:
            return percentile(samples, q)
        if not total:
            return 0.0
        # bucket interpolation: walk to the bucket containing rank q
        rank = (q / 100.0) * total
        seen = 0
        for i, c in enumerate(counts):
            if seen + c >= rank or i == len(counts) - 1:
                lo = self.buckets[i - 1] if i > 0 else 0.0
                hi = self.buckets[i] if i < len(self.buckets) else lo
                frac = (rank - seen) / c if c else 0.0
                return lo + (hi - lo) * min(1.0, max(0.0, frac))
            seen += c
        return 0.0

    def summary(self) -> dict:
        """``{count, mean_s, p50_s, p95_s, p99_s, max_s}`` of an
        unlabelled histogram, percentiles exact over the reservoir (so a
        histogram without one raises)."""
        if not self.reservoir:
            raise ValueError(f"{self.name}: a summary needs a reservoir "
                             "(exact percentiles)")
        child = self._default()
        with self._lock:
            ordered = sorted(child.samples)
            count, total = child.count, child.sum
        return {
            "count": count,
            "mean_s": total / count if count else 0.0,
            "p50_s": percentile(ordered, 50.0),
            "p95_s": percentile(ordered, 95.0),
            "p99_s": percentile(ordered, 99.0),
            "max_s": ordered[-1] if ordered else 0.0,
        }

    def _sample_lines(self, key, child) -> list[str]:
        lines = []
        cum = 0
        for b, c in zip(self.buckets, child.counts):
            cum += c
            lines.append(f"{self.name}_bucket"
                         f"{self._label_str(key, (('le', _fmt(b)),))} {cum}")
        lines.append(f"{self.name}_bucket"
                     f"{self._label_str(key, (('le', '+Inf'),))} {child.count}")
        lines.append(f"{self.name}_sum{self._label_str(key)} "
                     f"{_fmt(child.sum)}")
        lines.append(f"{self.name}_count{self._label_str(key)} {child.count}")
        return lines


class MetricsRegistry:
    """A named, thread-safe collection of metric families.

    Families are get-or-create: registering the same name twice returns
    the existing family (and raises if the type or labels disagree), so
    instrumentation sites can declare their metrics independently.
    """

    def __init__(self, namespace: str = "repro"):
        if namespace and not _NAME_RE.match(namespace):
            raise ValueError(f"invalid namespace {namespace!r}")
        self.namespace = namespace
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}

    def _full(self, name: str) -> str:
        return f"{self.namespace}_{name}" if self.namespace else name

    def _register(self, cls, name: str, help: str,  # noqa: A002
                  labelnames: Iterable[str], time_base: str | None,
                  **extra: Any):
        full = self._full(name)
        with self._lock:
            fam = self._families.get(full)
            if fam is None:
                fam = cls(full, help, labelnames, time_base=time_base,
                          **extra)
                self._families[full] = fam
                return fam
        if not isinstance(fam, cls) or fam.labelnames != tuple(labelnames):
            raise ValueError(
                f"metric {full!r} already registered as {fam.kind} with "
                f"labels {fam.labelnames}")
        return fam

    def counter(self, name: str, help: str = "",  # noqa: A002
                labelnames: Iterable[str] = (),
                time_base: str | None = None) -> Counter:
        return self._register(Counter, name, help, labelnames, time_base)

    def gauge(self, name: str, help: str = "",  # noqa: A002
              labelnames: Iterable[str] = (),
              time_base: str | None = None) -> Gauge:
        return self._register(Gauge, name, help, labelnames, time_base)

    def histogram(self, name: str, help: str = "",  # noqa: A002
                  labelnames: Iterable[str] = (),
                  buckets: Iterable[float] = DEFAULT_TIME_BUCKETS,
                  time_base: str | None = None,
                  reservoir: int = 0) -> Histogram:
        return self._register(Histogram, name, help, labelnames, time_base,
                              buckets=buckets, reservoir=reservoir)

    def get(self, name: str) -> _Family | None:
        """Look a family up by its full (namespaced) name."""
        with self._lock:
            return self._families.get(name)

    def families(self) -> list[_Family]:
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    # -- export ----------------------------------------------------------------

    def expose(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: list[str] = []
        for fam in self.families():
            lines.extend(fam.expose())
        return "\n".join(lines) + ("\n" if lines else "")

    def snapshot(self) -> dict[str, Any]:
        """JSON snapshot: ``{family name: {type, help, time_base, samples}}``."""
        return {fam.name: fam.snapshot() for fam in self.families()}

    def save_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.snapshot(), fh, indent=2, sort_keys=True)
            fh.write("\n")


# -- exposition checker ------------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?P<labels>\{.*\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<ts>-?\d+))?$")
_LABEL_PAIR_RE = re.compile(
    r'\s*([a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"((?:[^"\\]|\\.)*)"\s*(,|$)')
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def _parse_labels(raw: str) -> dict[str, str] | None:
    """Parse ``{a="x",b="y"}``; ``None`` on malformed syntax."""
    body = raw[1:-1]
    out: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        m = _LABEL_PAIR_RE.match(body, pos)
        if not m:
            return None
        out[m.group(1)] = m.group(2)
        pos = m.end()
    return out


def check_exposition(text: str) -> list[str]:
    """Validate Prometheus text-exposition format; returns error strings
    (empty list = valid).

    Checks line syntax (names, label pairs, escapes, float values), that
    ``# TYPE`` precedes its family's samples, that histogram ``_bucket``
    series are cumulative with a ``+Inf`` bucket equal to ``_count``, and
    that counter samples are finite and non-negative.
    """
    errors: list[str] = []
    types: dict[str, str] = {}
    # histogram family -> {label-subset-key -> [(le, cum)]}
    buckets: dict[str, dict[tuple, list[tuple[float, float]]]] = {}
    counts: dict[str, dict[tuple, float]] = {}

    def base_family(name: str) -> str:
        for suffix in ("_bucket", "_sum", "_count", "_total"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                return name[: -len(suffix)]
        return name

    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split(None, 3)
            if len(parts) >= 2 and parts[1] in ("HELP", "TYPE"):
                if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                    errors.append(f"line {ln}: malformed {parts[1]} comment")
                elif parts[1] == "TYPE":
                    mtype = parts[3].strip() if len(parts) > 3 else ""
                    if mtype not in _VALID_TYPES:
                        errors.append(
                            f"line {ln}: unknown metric type {mtype!r}")
                    elif parts[2] in types:
                        errors.append(
                            f"line {ln}: duplicate TYPE for {parts[2]}")
                    else:
                        types[parts[2]] = mtype
            continue
        m = _SAMPLE_RE.match(line)
        if not m:
            errors.append(f"line {ln}: unparsable sample line {line!r}")
            continue
        name, raw_labels, raw_value = (m.group("name"), m.group("labels"),
                                       m.group("value"))
        labels: dict[str, str] = {}
        if raw_labels:
            parsed = _parse_labels(raw_labels)
            if parsed is None:
                errors.append(f"line {ln}: malformed labels {raw_labels!r}")
                continue
            labels = parsed
        try:
            value = float(raw_value.replace("+Inf", "inf")
                          .replace("-Inf", "-inf"))
        except ValueError:
            errors.append(f"line {ln}: bad sample value {raw_value!r}")
            continue
        fam = base_family(name)
        ftype = types.get(fam)
        if ftype is None:
            errors.append(f"line {ln}: sample {name!r} precedes its TYPE")
            continue
        if ftype == "counter" and not (value >= 0 and value != math.inf):
            errors.append(f"line {ln}: counter {name} has value {raw_value}")
        if ftype == "histogram":
            key = tuple(sorted((k, v) for k, v in labels.items()
                               if k != "le"))
            if name == f"{fam}_bucket":
                if "le" not in labels:
                    errors.append(f"line {ln}: bucket without le label")
                    continue
                le = float(labels["le"].replace("+Inf", "inf"))
                buckets.setdefault(fam, {}).setdefault(key, []).append(
                    (le, value))
            elif name == f"{fam}_count":
                counts.setdefault(fam, {})[key] = value

    for fam, series in buckets.items():
        for key, pairs in series.items():
            les = [le for le, _ in pairs]
            cums = [c for _, c in pairs]
            if sorted(les) != les:
                errors.append(f"{fam}{dict(key)}: le bounds not ascending")
            if any(b < a for a, b in zip(cums, cums[1:])):
                errors.append(f"{fam}{dict(key)}: bucket counts not "
                              f"cumulative")
            if les and les[-1] != math.inf:
                errors.append(f"{fam}{dict(key)}: missing +Inf bucket")
            total = counts.get(fam, {}).get(key)
            if total is not None and cums and cums[-1] != total:
                errors.append(f"{fam}{dict(key)}: +Inf bucket {cums[-1]} != "
                              f"_count {total}")
    return errors
