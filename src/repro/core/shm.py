"""Shared-memory residence for the columnar data graph.

The process worker pool (``QueryService(pool="process")``) needs every
child process to compute against **one** copy of the data graph — the
BENU-style shared read-only graph store.  This module places the three
columnar arrays a worker actually touches into POSIX shared memory:

* the CSR arrays ``indptr``/``indices`` of :class:`~repro.graph.graph.Graph`
  (already immutable int64);
* the global edge-composite index ``u * n + v`` of
  :meth:`~repro.graph.graph.Graph.composite_index` (the ``searchsorted``
  haystack behind every symmetry window and membership fallback).

The graph's hashed arc slot table (:meth:`~repro.graph.graph.Graph.arc_table`)
is not a segment: a child builds its own, lazily, once its attached
snapshot has answered enough probes — the same trigger as in the parent.
Exporting it would make every registered version pay the O(E) build up
front whether or not any query probes it.

A :class:`SharedGraphHandle` is a pickle-cheap description (segment names,
shapes, dtypes) that a child turns back into a zero-copy, **read-only**
:class:`Graph` via :meth:`SharedGraphHandle.attach` — no bytes of the graph
ever cross the task pipe.

Lifecycle contract (the serving tier's shm hygiene oracle):

* the parent :class:`SharedGraphStore` owns every segment and unlinks each
  **exactly once** in :meth:`SharedGraphStore.close` — idempotent, and
  robust to children that died mid-attach;
* children are spawned by :mod:`multiprocessing` and therefore share the
  parent's resource-tracker process — attach-side registration is an
  idempotent set-add and the parent's unlink clears it exactly once (see
  :func:`_attach` for why attachers must *not* unregister).
"""

from __future__ import annotations

import secrets
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from ..graph.graph import Graph

__all__ = ["SharedArraySpec", "SharedGraphHandle", "SharedGraphStore"]


def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach an existing segment.

    Worker processes are spawned by :mod:`multiprocessing`, so they
    inherit the parent's resource-tracker process: the attach-side
    ``register`` is an idempotent set-add against the registration the
    creating :class:`SharedGraphStore` already made, and the store's
    single ``unlink()`` unregisters it once.  Explicitly unregistering
    here (the usual 3.11-era ``track=False`` emulation) would instead
    *remove* the parent's registration and make the parent's unlink trip
    a tracker ``KeyError`` — so attachers deliberately leave tracking
    alone.
    """
    return shared_memory.SharedMemory(name=name)


@dataclass(frozen=True)
class SharedArraySpec:
    """Where one numpy array lives: segment name + shape + dtype."""

    name: str
    shape: tuple[int, ...]
    dtype: str

    def attach(self) -> np.ndarray:
        """The array as a zero-copy read-only view (cached per process)."""
        seg = _segment(self.name)
        n = int(np.prod(self.shape, dtype=np.int64)) if self.shape else 1
        arr = np.ndarray(self.shape, dtype=np.dtype(self.dtype),
                         buffer=seg.buf[:n * np.dtype(self.dtype).itemsize])
        arr.setflags(write=False)
        return arr


#: per-process attachment cache: segment name -> SharedMemory.  Keeping the
#: segments referenced here pins their mappings for the process lifetime —
#: arrays handed out above are views into these buffers.
_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
#: per-process graph cache: handle token -> attached Graph
_GRAPHS: dict[tuple, Graph] = {}


def _segment(name: str) -> shared_memory.SharedMemory:
    seg = _SEGMENTS.get(name)
    if seg is None:
        seg = _attach(name)
        _SEGMENTS[name] = seg
    return seg


@dataclass(frozen=True)
class SharedGraphHandle:
    """A picklable ticket for re-materialising a shared graph.

    ``attach()`` in a child process costs three ``shm_open``/``mmap``
    calls and no copies; repeated attaches of the same handle return the
    same :class:`Graph` object (per-process cache).
    """

    dataset: str
    version: int
    indptr: SharedArraySpec
    indices: SharedArraySpec
    composite: SharedArraySpec

    def attach(self) -> Graph:
        key = (self.indptr.name, self.indices.name)
        graph = _GRAPHS.get(key)
        if graph is None:
            graph = Graph(self.indptr.attach(), self.indices.attach())
            # preload the composite edge index so no child ever rebuilds
            # the O(E) haystack the parent already shares
            graph._composite = self.composite.attach()
            _GRAPHS[key] = graph
        return graph


class SharedGraphStore:
    """Parent-side owner of every exported shared-memory segment."""

    def __init__(self, prefix: str | None = None):
        #: unique per store so concurrent services never collide
        self.prefix = prefix or f"repro-{secrets.token_hex(4)}"
        self._segments: list[shared_memory.SharedMemory] = []
        self._handles: dict[tuple[str, int], SharedGraphHandle] = {}
        self._graph_ids: dict[tuple[str, int], int] = {}
        self._seq = 0
        self.closed = False

    # -- export ----------------------------------------------------------------

    def _export_array(self, tag: str, arr: np.ndarray) -> SharedArraySpec:
        if self.closed:
            raise RuntimeError("shared graph store is closed")
        arr = np.ascontiguousarray(arr)
        self._seq += 1
        name = f"{self.prefix}-{self._seq}-{tag}"[:120]
        seg = shared_memory.SharedMemory(name=name, create=True,
                                         size=max(1, arr.nbytes))
        view = np.ndarray(arr.shape, dtype=arr.dtype,
                          buffer=seg.buf[:arr.nbytes])
        view[...] = arr
        self._segments.append(seg)
        return SharedArraySpec(name=seg.name, shape=tuple(arr.shape),
                               dtype=arr.dtype.str)

    def handle(self, dataset: str, graph: Graph,
               version: int = 0) -> SharedGraphHandle:
        """Export (once) and return the handle for a registered graph.

        Keyed on ``(dataset, version)``: re-registering a dataset bumps
        the service's graph version, which lands the new graph in fresh
        segments while queries against the old version keep their mapping.
        """
        key = (dataset, version)
        cached = self._handles.get(key)
        if cached is not None and self._graph_ids[key] == id(graph):
            return cached
        handle = SharedGraphHandle(
            dataset=dataset, version=version,
            indptr=self._export_array("indptr", graph.indptr),
            indices=self._export_array("indices", graph.indices),
            composite=self._export_array("comp", graph.composite_index()))
        self._handles[key] = handle
        self._graph_ids[key] = id(graph)
        return handle

    # -- lifecycle -------------------------------------------------------------

    def segment_names(self) -> list[str]:
        """Names of every exported segment (tests assert these vanish)."""
        return [seg.name for seg in self._segments]

    def close(self) -> None:
        """Unlink every segment exactly once; safe to call repeatedly."""
        if self.closed:
            return
        self.closed = True
        segments, self._segments = self._segments, []
        self._handles.clear()
        for seg in segments:
            try:
                seg.close()
            except Exception:  # pragma: no cover - already closed
                pass
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass
