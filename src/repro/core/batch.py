"""Columnar batches for the hot path.

The runtime moves partial matches as 2-D ``int64`` arrays (one row per
partial match, one column per matched query vertex) wrapped in a thin
:class:`Batch`.  Vectorising the per-candidate work (distinctness,
symmetry masks, emission) removes the interpretation overhead of
tuple-at-a-time loops; the array programs themselves live in
:mod:`repro.core.kernels`.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

__all__ = ["Batch"]


class Batch:
    """A batch of partial matches: a 2-D ``int64`` array, one row each.

    The wrapper stays deliberately thin — operators work on ``.rows``
    directly — but it iterates and compares like the historical
    ``list[tuple[int, ...]]`` so call sites (and tests) that treat a
    batch as a sequence of tuples keep working.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: np.ndarray):
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2:
            raise ValueError(f"batch rows must be 2-D, got shape {rows.shape}")
        self.rows = rows

    # -- construction --------------------------------------------------------

    @classmethod
    def empty(cls, arity: int) -> "Batch":
        """A zero-row batch of the given width."""
        return cls(np.empty((0, arity), dtype=np.int64))

    @classmethod
    def coerce(cls, obj, arity: int | None = None) -> "Batch":
        """Adopt an existing batch, a 2-D array, or a sequence of tuples."""
        if isinstance(obj, Batch):
            return obj
        if isinstance(obj, np.ndarray):
            return cls(obj)
        seq = list(obj)
        if not seq:
            return cls.empty(0 if arity is None else arity)
        return cls(np.asarray(seq, dtype=np.int64))

    # -- sequence protocol ---------------------------------------------------

    @property
    def arity(self) -> int:
        """Tuple width (number of matched query vertices)."""
        return self.rows.shape[1]

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        for row in self.rows.tolist():
            yield tuple(row)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Batch(self.rows[i])
        return tuple(self.rows[i].tolist())

    def __eq__(self, other) -> bool:
        if isinstance(other, Batch):
            return (self.rows.shape == other.rows.shape
                    and bool(np.array_equal(self.rows, other.rows)))
        if isinstance(other, (list, tuple)):
            return self.tolist() == list(other)
        return NotImplemented

    __hash__ = None  # mutable container

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Batch({len(self)}x{self.arity})"

    def tolist(self) -> list[tuple[int, ...]]:
        """Materialise as the historical list-of-tuples representation."""
        return [tuple(r) for r in self.rows.tolist()]

    def split(self, size: int) -> Iterator["Batch"]:
        """Yield consecutive slices (views) of at most ``size`` rows."""
        for i in range(0, len(self), size):
            yield Batch(self.rows[i:i + size])
