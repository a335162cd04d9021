"""Cardinality estimation ``|R(q')|`` for the optimiser.

Algorithm 1 charges each sub-query its result cardinality, "estimated using
the method such as [46, 51, 58]" (paper §3.3, line 4).  Three estimators
are provided behind a common protocol:

* :class:`RandomGraphEstimator` — closed-form Erdős–Rényi expectation;
  cheap, ignores degree skew.
* :class:`SamplingEstimator` — sequential importance sampling
  (Horvitz–Thompson over random extension paths); accurate on skewed
  graphs, the default.
* :class:`ExactEstimator` — full enumeration via the reference engine;
  for tests and tiny graphs only.

All estimators count *ordered* embeddings divided by ``|Aut(q')|``, i.e.
the number of matches after symmetry breaking — the quantity the engine
actually materialises.  Stars are special-cased exactly from the degree
array (the number of ``(v; L)`` instances with ``|L| = k`` is
``Σ_v C(d_v, k)``).
"""

from __future__ import annotations

import math
from typing import Protocol

import numpy as np

from ..core.kernels import extend_step
from ..graph.graph import Graph
from .automorphism import automorphism_count
from .pattern import QueryGraph

__all__ = [
    "CardinalityEstimator",
    "RandomGraphEstimator",
    "SamplingEstimator",
    "ExactEstimator",
    "star_count",
]


def star_count(graph: Graph, num_leaves: int) -> float:
    """Exact number of ``k``-star instances: ``Σ_v C(d_v, k)``."""
    if num_leaves < 1:
        raise ValueError("a star has at least one leaf")
    degs = graph.degrees().astype(np.float64)
    prod = np.ones_like(degs)
    for i in range(num_leaves):
        prod = prod * np.maximum(degs - i, 0.0)
    return float(prod.sum()) / math.factorial(num_leaves)


class CardinalityEstimator(Protocol):
    """Estimate the number of symmetry-broken matches of a pattern."""

    def estimate(self, pattern: QueryGraph) -> float:
        """Return an estimate of ``|R(pattern)|`` on this estimator's graph."""
        ...


class _CachedEstimator:
    """Shared memoisation for the concrete estimators, one entry per
    isomorphism class: the class's canonical form is what gets estimated,
    so an estimate is a function of (graph, class) — a relabelled pattern
    reads the same number and costs no second estimate."""

    def __init__(self, graph: Graph):
        self._graph = graph
        self._cache: dict[QueryGraph, float] = {}

    @property
    def graph(self) -> Graph:
        return self._graph

    def estimate(self, pattern: QueryGraph) -> float:
        canon, _ = pattern.canonical_form()
        cached = self._cache.get(canon)
        if cached is None:
            if canon.is_star():
                leaves = canon.num_vertices - 1
                cached = max(star_count(self._graph, leaves), 1.0)
            else:
                cached = max(self._estimate(canon), 1.0)
            self._cache[canon] = cached
        return cached

    def _estimate(self, pattern: QueryGraph) -> float:  # pragma: no cover
        raise NotImplementedError


class RandomGraphEstimator(_CachedEstimator):
    """Erdős–Rényi expectation: ``n^(v) · p^e / |Aut|`` with
    ``p = 2|E| / (n(n-1))`` and ``n^(v)`` the falling factorial."""

    def _estimate(self, pattern: QueryGraph) -> float:
        n = self.graph.num_vertices
        if n < pattern.num_vertices:
            return 0.0
        if n < 2:
            return 0.0
        p = 2.0 * self.graph.num_edges / (n * (n - 1))
        ordered = 1.0
        for i in range(pattern.num_vertices):
            ordered *= n - i
        ordered *= p ** pattern.num_edges
        return ordered / automorphism_count(pattern)


class SamplingEstimator(_CachedEstimator):
    """Sequential importance sampling.

    Each trial extends a random partial embedding one pattern vertex at a
    time along a connected order; the product of candidate-set sizes at
    each step is an unbiased estimate of the ordered-embedding count.
    The trials advance together, one pattern vertex per step, as one
    batch through the engine's PULL-EXTEND step
    (:func:`~repro.core.kernels.extend_step`).
    """

    def __init__(self, graph: Graph, trials: int = 400, seed: int = 11):
        super().__init__(graph)
        if trials < 1:
            raise ValueError("need at least one trial")
        self._trials = trials
        self._seed = seed

    def _extension_order(self, pattern: QueryGraph) -> list[int]:
        """A connected vertex order starting from a max-degree vertex."""
        order = [max(pattern.vertices(), key=pattern.degree)]
        seen = set(order)
        while len(order) < pattern.num_vertices:
            nxt = max(
                (v for v in pattern.vertices() if v not in seen
                 and pattern.neighbours(v) & seen),
                key=lambda v: len(pattern.neighbours(v) & seen),
            )
            order.append(nxt)
            seen.add(nxt)
        return order

    def _estimate(self, pattern: QueryGraph) -> float:
        g = self.graph
        n = g.num_vertices
        if n == 0:
            return 0.0
        rng = np.random.default_rng(self._seed)
        order = self._extension_order(pattern)
        # all walks at once: row = one partial embedding (columns in
        # ``order``), ``weight`` = its Horvitz–Thompson weight so far
        rows = rng.integers(n, size=(self._trials, 1))
        weight = np.full(self._trials, float(n))
        for i in range(1, len(order)):
            back = [j for j in range(i)
                    if order[j] in pattern.neighbours(order[i])]
            cand, _, counts, _ = extend_step(g, rows, back, (), ())
            alive = counts > 0
            counts = counts[alive]
            # candidates are grouped by row, so row r's are the slice
            # starting at the exclusive running sum of the counts
            pick = np.cumsum(counts) - counts + rng.integers(counts)
            rows = np.column_stack((rows[alive], cand[pick]))
            weight = weight[alive] * counts
        ordered = float(weight.sum()) / self._trials
        return ordered / automorphism_count(pattern)


class ExactEstimator(_CachedEstimator):
    """Exact count via brute-force enumeration (tests / tiny graphs)."""

    def _estimate(self, pattern: QueryGraph) -> float:
        # imported lazily to avoid a package cycle
        from ..baselines.reference import count_ordered_embeddings

        ordered = count_ordered_embeddings(self.graph, pattern)
        return ordered / automorphism_count(pattern)
