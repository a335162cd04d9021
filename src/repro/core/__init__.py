"""HUGE core: optimiser, hybrid dataflow operators, LRBU cache, adaptive
scheduler, work stealing — the paper's primary contribution.

Layering: :mod:`~repro.core.kernels` is a leaf (numpy only) that the
layers *below* the engine also run on — the sampling estimator in
:mod:`repro.query.estimate` walks through the same extend kernels.  The
engine and the planner import that estimator, so their names resolve on
first access (PEP 562) instead of at package import: importing a leaf of
this package never imports the engine, whichever package loads first.
"""

from importlib import import_module

from .cache import CACHE_VARIANTS, CacheStats, LRBUCache, LRUCache, make_cache
from .cancel import CancelToken, QueryCancelledError
from .dataflow import ExtendSpec, JoinSpec, ScanSpec, Segment
from .scheduler import SchedulerConfig
from .stealing import STEALING_MODES, distribute_to_workers, rebalance

__all__ = [
    "CACHE_VARIANTS",
    "CacheStats",
    "CancelToken",
    "QueryCancelledError",
    "LRBUCache",
    "LRUCache",
    "make_cache",
    "ExtendSpec",
    "JoinSpec",
    "ScanSpec",
    "Segment",
    "EngineConfig",
    "EnumerationResult",
    "HugeEngine",
    "SchedulerConfig",
    "STEALING_MODES",
    "distribute_to_workers",
    "rebalance",
    "plan",
]


def __getattr__(name: str):
    if name in ("EngineConfig", "EnumerationResult", "HugeEngine"):
        return getattr(import_module(".engine", __name__), name)
    if name == "plan":
        return import_module(".plan", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
