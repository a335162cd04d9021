"""Layer map of ``src/repro`` and ``cProfile`` attribution to it.

Every module maps to exactly one layer (first matching prefix);
``core/kernels.py`` is split by function name into *enumerate* and
*accounting*.  Attribution works on whatever the profile contains: a
kernel that was renamed or deleted simply contributes nothing.
"""

from __future__ import annotations

#: module path prefix (relative to ``src/repro/``) -> layer, most
#: specific first
LAYER_PREFIXES: tuple[tuple[str, str], ...] = (
    ("graph/", "graph"),
    ("query/estimate.py", "query.estimate"),
    ("query/", "query"),
    ("core/plan/optimiser.py", "plan.optimiser"),
    ("core/plan/", "plan"),
    ("core/kernels.py", "kernels"),
    ("core/stealing.py", "stealing"),
    ("core/cache.py", "cache"),
    ("core/operators.py", "operators"),
    ("core/scheduler.py", "scheduler"),
    ("core/batch.py", "batch"),
    ("core/dataflow.py", "batch"),
    ("core/shm.py", "serve"),
    ("core/", "engine"),
    ("cluster/", "cluster"),
    ("baselines/", "baselines"),
    ("serve/", "serve"),
    ("stream/", "stream"),
    ("", "other"),
)

#: the float-replay machinery of ``core/kernels.py`` (ROADMAP, "integer
#: cost ledger"); every other function of the module enumerates
ACCOUNTING_KERNELS = frozenset({
    "chain_add", "exact_chain_total", "chunk_charges", "chained_costs",
    "hash_destinations", "_as_grid", "_hash_rows_vector",
    "_vector_hash_matches_interpreter", "log2_plus2_table",
})

#: layers that simulate the accounting instead of enumerating
ACCOUNTING_LAYERS = ("kernels.accounting", "stealing", "cluster")

_MARKER = "/src/repro/"


def module_layer(relpath: str) -> str:
    """Layer of a module path relative to ``src/repro/``."""
    for prefix, layer in LAYER_PREFIXES:
        if relpath.startswith(prefix):
            return layer
    return "other"


def function_layer(filename: str, funcname: str) -> str | None:
    """Layer of a profiled function, ``None`` outside ``src/repro``."""
    at = filename.replace("\\", "/").rfind(_MARKER)
    if at < 0:
        return None
    layer = module_layer(filename[at + len(_MARKER):])
    if layer == "kernels":
        return ("kernels.accounting" if funcname in ACCOUNTING_KERNELS
                else "kernels.enumerate")
    return layer


def layer_self_times(stats: dict) -> dict[str, float]:
    """Self time per layer from a ``pstats`` stats dict.

    A ``repro`` function's self time goes to its layer.  Builtin, numpy
    and standard-library time goes to the layer of the ``repro``
    function that called it: each outside function's self time is split
    over its callers by the per-caller self time ``cProfile`` records,
    and a caller that is itself outside ``repro`` hands its share up the
    same way.  What reaches no ``repro`` caller (the benchmark's own
    loop) lands in ``other``.
    """
    totals: dict[str, float] = {}
    shares: dict[tuple, dict[str, float]] = {}

    def share_of(func: tuple, depth: int = 0) -> dict[str, float]:
        """Normalised layer distribution of an outside function."""
        layer = function_layer(func[0], func[2])
        if layer is not None:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        shares[func] = {"other": 1.0}  # cycle guard
        callers = stats.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weight = sum(c[3] for c in callers.values())
        if not callers or weight <= 0.0 or depth > 24:
            return shares[func]
        dist: dict[str, float] = {}
        for caller, c in callers.items():
            for layer, part in share_of(caller, depth + 1).items():
                dist[layer] = dist.get(layer, 0.0) + part * c[3] / weight
        shares[func] = dist
        return dist

    for func, (_cc, _nc, tt, _ct, callers) in stats.items():
        layer = function_layer(func[0], func[2])
        if layer is not None:
            totals[layer] = totals.get(layer, 0.0) + tt
            continue
        if not callers:
            totals["other"] = totals.get("other", 0.0) + tt
            continue
        for caller, c in callers.items():
            for layer, part in share_of(caller).items():
                totals[layer] = totals.get(layer, 0.0) + part * c[2]
    return totals


def function_calls(stats: dict, filename_suffix: str, funcname: str) -> int:
    """Primitive call count of one function, 0 when it no longer exists."""
    return sum(nc for (fn, _line, name), (_cc, nc, *_rest) in stats.items()
               if name == funcname
               and fn.replace("\\", "/").endswith(filename_suffix))


def total_calls(stats: dict) -> int:
    return sum(nc for (_cc, nc, *_rest) in stats.values())
