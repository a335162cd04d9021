"""Top-level convenience API.

For quick use::

    from repro import enumerate_subgraphs, count_subgraphs
    from repro.graph import generators

    g = generators.barabasi_albert(500, 4, seed=1)
    n = count_subgraphs(g, "q1")                 # squares
    result = enumerate_subgraphs(g, "triangle", num_machines=4)
    print(result.count, result.report.total_time_s)

Everything here wraps the full system: a simulated cluster is built, the
query planned by Algorithm 1, and executed by the hybrid engine with the
adaptive scheduler.  For fine-grained control use
:class:`repro.core.HugeEngine` directly.
"""

from __future__ import annotations

from dataclasses import replace

from .cluster.cluster import Cluster
from .cluster.cost import CostModel
from .core.engine import EngineConfig, EnumerationResult, HugeEngine
from .graph.graph import Graph
from .query.pattern import QueryGraph, get_query

__all__ = ["enumerate_subgraphs", "count_subgraphs", "make_cluster"]


def make_cluster(graph: Graph, num_machines: int = 4,
                 workers_per_machine: int = 4,
                 cost: CostModel | None = None, seed: int = 0) -> Cluster:
    """Build a simulated cluster over ``graph``."""
    return Cluster(graph, num_machines=num_machines,
                   workers_per_machine=workers_per_machine,
                   cost=cost, seed=seed)


def enumerate_subgraphs(graph: Graph, query: QueryGraph | str,
                        num_machines: int = 4, workers_per_machine: int = 4,
                        collect: bool = False,
                        config: EngineConfig | None = None,
                        cost: CostModel | None = None,
                        seed: int = 0) -> EnumerationResult:
    """Enumerate all instances of ``query`` in ``graph`` with HUGE.

    Parameters
    ----------
    graph:
        The data graph.
    query:
        A :class:`~repro.query.pattern.QueryGraph` or a benchmark query
        name (``"q1"`` .. ``"q8"``, ``"triangle"``).
    num_machines / workers_per_machine:
        Simulated cluster shape.
    collect:
        Keep the matched tuples on the result (``result.matches``).
    config / cost:
        Engine and cost-model overrides.
    seed:
        Graph partitioning seed.

    Returns
    -------
    EnumerationResult
        With ``count``, ``matches`` (if collected), the executed ``plan``
        and the paper-style metrics ``report``.
    """
    cluster = make_cluster(graph, num_machines, workers_per_machine, cost,
                           seed)
    if config is None:
        config = EngineConfig(collect_results=collect)
    elif collect and not config.collect_results:
        # never mutate the caller's config object
        config = replace(config, collect_results=True)
    engine = HugeEngine(cluster, config)
    return engine.run(get_query(query))


def count_subgraphs(graph: Graph, query: QueryGraph | str,
                    num_machines: int = 4, **kwargs) -> int:
    """Number of instances of ``query`` in ``graph`` (via the full engine)."""
    return enumerate_subgraphs(graph, query, num_machines=num_machines,
                               **kwargs).count
