"""Labelled graphs and labelled patterns (paper §2 fn. 3).

Builds a small "marketplace" graph where every vertex is a User, an Item
or a Tag, and counts labelled patterns on the HUGE engine — a
``QueryGraph`` whose vertices carry labels — including a co-purchase
recommendation pattern whose matches are collected.

Run:  python examples/labelled_patterns.py
"""

import numpy as np

from repro import Cluster
from repro.core import EngineConfig, HugeEngine
from repro.graph import generators
from repro.query import QueryGraph

USER, ITEM, TAG = 0, 1, 2
LABELS = {"User": USER, "Item": ITEM, "Tag": TAG}

PATTERNS = [
    ("users connected to items",
     QueryGraph(2, [(0, 1)], name="user-item", labels=(USER, ITEM))),
    ("items sharing a tag",
     QueryGraph(3, [(0, 1), (1, 2)], name="item-tag-item",
                labels=(ITEM, TAG, ITEM))),
    ("co-purchase wedge (two users, one item)",
     QueryGraph(3, [(0, 1), (1, 2)], name="user-item-user",
                labels=(USER, ITEM, USER))),
    ("labelled triangle (user-item-tag)",
     QueryGraph(3, [(0, 1), (1, 2), (2, 0)], name="user-item-tag",
                labels=(USER, ITEM, TAG))),
]


def main() -> None:
    graph = generators.power_law_cluster(400, 3, triad_p=0.4, seed=11)
    rng = np.random.default_rng(11)
    labels = rng.choice([USER, USER, ITEM, ITEM, TAG],
                        size=graph.num_vertices)
    cluster = Cluster(graph, num_machines=4, labels=labels, seed=2)
    counts = {name: int((labels == lid).sum())
              for name, lid in LABELS.items()}
    print(f"marketplace graph: {graph}; vertices by label: {counts}\n")

    engine = HugeEngine(cluster)
    for title, pattern in PATTERNS:
        result = engine.run(pattern)
        print(f"{title}:")
        print(f"  {pattern.name}: edges {sorted(pattern.edges)}, "
              f"labels {pattern.labels}")
        print(f"  -> {result.count} matches "
              f"({result.report.total_time_s * 1e3:.2f} ms simulated)\n")

    # collect the co-purchase wedge: each match binds (u, i, v)
    wedge = PATTERNS[2][1]
    result = HugeEngine(cluster, EngineConfig(collect_results=True)).run(wedge)
    print("first five co-purchase bindings (u, i, v):")
    for match in (result.matches or [])[:5]:
        print(f"  {tuple(match)}")


if __name__ == "__main__":
    main()
