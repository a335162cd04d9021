"""Path queries on a road network (the path applications of paper §6).

Uses the HUGE runtime for single-source shortest paths (a frontier loop
over the GetNbrs RPC) and for hop-constrained s–t simple-path enumeration
(one engine run per path length, grown from both ends and joined in the
middle) on the EU-road stand-in; both report what they sent.

Run:  python examples/road_network_paths.py
"""

from repro import Cluster
from repro.apps import enumerate_st_paths, shortest_path, \
    shortest_path_lengths
from repro.graph import load_dataset


def communication(cluster: Cluster) -> str:
    machines = cluster.metrics.machines
    return (f"{sum(m.bytes_sent for m in machines) / 1e3:.1f} KB, "
            f"{sum(m.rpc_requests for m in machines)} RPCs")


def main() -> None:
    graph = load_dataset("EU")
    cluster = Cluster(graph, num_machines=6, workers_per_machine=2, seed=3)
    print(f"road network (EU stand-in): {graph}\n")

    source, target = 0, graph.num_vertices - 1
    path = shortest_path(cluster, source, target)
    if path is None:
        print(f"{source} -> {target}: unreachable")
    else:
        print(f"shortest path {source} -> {target}: {len(path) - 1} hops")
        print(f"  route: {' -> '.join(map(str, path[:12]))}"
              + (" ..." if len(path) > 12 else ""))

    dist = shortest_path_lengths(cluster, source)
    reach = len(dist)
    print(f"\nreachable from {source}: {reach} vertices "
          f"({reach / graph.num_vertices:.0%}); "
          f"eccentricity {max(dist.values())}")
    print(f"communication for the full BFS: {communication(cluster)}")

    # hop-constrained simple paths between two nearby junctions
    a, b = path[0], path[min(6, len(path) - 1)]
    budget = 8
    cluster.reset_metrics()
    paths = enumerate_st_paths(cluster, a, b, budget)
    print(f"\nsimple paths {a} -> {b} within {budget} hops: {len(paths)}")
    print(f"communication for the hop query: {communication(cluster)}")
    for p in paths[:5]:
        print(f"  {' -> '.join(map(str, p))}")
    if len(paths) > 5:
        print(f"  ... and {len(paths) - 5} more")


if __name__ == "__main__":
    main()
