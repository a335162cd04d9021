"""Motif analysis of a social network (the GPM application of paper §6).

Counts every 3- and 4-vertex motif on a clustered scale-free graph — the
engine's non-induced instance counts next to the induced census they
solve to — then compares HUGE against the four baseline systems on the
most expensive motif, printing the paper-style metrics (T, T_R, T_C, C,
M) side by side.

Run:  python examples/social_motifs.py
"""

from repro import Cluster
from repro.apps import motif_census, motif_counts
from repro.baselines import (BenuEngine, BigJoinEngine, RadsEngine,
                             SeedEngine)
from repro.core import HugeEngine
from repro.graph import load_dataset
from repro.query import get_query


def main() -> None:
    graph = load_dataset("LJ", scale=0.6)
    cluster = Cluster(graph, num_machines=8, workers_per_machine=4, seed=7)
    print(f"data graph (LJ stand-in): {graph}\n")

    print("=== 3- and 4-vertex connected patterns ===")
    print(f"  {'motif':12s} {'instances (non-induced)':>24s} "
          f"{'census (induced)':>18s}")
    for k in (3, 4):
        instances = motif_counts(cluster, k)
        census = motif_census(cluster, k)
        for name, count in sorted(instances.items()):
            print(f"  {name:12s} {count:>24,} {census.counts[name]:>18,}")
        print(f"  size-{k} census: {census.total_subgraphs:,} connected "
              f"{k}-vertex sets")

    print("\n=== engine comparison on the square query (q1) ===")
    query = get_query("q1")
    engines = [
        ("HUGE", HugeEngine(cluster)),
        ("SEED", SeedEngine(cluster)),
        ("BiGJoin", BigJoinEngine(cluster)),
        ("BENU", BenuEngine(cluster)),
        ("RADS", RadsEngine(cluster)),
    ]
    print(f"  {'engine':9s} {'T':>9s} {'T_R':>9s} {'T_C':>9s} "
          f"{'C':>10s} {'M':>10s}")
    for name, engine in engines:
        r = engine.run(query)
        rep = r.report
        print(f"  {name:9s} {rep.total_time_s:8.3f}s {rep.compute_time_s:8.3f}s "
              f"{rep.comm_time_s:8.3f}s {rep.bytes_transferred / 1e6:8.2f}MB "
              f"{rep.peak_memory_bytes / 1e6:8.2f}MB")


if __name__ == "__main__":
    main()
