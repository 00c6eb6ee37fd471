"""Scenario: a map service answering "nearest hospital / fast food" queries.

This is the workload the paper's introduction motivates: one road-network
index shared across many POI categories (decoupled indexing), with small
per-category object indexes that are cheap to build and swap at query
time.

The script builds one :class:`repro.QueryEngine` per POI category over a
*shared* index cache (``engine.with_objects``), so the road-network
indexes are built once and only the tiny object indexes differ — the
paper's Section 7.4 measurement — then serves kNN queries per category.

Run:  python examples/city_poi_search.py
"""

import time

from repro import QueryEngine, road_network, verify_knn_result
from repro.index.gtree import OccurrenceList
from repro.objects import poi_object_sets
from repro.objects.indexes import object_index_costs


def main() -> None:
    graph = road_network(3000, seed=11)
    print(f"road network: {graph}")

    # Road-network indexes: built once (inside the engine's shared index
    # cache), reused for every POI category.
    engine = QueryEngine(graph, [])
    bench = engine.workbench
    start = time.perf_counter()
    gtree = bench.gtree
    road = bench.road
    labels = bench.hub_labels
    print(
        f"road-network indexes built in {time.perf_counter() - start:.1f}s "
        f"(G-tree {gtree.size_bytes() / 1024:.0f} KB, "
        f"ROAD {road.size_bytes() / 1024:.0f} KB, "
        f"labels {labels.size_bytes() / 1024:.0f} KB)\n"
    )

    poi_sets = poi_object_sets(graph, seed=3)
    query = 1500  # a resident somewhere in the network
    k = 3

    print(f"{'category':14} {'|O|':>5} {'obj-index build':>16} {'kNN (us)':>9}   results")
    for category, objects in sorted(poi_sets.items(), key=lambda kv: -len(kv[1])):
        costs = object_index_costs(graph, gtree, road, objects)
        build_us = costs["occurrence_list"]["build_time_s"] * 1e6

        # Swap in this category's object set: same shared road indexes,
        # fresh (tiny) object index.
        category_engine = engine.with_objects(objects)
        result = category_engine.query(query, k, method="ier-phl")
        shown = ", ".join(f"v{v}@{d:.1f}" for d, v in result.neighbors)
        print(
            f"{category:14} {len(objects):>5} {build_us:>13.0f} us "
            f"{result.time_us:>9.0f}   [{shown}]"
        )

    # Decoupled indexing at work: updating one category's objects only
    # rebuilds that category's (tiny) object index.
    hospitals = poi_sets["hospitals"]
    start = time.perf_counter()
    OccurrenceList(gtree, hospitals)
    rebuild_us = (time.perf_counter() - start) * 1e6
    print(
        f"\nrebuilding the hospitals occurrence list after an update: "
        f"{rebuild_us:.0f} us (the road-network index is untouched)"
    )

    # Sanity: IER agrees with plain INE (distances compared with a float
    # tolerance — different methods sum edge weights in different orders).
    hospital_engine = engine.with_objects(hospitals)
    assert verify_knn_result(
        hospital_engine.query(query, k, method="ier-phl").neighbors,
        hospital_engine.query(query, k, method="ine").neighbors,
        rel_tol=1e-9,
    )
    print("IER results verified against INE.")


if __name__ == "__main__":
    main()
