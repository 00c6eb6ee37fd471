"""Scenario: travel-time vs travel-distance kNN (paper Section 7.5).

The same road network carries two edge-weight kinds: physical distance
and travel time under road-class speeds.  The nearest POI by distance is
often not the nearest by time (a motorway detour wins), and the Euclidean
lower bound IER relies on weakens on time weights — both effects are
shown here, served through one :class:`repro.QueryEngine` per weight
kind.

Run:  python examples/travel_time_routing.py
"""

from repro import QueryEngine, road_network, travel_time_weights, uniform_objects
from repro.utils.counters import Counters


def main() -> None:
    distance_graph = road_network(2500, seed=23)
    time_graph = travel_time_weights(distance_graph, seed=23)
    print(f"distance graph: {distance_graph}")
    print(f"time graph:     {time_graph}")
    print(f"max speed S = {time_graph.max_speed():.2f} "
          "(scales the Euclidean lower bound)\n")

    objects = uniform_objects(distance_graph, density=0.005, seed=2)
    k = 3

    # One engine per weight kind; each caches its own indexes.
    by_distance = QueryEngine(distance_graph, objects)
    by_time = QueryEngine(time_graph, objects)

    # How often does the nearest POI differ between the two metrics?
    differing = 0
    queries = range(0, distance_graph.num_vertices, 97)
    for q in queries:
        nn_d = by_distance.query(q, 1, method="ine").vertices[0]
        nn_t = by_time.query(q, 1, method="ine").vertices[0]
        differing += nn_d != nn_t
    total = len(list(queries))
    print(
        f"nearest POI differs between distance and time metrics for "
        f"{differing}/{total} query points\n"
    )

    # IER on time weights: exact, but with more false hits because the
    # scaled Euclidean bound is looser.
    counters_d, counters_t = Counters(), Counters()
    for q in range(0, distance_graph.num_vertices, 211):
        rd = by_distance.query(q, k, method="ier-phl", counters=counters_d)
        rt = by_time.query(q, k, method="ier-phl", counters=counters_t)
        assert rd.vertices == by_distance.query(q, k, method="ine").vertices
        assert rt.vertices == by_time.query(q, k, method="ine").vertices
    print("IER network-distance computations per workload:")
    print(f"  travel distance: {counters_d['verify_network_computations']}")
    print(f"  travel time:     {counters_t['verify_network_computations']} "
          "(more false hits, as in the paper)\n")

    # Hub labels shrink on travel time (stronger hierarchy).
    labels_d = by_distance.workbench.hub_labels
    labels_t = by_time.workbench.hub_labels
    print("average hub-label size:")
    print(f"  travel distance: {labels_d.average_label_size():.1f}")
    print(f"  travel time:     {labels_t.average_label_size():.1f}")

    # G-tree works unchanged on either weight kind — and the engine can
    # attach the actual route to each result.
    q = 77
    result = by_time.query(q, k, method="gtree", with_paths=True)
    shown = ", ".join(
        f"v{n.vertex} ({n.distance:.2f} time units)" for n in result.neighbors
    )
    print(f"\nG-tree kNN by travel time from v{q}: [{shown}]")
    best = result.neighbors[0]
    print(f"fastest route to v{best.vertex}: {len(best.path)} vertices")


if __name__ == "__main__":
    main()
