"""Quickstart: serve kNN queries through the unified QueryEngine.

Builds a synthetic road network, drops a set of points of interest on it,
and answers the same k-nearest-neighbour query through every registered
method via one :class:`repro.QueryEngine` — demonstrating that they agree
exactly while costing very different amounts of work, and that the
engine's planner picks a sensible method on its own.

Run:  python examples/quickstart.py
"""

from repro import QueryEngine, road_network, uniform_objects


def main() -> None:
    # A 2000-vertex "country": dense city cores, sparse countryside,
    # ~30% degree-2 chain vertices — the structure the DIMACS datasets
    # exhibit.
    graph = road_network(2000, seed=7)
    print(f"network: {graph}")

    # One object per ~100 vertices, like a typical real POI category.
    objects = uniform_objects(graph, density=0.01, seed=1)
    print(f"objects: {len(objects)} POIs\n")

    # One engine binds the network's (lazily built, shared) indexes to
    # the object set; every registered method is served through it.
    engine = QueryEngine(graph, objects)
    query, k = 42, 5

    # method="auto": the planner reads the workload's object density and
    # picks INE (dense) or an IER/G-tree method (sparse).
    auto = engine.query(query, k)
    print(f"auto-planned method for density {engine.density:.3f}: {auto.method}\n")

    # explain() runs every method on the same query; each KNNResult
    # carries the method name, wall time and its internal counters.
    print(f"k={k} nearest objects from vertex {query}:")
    reference = None
    for method, result in engine.explain(query, k).items():
        distances = ", ".join(f"{d:.2f}" for d in result.distances)
        print(
            f"  {method:12} -> [{distances}]  "
            f"{result.time_us:7.0f}us  {result.counters.as_dict()}"
        )
        if reference is None:
            reference = result.distances
        else:
            assert all(
                abs(a - b) < 1e-6 for a, b in zip(reference, result.distances)
            ), f"{method} disagrees!"
    print("\nall methods agree.")

    # Batched workloads reuse the indexes and algorithm instances — the
    # unit the paper's figures time.
    workload = range(0, graph.num_vertices, 100)
    results = engine.batch(workload, k=k)
    mean_us = sum(r.time_us for r in results) / len(results)
    print(f"\nbatch of {len(results)} queries: {mean_us:.0f}us/query mean")

    # A result is a record; each neighbor unpacks as (distance, vertex).
    first = results[0]
    distance, vertex = first.neighbors[0]
    assert (distance, vertex) == (first.distances[0], first.vertices[0])

    # Adding a sixth method is one decorated builder — see
    # repro/engine/registry.py:
    #
    #     from repro import register_method
    #
    #     @register_method("mymethod", summary="my kNN method",
    #                      requires=("gtree",))
    #     def _build(bench, objects, **kwargs):
    #         return MyKNN(bench.gtree, objects, **kwargs)
    #
    # after which engine.query(q, k, method="mymethod") just works.


if __name__ == "__main__":
    main()
