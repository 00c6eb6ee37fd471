"""One function per figure of the paper's evaluation.

Every function returns one or more :class:`ExperimentResult` objects whose
series mirror the corresponding plot.  Absolute numbers differ from the
paper (pure Python on scaled networks vs C++ on DIMACS data);
:mod:`repro.experiments.claims` checks the *shapes* — orderings, trends
and crossovers.

Figures on travel-time graphs (17, 23-27) reuse the same functions on a
``IndexCache`` built over travel-time weights.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.engine.workbench import IndexCache, as_index_cache
from repro.graph.graph import Graph
from repro.experiments.runner import (
    ExperimentResult,
    measure_query_time,
    random_queries,
)
from repro.index.gtree import GTree, GTreeOracle
from repro.knn.distance_browsing import DistanceBrowsing
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ier import IER
from repro.knn.ine import INE
from repro.objects import (
    clustered_objects,
    min_distance_object_sets,
    poi_object_sets,
    uniform_objects,
)
from repro.objects.indexes import object_index_costs
from repro.reference import ReferenceINE
from repro.utils.counters import Counters

DEFAULT_K = 10
#: The paper's 0.001 scaled up 10x: on networks ~100x smaller it keeps the
#: expected number of objects per search region comparable.
DEFAULT_DENSITY = 0.01

IER_ORACLES = ("ier-dijk", "ier-gt", "ier-phl", "ier-tnr", "ier-ch")
IER_LABELS = {
    "ier-dijk": "Dijk",
    "ier-gt": "MGtree",
    "ier-phl": "PHL",
    "ier-tnr": "TNR",
    "ier-ch": "CH",
}


def _bench(workbench) -> IndexCache:
    """Accept an IndexCache or a QueryEngine at every entry point."""
    return as_index_cache(workbench)


# ----------------------------------------------------------------------
# Figure 4 / 23: IER with different shortest-path oracles
# ----------------------------------------------------------------------
def fig04_ier_variants(
    workbench: IndexCache,
    ks: Sequence[int] = (1, 5, 10, 25),
    densities: Sequence[float] = (0.001, 0.01, 0.1),
    default_k: int = DEFAULT_K,
    default_density: float = DEFAULT_DENSITY,
    num_queries: int = 30,
    seed: int = 0,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """IER query time per oracle, varying k and object density."""
    workbench = _bench(workbench)
    graph = workbench.graph
    queries = random_queries(graph, num_queries, seed)
    by_k = ExperimentResult("Fig 4(a) IER variants vs k", "k", "query time (us)")
    objects = uniform_objects(graph, default_density, seed=seed)
    algorithms = {
        name: workbench.make(name, objects) for name in IER_ORACLES
    }
    for k in ks:
        for name, alg in algorithms.items():
            by_k.add(IER_LABELS[name], k, measure_query_time(alg, queries, k))
    by_d = ExperimentResult(
        "Fig 4(b) IER variants vs density", "density", "query time (us)"
    )
    for density in densities:
        objs = uniform_objects(graph, density, seed=seed, minimum=default_k)
        for name in IER_ORACLES:
            alg = workbench.make(name, objs)
            by_d.add(
                IER_LABELS[name],
                density,
                measure_query_time(alg, queries, default_k),
            )
    return by_k, by_d


# ----------------------------------------------------------------------
# Figure 6: distance-matrix layout ablation
# ----------------------------------------------------------------------
def fig06_matrix_layouts(
    graph: Graph,
    ks: Sequence[int] = (1, 5, 10, 25),
    densities: Sequence[float] = (0.001, 0.01, 0.1),
    default_k: int = DEFAULT_K,
    default_density: float = DEFAULT_DENSITY,
    num_queries: int = 30,
    seed: int = 0,
    tau: Optional[int] = None,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """G-tree kNN time with array vs hash-table distance matrices."""
    labels = {
        "hash_tuple": "Chained Hashing",
        "hash_packed": "Quad. Probing",
        "array": "Array",
    }
    gtrees = {
        backend: GTree(graph, tau=tau, matrix_backend=backend, seed=seed)
        for backend in labels
    }
    queries = random_queries(graph, num_queries, seed)
    objects = uniform_objects(graph, default_density, seed=seed)
    by_k = ExperimentResult(
        "Fig 6(a) matrix layout vs k", "k", "query time (us)"
    )
    for k in ks:
        for backend, label in labels.items():
            alg = GTreeKNN(gtrees[backend], objects)
            by_k.add(label, k, measure_query_time(alg, queries, k))
    by_d = ExperimentResult(
        "Fig 6(b) matrix layout vs density", "density", "query time (us)"
    )
    for density in densities:
        objs = uniform_objects(graph, density, seed=seed, minimum=default_k)
        for backend, label in labels.items():
            alg = GTreeKNN(gtrees[backend], objs)
            by_d.add(label, density, measure_query_time(alg, queries, default_k))
    return by_k, by_d


# ----------------------------------------------------------------------
# Figure 7: INE implementation ladder
# ----------------------------------------------------------------------
def fig07_ine_ablation(
    graph: Graph,
    ks: Sequence[int] = (1, 5, 10, 25),
    densities: Sequence[float] = (0.001, 0.01, 0.1),
    default_k: int = DEFAULT_K,
    default_density: float = DEFAULT_DENSITY,
    num_queries: int = 30,
    seed: int = 0,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """INE query time across the paper's four implementation rungs
    (the reference loops) and, as a fifth series, the production INE —
    the whole-frontier kernel one rung past the paper's ladder."""
    labels = {
        "first_cut": "1st Cut",
        "pqueue": "PQueue",
        "settled": "Settled",
        "graph": "Graph",
    }

    def rungs(objs):
        algs = {
            label: ReferenceINE(graph, objs, variant=v)
            for v, label in labels.items()
        }
        algs["Production"] = INE(graph, objs)
        return algs

    queries = random_queries(graph, num_queries, seed)
    variants = rungs(uniform_objects(graph, default_density, seed=seed))
    by_k = ExperimentResult("Fig 7(a) INE ablation vs k", "k", "query time (us)")
    for k in ks:
        for label, alg in variants.items():
            by_k.add(label, k, measure_query_time(alg, queries, k))
    by_d = ExperimentResult(
        "Fig 7(b) INE ablation vs density", "density", "query time (us)"
    )
    for density in densities:
        objs = uniform_objects(graph, density, seed=seed, minimum=default_k)
        for label, alg in rungs(objs).items():
            by_d.add(label, density, measure_query_time(alg, queries, default_k))
    return by_k, by_d


# ----------------------------------------------------------------------
# Figure 8 / 26: road-network index preprocessing cost
# ----------------------------------------------------------------------
def fig08_preprocessing(
    suite: Dict[str, IndexCache],
    include_silc: bool = True,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """Index size (KB) and construction time (s) vs network size."""
    suite = {name: _bench(wb) for name, wb in suite.items()}
    size = ExperimentResult(
        "Fig 8(a) index size vs |V|", "|V|", "index size (KB)"
    )
    build = ExperimentResult(
        "Fig 8(b) construction time vs |V|", "|V|", "construction time (s)"
    )
    for name, wb in suite.items():
        n = wb.graph.num_vertices
        size.add("INE", n, wb.graph.size_bytes() / 1024)
        size.add("Gtree", n, wb.gtree.size_bytes() / 1024)
        build.add("Gtree", n, wb.gtree.build_time())
        size.add("ROAD", n, wb.road.size_bytes() / 1024)
        build.add("ROAD", n, wb.road.build_time())
        size.add("PHL", n, wb.hub_labels.size_bytes() / 1024)
        build.add("PHL", n, wb.hub_labels.build_time())
        if include_silc and wb.unavailable_reason("silc") is None:
            size.add("DisBrw", n, wb.silc.size_bytes() / 1024)
            build.add("DisBrw", n, wb.silc.build_time())
    return size, build


# ----------------------------------------------------------------------
# Figure 9: query time vs network size + method-internal statistics
# ----------------------------------------------------------------------
def fig09_network_size(
    suite: Dict[str, IndexCache],
    k: int = DEFAULT_K,
    density: float = DEFAULT_DENSITY,
    num_queries: int = 25,
    seed: int = 0,
) -> Tuple[ExperimentResult, ExperimentResult]:
    """All methods vs |V|, plus G-tree path cost & ROAD bypassed vertices."""
    suite = {name: _bench(wb) for name, wb in suite.items()}
    times = ExperimentResult(
        "Fig 9(a) query time vs |V|", "|V|", "query time (us)"
    )
    stats = ExperimentResult(
        "Fig 9(b) G-tree path cost / ROAD bypassed vs |V|", "|V|", "count"
    )
    for name, wb in suite.items():
        graph = wb.graph
        n = graph.num_vertices
        objects = uniform_objects(graph, density, seed=seed, minimum=k)
        queries = random_queries(graph, num_queries, seed)
        for method in wb.available_methods():
            alg = wb.make(method, objects)
            times.add(method, n, measure_query_time(alg, queries, k))
        # Internal statistics (Figure 9(b)).
        counters = Counters()
        gtree_alg = wb.make("gtree", objects)
        for q in queries:
            gtree_alg.knn(int(q), k, counters=counters)
        stats.add("Gtree path cost", n, counters["matrix_ops"] / num_queries)
        # IER-Gt's oracle work happens inside GTree.distance; the oracle
        # accepts counters so its matrix operations are measured in the
        # same units (paper Figure 9(b): IER-Gt needs fewer computations
        # than the G-tree kNN heuristic and the gap grows with |V|).
        counters_ier = Counters()
        oracle = GTreeOracle(wb.gtree, counters=counters_ier)
        ier_alg = IER(graph, objects, oracle)
        for q in queries:
            ier_alg.knn(int(q), k)
        stats.add(
            "IER-Gt path cost", n, counters_ier["matrix_ops"] / num_queries
        )
        counters2 = Counters()
        road_alg = wb.make("road", objects)
        for q in queries:
            road_alg.knn(int(q), k, counters=counters2)
        stats.add("ROAD bypassed", n, counters2["expand_bypassed"] / num_queries)
    return times, stats


# ----------------------------------------------------------------------
# Figures 10 / 16(a) / 24(a): varying k
# ----------------------------------------------------------------------
def fig10_vary_k(
    workbench: IndexCache,
    ks: Sequence[int] = (1, 5, 10, 25, 50),
    density: float = DEFAULT_DENSITY,
    num_queries: int = 30,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    workbench = _bench(workbench)
    graph = workbench.graph
    objects = uniform_objects(graph, density, seed=seed, minimum=max(ks))
    queries = random_queries(graph, num_queries, seed)
    if methods is None:
        methods = workbench.available_methods()
    result = ExperimentResult(
        f"Fig 10 query time vs k ({graph.name})", "k", "query time (us)"
    )
    algorithms = {m: workbench.make(m, objects) for m in methods}
    for k in ks:
        for method, alg in algorithms.items():
            result.add(method, k, measure_query_time(alg, queries, k))
    return result


# ----------------------------------------------------------------------
# Figures 11 / 16(b) / 24(b): varying density
# ----------------------------------------------------------------------
def fig11_vary_density(
    workbench: IndexCache,
    densities: Sequence[float] = (0.001, 0.01, 0.1, 0.5),
    k: int = DEFAULT_K,
    num_queries: int = 30,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    workbench = _bench(workbench)
    graph = workbench.graph
    queries = random_queries(graph, num_queries, seed)
    if methods is None:
        methods = workbench.available_methods()
    result = ExperimentResult(
        f"Fig 11 query time vs density ({graph.name})",
        "density",
        "query time (us)",
    )
    for density in densities:
        objects = uniform_objects(graph, density, seed=seed, minimum=k)
        for method in methods:
            alg = workbench.make(method, objects)
            result.add(method, density, measure_query_time(alg, queries, k))
    return result


# ----------------------------------------------------------------------
# Figure 12 / 24(d): clustered objects
# ----------------------------------------------------------------------
def fig12_clusters(
    workbench: IndexCache,
    cluster_counts: Sequence[int] = (4, 16, 64, 256),
    ks: Sequence[int] = (1, 5, 10, 25),
    default_k: int = DEFAULT_K,
    default_clusters: Optional[int] = None,
    num_queries: int = 30,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> Tuple[ExperimentResult, ExperimentResult]:
    workbench = _bench(workbench)
    graph = workbench.graph
    queries = random_queries(graph, num_queries, seed)
    if methods is None:
        methods = workbench.available_methods()
    by_c = ExperimentResult(
        "Fig 12(a) query time vs #clusters", "#clusters", "query time (us)"
    )
    for count in cluster_counts:
        objects = clustered_objects(graph, count, seed=seed)
        for method in methods:
            alg = workbench.make(method, objects)
            by_c.add(method, count, measure_query_time(alg, queries, default_k))
    if default_clusters is None:
        default_clusters = max(
            4, int(DEFAULT_DENSITY * graph.num_vertices / 3)
        )
    objects = clustered_objects(graph, default_clusters, seed=seed)
    by_k = ExperimentResult(
        "Fig 12(b) clustered objects vs k", "k", "query time (us)"
    )
    algorithms = {m: workbench.make(m, objects) for m in methods}
    for k in ks:
        for method, alg in algorithms.items():
            by_k.add(method, k, measure_query_time(alg, queries, k))
    return by_c, by_k


# ----------------------------------------------------------------------
# Figure 13 / 25: real-world-like POI sets
# ----------------------------------------------------------------------
def fig13_real_pois(
    workbench: IndexCache,
    k: int = DEFAULT_K,
    num_queries: int = 30,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    workbench = _bench(workbench)
    graph = workbench.graph
    queries = random_queries(graph, num_queries, seed)
    if methods is None:
        methods = workbench.available_methods()
    poi_sets = poi_object_sets(graph, seed=seed, minimum=k, density_scale=10.0)
    result = ExperimentResult(
        f"Fig 13 real-world object sets ({graph.name})",
        "poi set",
        "query time (us)",
    )
    # Ordered by decreasing size, like the paper's bar groups.
    for name in sorted(poi_sets, key=lambda s: -len(poi_sets[s])):
        objects = poi_sets[name]
        for method in methods:
            alg = workbench.make(method, objects)
            result.add(method, name, measure_query_time(alg, queries, k))
    return result


# ----------------------------------------------------------------------
# Figure 14 / 17(d) / 24(c): minimum object distance
# ----------------------------------------------------------------------
def fig14_min_distance(
    workbench: IndexCache,
    num_sets: int = 4,
    k: int = DEFAULT_K,
    density: float = DEFAULT_DENSITY,
    num_queries: int = 25,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    workbench = _bench(workbench)
    graph = workbench.graph
    size = max(k, int(density * graph.num_vertices))
    sets, query_pool, _ = min_distance_object_sets(
        graph, num_sets=num_sets, size=size, seed=seed
    )
    rng = np.random.default_rng(seed)
    queries = rng.choice(query_pool, size=min(num_queries, len(query_pool)))
    if methods is None:
        methods = workbench.available_methods()
    result = ExperimentResult(
        "Fig 14 query time vs min object distance", "set", "query time (us)"
    )
    for i, objects in enumerate(sets, start=1):
        for method in methods:
            alg = workbench.make(method, objects)
            result.add(method, f"R{i}", measure_query_time(alg, queries, k))
    return result


# ----------------------------------------------------------------------
# Figure 15 / 27: varying k on named POI sets
# ----------------------------------------------------------------------
def fig15_real_k(
    workbench: IndexCache,
    poi_names: Sequence[str] = ("hospitals", "fast_food"),
    ks: Sequence[int] = (1, 5, 10, 25),
    num_queries: int = 30,
    seed: int = 0,
    methods: Optional[Sequence[str]] = None,
) -> Dict[str, ExperimentResult]:
    workbench = _bench(workbench)
    graph = workbench.graph
    queries = random_queries(graph, num_queries, seed)
    poi_sets = poi_object_sets(graph, seed=seed, minimum=max(ks), density_scale=10.0)
    if methods is None:
        methods = workbench.available_methods()
    out: Dict[str, ExperimentResult] = {}
    for poi in poi_names:
        objects = poi_sets[poi]
        result = ExperimentResult(
            f"Fig 15 vary k on {poi}", "k", "query time (us)"
        )
        algorithms = {m: workbench.make(m, objects) for m in methods}
        for k in ks:
            for method, alg in algorithms.items():
                result.add(method, k, measure_query_time(alg, queries, k))
        out[poi] = result
    return out


# ----------------------------------------------------------------------
# Figure 18: object-index cost
# ----------------------------------------------------------------------
def fig18_object_indexes(
    workbench: IndexCache,
    densities: Sequence[float] = (0.001, 0.01, 0.1, 0.5),
    seed: int = 0,
) -> Tuple[ExperimentResult, ExperimentResult]:
    workbench = _bench(workbench)
    graph = workbench.graph
    size = ExperimentResult(
        "Fig 18(a) object index size vs density", "density", "size (KB)"
    )
    build = ExperimentResult(
        "Fig 18(b) object index build time vs density", "density", "time (us)"
    )
    labels = {
        "ine": "INE",
        "rtree": "IER/DB",
        "occurrence_list": "G-tree",
        "association_directory": "ROAD",
    }
    for density in densities:
        objects = uniform_objects(graph, density, seed=seed)
        costs = object_index_costs(graph, workbench.gtree, workbench.road, objects)
        for key, label in labels.items():
            size.add(label, density, costs[key]["size_bytes"] / 1024)
            if key != "ine":
                build.add(label, density, costs[key]["build_time_s"] * 1e6)
    return size, build


# ----------------------------------------------------------------------
# Figure 19: DisBrw Object Hierarchy vs DB-ENN
# ----------------------------------------------------------------------
def fig19_db_enn(
    workbench: IndexCache,
    ks: Sequence[int] = (1, 5, 10, 25),
    densities: Sequence[float] = (0.001, 0.01, 0.1),
    default_k: int = DEFAULT_K,
    default_density: float = DEFAULT_DENSITY,
    num_queries: int = 25,
    seed: int = 0,
) -> Tuple[ExperimentResult, ExperimentResult]:
    workbench = _bench(workbench)
    graph = workbench.graph
    silc = workbench.silc
    queries = random_queries(graph, num_queries, seed)
    objects = uniform_objects(graph, default_density, seed=seed, minimum=max(ks))
    by_k = ExperimentResult("Fig 19(a) DisBrw vs DB-ENN vs k", "k", "query time (us)")
    oh = DistanceBrowsing(silc, objects, candidate_source="hierarchy")
    enn = DistanceBrowsing(silc, objects, candidate_source="enn")
    for k in ks:
        by_k.add("DisBrw", k, measure_query_time(oh, queries, k))
        by_k.add("DB-ENN", k, measure_query_time(enn, queries, k))
    by_d = ExperimentResult(
        "Fig 19(b) DisBrw vs DB-ENN vs density", "density", "query time (us)"
    )
    for density in densities:
        objs = uniform_objects(graph, density, seed=seed, minimum=default_k)
        oh = DistanceBrowsing(silc, objs, candidate_source="hierarchy")
        enn = DistanceBrowsing(silc, objs, candidate_source="enn")
        by_d.add("DisBrw", density, measure_query_time(oh, queries, default_k))
        by_d.add("DB-ENN", density, measure_query_time(enn, queries, default_k))
    return by_k, by_d


# ----------------------------------------------------------------------
# Figures 20/21: degree-2 chain optimisation
# ----------------------------------------------------------------------
def fig20_21_deg2(
    workbench: IndexCache,
    ks: Sequence[int] = (1, 5, 10, 25),
    densities: Sequence[float] = (0.001, 0.01, 0.1),
    default_k: int = DEFAULT_K,
    default_density: float = DEFAULT_DENSITY,
    num_queries: int = 25,
    seed: int = 0,
) -> Tuple[ExperimentResult, ExperimentResult]:
    workbench = _bench(workbench)
    graph = workbench.graph
    silc = workbench.silc
    queries = random_queries(graph, num_queries, seed)
    objects = uniform_objects(graph, default_density, seed=seed, minimum=max(ks))
    plain = DistanceBrowsing(silc, objects, use_chains=False)
    opt = DistanceBrowsing(silc, objects, use_chains=True)
    by_k = ExperimentResult(
        f"Fig 20/21(a) chain optimisation vs k ({graph.name})",
        "k",
        "query time (us)",
    )
    for k in ks:
        by_k.add("DisBrw", k, measure_query_time(plain, queries, k))
        by_k.add("OptDisBrw", k, measure_query_time(opt, queries, k))
    by_d = ExperimentResult(
        f"Fig 20/21(b) chain optimisation vs density ({graph.name})",
        "density",
        "query time (us)",
    )
    for density in densities:
        objs = uniform_objects(graph, density, seed=seed, minimum=default_k)
        plain = DistanceBrowsing(silc, objs, use_chains=False)
        opt = DistanceBrowsing(silc, objs, use_chains=True)
        by_d.add("DisBrw", density, measure_query_time(plain, queries, default_k))
        by_d.add("OptDisBrw", density, measure_query_time(opt, queries, default_k))
    return by_k, by_d


# ----------------------------------------------------------------------
# Figure 22: improved G-tree leaf search
# ----------------------------------------------------------------------
def fig22_leaf_search(
    workbench: IndexCache,
    densities: Sequence[float] = (0.001, 0.01, 0.1, 0.5),
    ks: Sequence[int] = (1, 10),
    num_queries: int = 30,
    seed: int = 0,
) -> ExperimentResult:
    workbench = _bench(workbench)
    graph = workbench.graph
    queries = random_queries(graph, num_queries, seed)
    result = ExperimentResult(
        "Fig 22 G-tree leaf search before/after", "density", "query time (us)"
    )
    for density in densities:
        objects = uniform_objects(graph, density, seed=seed, minimum=max(ks))
        for k in ks:
            before = GTreeKNN(workbench.gtree, objects, improved_leaf_search=False)
            after = GTreeKNN(workbench.gtree, objects, improved_leaf_search=True)
            result.add(f"k={k} (Bef)", density, measure_query_time(before, queries, k))
            result.add(f"k={k} (Aft)", density, measure_query_time(after, queries, k))
    return result
