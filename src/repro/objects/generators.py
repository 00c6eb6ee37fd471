"""Object-set generators (paper Section 4.2).

All generators return sorted numpy arrays of object vertex ids and take
explicit seeds.  Densities are ratios d = |O| / |V| as in the paper.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graph.graph import Graph
from repro.pathfinding.bulk import bulk_sssp, eccentric_vertex, network_center


def uniform_objects(
    graph: Graph, density: float, seed: int = 0, minimum: int = 1
) -> np.ndarray:
    """Uniformly random object vertices at the given density.

    Because vertices themselves concentrate where the road network is
    dense, uniform vertex sampling mimics real POIs (more objects in
    cities) — the paper's rationale for this distribution.
    """
    if not 0 < density <= 1:
        raise ValueError("density must be in (0, 1]")
    n = graph.num_vertices
    size = max(minimum, int(round(density * n)))
    size = min(size, n)
    rng = np.random.default_rng(seed)
    return np.sort(rng.choice(n, size=size, replace=False))


def clustered_objects(
    graph: Graph,
    num_clusters: int,
    max_cluster_size: int = 5,
    seed: int = 0,
) -> np.ndarray:
    """Clustered objects: BFS-grown clusters around random centres.

    For each of ``num_clusters`` uniformly random central vertices, up to
    ``max_cluster_size`` vertices in its vicinity are selected by
    expanding outwards (the distribution used to evaluate ROAD).
    """
    if num_clusters < 1:
        raise ValueError("need at least one cluster")
    rng = np.random.default_rng(seed)
    n = graph.num_vertices
    centers = rng.choice(n, size=min(num_clusters, n), replace=False)
    chosen = set()
    for center in centers:
        size = int(rng.integers(1, max_cluster_size + 1))
        frontier = [int(center)]
        seen = {int(center)}
        picked = 0
        while frontier and picked < size:
            u = frontier.pop(0)
            chosen.add(u)
            picked += 1
            for v, _ in graph.neighbors(u):
                if v not in seen:
                    seen.add(v)
                    frontier.append(v)
    return np.sort(np.asarray(sorted(chosen), dtype=np.int64))


def min_distance_object_sets(
    graph: Graph,
    num_sets: int,
    size: int,
    seed: int = 0,
) -> Tuple[List[np.ndarray], np.ndarray, float]:
    """Minimum-object-distance sets R_1..R_m (worst-case remoteness).

    From the network-centre vertex ``v_c``, the maximum network distance
    ``D_max`` is found; set ``R_i`` samples ``size`` objects whose network
    distance from ``v_c`` is at least ``D_max / 2^(m-i+1)`` — so the
    minimum object distance grows exponentially with i.

    Returns ``(sets, query_pool, D_max)`` where ``query_pool`` holds the
    vertices closer to the centre than any R_1 object (the paper draws
    query vertices from distances ``[0, D_max/2^m)``).
    """
    vc = network_center(graph)
    _, dmax = eccentric_vertex(graph, vc)
    dist = bulk_sssp(graph, [vc])[0]
    rng = np.random.default_rng(seed)
    sets: List[np.ndarray] = []
    for i in range(1, num_sets + 1):
        threshold = dmax / (2 ** (num_sets - i + 1))
        eligible = np.nonzero(np.isfinite(dist) & (dist >= threshold))[0]
        if len(eligible) == 0:
            raise ValueError(
                f"no vertices at distance >= {threshold:.3f} for set R{i}"
            )
        take = min(size, len(eligible))
        sets.append(np.sort(rng.choice(eligible, size=take, replace=False)))
    query_pool = np.nonzero(
        np.isfinite(dist) & (dist < dmax / (2 ** num_sets))
    )[0]
    if len(query_pool) == 0:
        query_pool = np.asarray([vc], dtype=np.int64)
    return sets, query_pool, dmax


#: Named POI categories with the relative densities of Table 2 (NW column)
#: and whether the paper observes them to be clustered.
POI_CATEGORIES: Tuple[Tuple[str, float, bool], ...] = (
    ("schools", 0.004, False),
    ("parks", 0.005, False),
    ("fast_food", 0.001, True),
    ("post_offices", 0.001, False),
    ("hospitals", 0.0002, False),
    ("hotels", 0.0004, True),
    ("universities", 0.00009, False),
    ("courthouses", 0.00005, False),
)


def poi_object_sets(
    graph: Graph,
    seed: int = 0,
    minimum: int = 10,
    categories: Optional[Sequence[Tuple[str, float, bool]]] = None,
    density_scale: float = 1.0,
) -> Dict[str, np.ndarray]:
    """Table 2 stand-ins: one object set per named POI category.

    Densities follow the paper's real-world sets; categories the paper
    identifies as clustered (fast food, hotels) are generated with the
    clustered distribution, the rest uniformly.  ``minimum`` guarantees
    each set can answer the default k on scaled-down networks, and
    ``density_scale`` scales every category up so the relative size
    spread survives on networks 100x smaller than the paper's (matching
    the scaled default density; the scaling conventions are in
    :mod:`repro.experiments.claims`).
    """
    if categories is None:
        categories = POI_CATEGORIES
    out: Dict[str, np.ndarray] = {}
    for index, (name, density, clustered) in enumerate(categories):
        set_seed = seed + 101 * index
        size = max(
            minimum, int(round(density * density_scale * graph.num_vertices))
        )
        if clustered:
            clusters = max(2, size // 3)
            objs = clustered_objects(
                graph, num_clusters=clusters, max_cluster_size=5, seed=set_seed
            )
            if len(objs) > size:
                rng = np.random.default_rng(set_seed)
                objs = np.sort(rng.choice(objs, size=size, replace=False))
        else:
            objs = uniform_objects(
                graph, density=size / graph.num_vertices, seed=set_seed
            )
        out[name] = objs
    return out
