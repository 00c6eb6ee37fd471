"""Synthetic road-network generators.

The paper evaluates on ten DIMACS US road networks (48k-24M vertices,
Table 1).  Those datasets are not shipped here and pure-Python query
processing could not exercise them faithfully anyway, so this module
generates scaled-down networks that preserve the structural properties
the studied algorithms are actually sensitive to:

* **planar, degree-bounded topology** (grid/Delaunay hybrids),
* **degree-2 chains** — the paper reports ~30% degree-2 vertices on US
  networks and 95% on the NA highway network (Appendix A.1.2); the
  generator can subdivide edges to any chain fraction,
* **density gradients** — cities with dense local streets connected by
  sparse inter-city roads, so uniformly sampled objects cluster like POIs,
* **two weight kinds** — travel distance (weight >= Euclidean length, so
  Euclidean distance is a tight lower bound) and travel time (distance
  divided by a road-class speed, making the Euclidean bound loose — the
  effect Section 7.5 studies).

All generators take an explicit seed and are deterministic.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.spatial import Delaunay

from repro.graph.graph import Graph, GraphBuilder, largest_connected_component

#: Road classes: (probability, speed) pairs used for travel-time weights.
#: Speeds are relative (local street = 1.0); motorways are 4x faster.
ROAD_CLASSES: Tuple[Tuple[float, float], ...] = (
    (0.70, 1.0),   # local street
    (0.20, 1.8),   # secondary road
    (0.08, 2.8),   # primary road
    (0.02, 4.0),   # motorway
)


def grid_network(
    width: int,
    height: int,
    seed: int = 0,
    weight_jitter: float = 0.3,
    drop_fraction: float = 0.1,
    name: Optional[str] = None,
) -> Graph:
    """Rectangular grid with jittered coordinates and random edge removal.

    Edge weights equal the Euclidean edge length scaled by a jitter factor
    ``>= 1`` so Euclidean distance stays a valid lower bound.
    """
    if width < 1 or height < 1:
        raise ValueError("grid dimensions must be positive")
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    jitter = rng.uniform(-0.25, 0.25, size=(width * height, 2))
    for r in range(height):
        for c in range(width):
            i = r * width + c
            builder.add_vertex(c + jitter[i, 0], r + jitter[i, 1])

    candidate_edges: List[Tuple[int, int]] = []
    for r in range(height):
        for c in range(width):
            i = r * width + c
            if c + 1 < width:
                candidate_edges.append((i, i + 1))
            if r + 1 < height:
                candidate_edges.append((i, i + width))

    keep = rng.random(len(candidate_edges)) >= drop_fraction
    # Guarantee connectivity with a spanning backbone: keep every edge in
    # row 0 and column 0 regardless of the drop coin flips.
    for idx, (u, v) in enumerate(candidate_edges):
        if u < width or u % width == 0:
            keep[idx] = True
    for (u, v), kept in zip(candidate_edges, keep):
        if not kept:
            continue
        length = math.hypot(
            builder._xs[u] - builder._xs[v], builder._ys[u] - builder._ys[v]
        )
        w = length * (1.0 + float(rng.random()) * weight_jitter)
        builder.add_edge(u, v, w)
    graph = builder.build(
        name=name or f"grid-{width}x{height}", require_connected=False
    )
    return largest_connected_component(graph)


def delaunay_network(
    num_vertices: int,
    seed: int = 0,
    keep_fraction: float = 0.75,
    weight_jitter: float = 0.3,
    name: Optional[str] = None,
) -> Graph:
    """Delaunay triangulation of random points, thinned to road density.

    Triangulations are too dense for road networks (average degree ~6), so
    a ``keep_fraction`` of non-tree edges is retained on top of a minimum
    spanning backbone built from the triangulation edges.
    """
    if num_vertices < 3:
        raise ValueError("need at least 3 vertices for a triangulation")
    rng = np.random.default_rng(seed)
    points = rng.random((num_vertices, 2)) * math.sqrt(num_vertices)
    tri = Delaunay(points)
    edges = set()
    for simplex in tri.simplices:
        for a in range(3):
            u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
            edges.add((min(u, v), max(u, v)))

    # Kruskal spanning tree to guarantee connectivity.
    parent = list(range(num_vertices))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    edge_list = sorted(
        edges,
        key=lambda e: math.hypot(
            points[e[0], 0] - points[e[1], 0], points[e[0], 1] - points[e[1], 1]
        ),
    )
    tree = set()
    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add((u, v))

    builder = GraphBuilder()
    for x, y in points:
        builder.add_vertex(float(x), float(y))
    for u, v in edge_list:
        if (u, v) not in tree and rng.random() > keep_fraction:
            continue
        length = math.hypot(
            points[u, 0] - points[v, 0], points[u, 1] - points[v, 1]
        )
        w = length * (1.0 + float(rng.random()) * weight_jitter)
        builder.add_edge(u, v, w)
    return builder.build(name=name or f"delaunay-{num_vertices}")


def road_network(
    num_vertices: int,
    seed: int = 0,
    num_cities: Optional[int] = None,
    chain_fraction: float = 0.3,
    name: Optional[str] = None,
) -> Graph:
    """"Country"-style network: dense city cores, sparse countryside.

    This is the default stand-in for the DIMACS datasets.  Vertices are
    sampled from a mixture of city Gaussians (70%) and a uniform rural
    background (30%), triangulated and thinned like
    :func:`delaunay_network`, then ``chain_fraction`` of the vertices are
    inserted as degree-2 chain vertices by subdividing random edges —
    matching the paper's observation that ~30% of US vertices are degree-2.

    The returned graph carries travel-*distance* weights; use
    :func:`travel_time_weights` for the travel-time variant.
    """
    if num_vertices < 10:
        raise ValueError("road networks need at least 10 vertices")
    rng = np.random.default_rng(seed)
    n_chain = int(num_vertices * chain_fraction)
    n_base = max(4, num_vertices - n_chain)
    if num_cities is None:
        num_cities = max(2, int(math.sqrt(n_base) / 4))
    extent = math.sqrt(num_vertices) * 2.0

    n_city_vertices = int(n_base * 0.7)
    centers = rng.random((num_cities, 2)) * extent
    city_sizes = rng.multinomial(
        n_city_vertices, rng.dirichlet(np.ones(num_cities) * 2.0)
    )
    points: List[Tuple[float, float]] = []
    for center, size in zip(centers, city_sizes):
        sigma = extent / (num_cities * 4.0) + 0.1
        pts = rng.normal(loc=center, scale=sigma, size=(size, 2))
        points.extend((float(px), float(py)) for px, py in pts)
    rural = rng.random((n_base - len(points), 2)) * extent
    points.extend((float(px), float(py)) for px, py in rural)
    arr = np.asarray(points)
    # Deduplicate near-coincident points, which break Delaunay.
    arr += rng.normal(scale=1e-6, size=arr.shape)

    tri = Delaunay(arr)
    edges = set()
    for simplex in tri.simplices:
        for a in range(3):
            u, v = int(simplex[a]), int(simplex[(a + 1) % 3])
            edges.add((min(u, v), max(u, v)))

    parent = list(range(len(arr)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def length_of(e: Tuple[int, int]) -> float:
        return math.hypot(arr[e[0], 0] - arr[e[1], 0], arr[e[0], 1] - arr[e[1], 1])

    edge_list = sorted(edges, key=length_of)
    tree = set()
    for u, v in edge_list:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree.add((u, v))

    builder = GraphBuilder()
    for x, y in arr:
        builder.add_vertex(float(x), float(y))
    final_edges: List[Optional[Tuple[int, int, float]]] = []
    for u, v in edge_list:
        # Long non-tree edges are dropped more aggressively: countryside is
        # sparse, cities are dense.
        if (u, v) not in tree:
            p_keep = 0.8 * math.exp(-length_of((u, v)) / (extent * 0.05))
            if rng.random() > p_keep:
                continue
        length = length_of((u, v))
        w = length * (1.0 + float(rng.random()) * 0.25)
        final_edges.append((u, v, w))

    # Subdivide random edges with chain vertices until the target size.
    # Midpoints sit on the segment with a small perpendicular offset
    # (bounded by the edge length) and half-weights stay >= their
    # Euclidean lengths, so the Euclidean distance remains a *tight*
    # lower bound — the property IER relies on for distance weights.
    # Edges are picked by position; a subdivided one is blanked in place
    # (O(1), where list.remove was O(E)) and skipped below.
    rng_edges = list(range(len(final_edges)))
    while builder.num_vertices < num_vertices and rng_edges:
        idx = int(rng.integers(len(rng_edges)))
        e = rng_edges.pop(idx)
        u, v, w = final_edges[e]
        ux, uy = builder._xs[u], builder._ys[u]
        vx, vy = builder._xs[v], builder._ys[v]
        seg_len = math.hypot(vx - ux, vy - uy)
        offset = float(rng.normal(scale=0.08)) * seg_len
        # Perpendicular direction to the segment.
        if seg_len > 0:
            px, py = -(vy - uy) / seg_len, (vx - ux) / seg_len
        else:
            px = py = 0.0
        mx = (ux + vx) / 2 + px * offset
        my = (uy + vy) / 2 + py * offset
        mid = builder.add_vertex(mx, my)
        len1 = math.hypot(mx - ux, my - uy)
        len2 = math.hypot(vx - mx, vy - my)
        total = len1 + len2 or 1.0
        half1 = max(w * len1 / total, len1)
        half2 = max(w * len2 / total, len2)
        final_edges[e] = None
        rng_edges += [len(final_edges), len(final_edges) + 1]
        final_edges += [(u, mid, half1), (mid, v, half2)]

    for edge in final_edges:
        if edge is not None:
            builder.add_edge(*edge)
    graph = builder.build(
        name=name or f"road-{num_vertices}", require_connected=False
    )
    return largest_connected_component(graph)


def travel_time_weights(graph: Graph, seed: int = 0) -> Graph:
    """Travel-time variant of ``graph`` using road-class speeds.

    Each undirected edge is assigned a road class; its time weight is
    ``distance / speed``.  Long edges are biased towards faster classes
    (inter-city edges behave like highways), reproducing the "highway
    hierarchy" property that makes CH/TNR/labelling techniques faster on
    travel-time graphs (Section 7.5, Appendix B).
    """
    rng = np.random.default_rng(seed + 7919)
    probs = np.array([p for p, _ in ROAD_CLASSES])
    speeds = np.array([s for _, s in ROAD_CLASSES])
    n = graph.num_vertices
    sources = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.vertex_start))
    median_w = float(np.median(graph.edge_weight)) or 1.0

    # Choose one class per undirected edge, keyed on the (u, v) pair so
    # both directions agree.
    new_weights = np.empty_like(graph.edge_weight)
    chosen: Dict[Tuple[int, int], float] = {}
    for i in range(len(graph.edge_target)):
        u, v = int(sources[i]), int(graph.edge_target[i])
        key = (u, v) if u < v else (v, u)
        speed = chosen.get(key)
        if speed is None:
            w = graph.edge_weight[i]
            # Bias: edges longer than the median get a boost towards
            # faster classes.
            boost = min(3, int(w / median_w))
            weights = probs.copy()
            weights[: len(weights) - 1] /= 1.0 + boost
            weights /= weights.sum()
            cls = rng.choice(len(speeds), p=weights)
            speed = float(speeds[cls])
            chosen[key] = speed
        new_weights[i] = graph.edge_weight[i] / speed
    return graph.with_weights(new_weights, "time")


#: Scaled stand-ins for the paper's Table 1 datasets.  Sizes chosen so the
#: full suite remains tractable in pure Python while spanning >1.5 orders
#: of magnitude like the paper's 48k..24M range.
SCALED_SUITE: Tuple[Tuple[str, int], ...] = (
    ("S-DE", 1000),
    ("S-VT", 2000),
    ("S-ME", 3000),
    ("S-CO", 5000),
    ("S-NW", 8000),
    ("S-CA", 12000),
    ("S-E", 16000),
    ("S-W", 20000),
    ("S-C", 26000),
    ("S-US", 32000),
)


def scaled_network_suite(
    max_vertices: Optional[int] = None, seed: int = 42
) -> Dict[str, Graph]:
    """Build the scaled dataset suite (Table 1 analogue).

    ``max_vertices`` limits the suite for cheap test/benchmark runs.
    """
    suite = {}
    for name, size in SCALED_SUITE:
        if max_vertices is not None and size > max_vertices:
            continue
        suite[name] = road_network(size, seed=seed + size, name=name)
    return suite


def chain_heavy_network(
    num_vertices: int, seed: int = 0, chain_fraction: float = 0.95
) -> Graph:
    """Highway-style network where most vertices are degree-2 chains.

    Stand-in for the North-America highway dataset used in Appendix A.1.2
    (95% degree-2 vertices) to demonstrate the chain optimisation.
    """
    return road_network(
        num_vertices,
        seed=seed,
        chain_fraction=chain_fraction,
        name=f"chain-heavy-{num_vertices}",
    )
