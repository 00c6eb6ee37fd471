"""Table analogues: datasets (1, 2) and the algorithm ranking (5).

Table 3 (cache profiling) lives in :mod:`repro.experiments.cache_study`.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.engine.workbench import IndexCache, as_index_cache
from repro.experiments.runner import measure_query_time, random_queries
from repro.graph.graph import Graph
from repro.objects import poi_object_sets, uniform_objects


def table1_networks(suite: Dict[str, Graph]) -> List[Dict[str, object]]:
    """Dataset statistics in the shape of Table 1."""
    rows = []
    for name, graph in suite.items():
        degrees = np.diff(graph.vertex_start)
        rows.append(
            {
                "name": name,
                "vertices": graph.num_vertices,
                "edges": graph.num_edges,
                "avg_degree": float(degrees.mean()),
                "degree2_fraction": float((degrees == 2).mean()),
            }
        )
    return rows


def format_table1(rows: List[Dict[str, object]]) -> str:
    lines = ["== Table 1: road-network datasets (scaled analogues) =="]
    lines.append(
        f"{'Name':8} {'#Vertices':>10} {'#Edges':>10} {'AvgDeg':>7} {'%Deg2':>6}"
    )
    for r in rows:
        lines.append(
            f"{r['name']:8} {r['vertices']:>10,} {r['edges']:>10,} "
            f"{r['avg_degree']:>7.2f} {100 * r['degree2_fraction']:>5.1f}%"
        )
    return "\n".join(lines)


def table2_objects(graph: Graph, seed: int = 0) -> List[Dict[str, object]]:
    """POI object-set statistics in the shape of Table 2."""
    rows = []
    for name, objects in poi_object_sets(graph, seed=seed).items():
        rows.append(
            {
                "name": name,
                "size": len(objects),
                "density": len(objects) / graph.num_vertices,
            }
        )
    rows.sort(key=lambda r: -r["size"])
    return rows


def format_table2(rows: List[Dict[str, object]]) -> str:
    lines = ["== Table 2: object sets (Table 2 analogues) =="]
    lines.append(f"{'Object Set':14} {'Size':>8} {'Density':>10}")
    for r in rows:
        lines.append(f"{r['name']:14} {r['size']:>8,} {r['density']:>10.5f}")
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Table 5: ranking of algorithms under different criteria
# ----------------------------------------------------------------------
def _rank(scores: Dict[str, float]) -> Dict[str, int]:
    """1 = best (smallest).  Ties share a rank."""
    ordered = sorted(scores.items(), key=lambda kv: kv[1])
    ranks: Dict[str, int] = {}
    for position, (name, value) in enumerate(ordered):
        if position > 0 and np.isclose(value, ordered[position - 1][1], rtol=0.05):
            ranks[name] = ranks[ordered[position - 1][0]]
        else:
            ranks[name] = position + 1
    return ranks


def table5_ranking(
    workbench: IndexCache,
    large_workbench: Optional[IndexCache] = None,
    k_small: int = 1,
    k_default: int = 10,
    k_large: int = 25,
    density_low: float = 0.001,
    density_default: float = 0.01,
    density_high: float = 0.3,
    num_queries: int = 25,
    seed: int = 0,
) -> Dict[str, Dict[str, int]]:
    """Rank the five methods under the paper's Table 5 criteria.

    Returns ``{criterion: {method: rank}}``.  IER is represented by its
    best available oracle (PHL), as in the paper's summary table.
    Accepts an ``IndexCache`` or a ``QueryEngine``.
    """
    workbench = as_index_cache(workbench)
    if large_workbench is not None:
        large_workbench = as_index_cache(large_workbench)
    graph = workbench.graph
    criteria: Dict[str, Dict[str, int]] = {}

    def timing(k: int, density: float, wb: IndexCache) -> Dict[str, float]:
        objs = uniform_objects(wb.graph, density, seed=seed, minimum=k)
        qs = random_queries(wb.graph, num_queries, seed)
        out = {}
        for m in wb.available_methods():
            out[m] = measure_query_time(wb.make(m, objs), qs, k)
        return out

    criteria["default"] = _rank(timing(k_default, density_default, workbench))
    criteria["small_k"] = _rank(timing(k_small, density_default, workbench))
    criteria["large_k"] = _rank(timing(k_large, density_default, workbench))
    criteria["low_density"] = _rank(timing(k_default, density_low, workbench))
    criteria["high_density"] = _rank(timing(k_default, density_high, workbench))
    if large_workbench is not None:
        criteria["large_network"] = _rank(
            timing(k_default, density_default, large_workbench)
        )

    # Preprocessing criteria (network index).
    build: Dict[str, float] = {"ine": 0.0}
    space: Dict[str, float] = {"ine": float(graph.size_bytes())}
    build["gtree"] = workbench.gtree.build_time()
    space["gtree"] = float(workbench.gtree.size_bytes())
    build["road"] = workbench.road.build_time()
    space["road"] = float(workbench.road.size_bytes())
    build["ier-phl"] = workbench.hub_labels.build_time()
    space["ier-phl"] = float(workbench.hub_labels.size_bytes())
    build["ier-gt"] = build["gtree"]
    space["ier-gt"] = space["gtree"]
    if workbench.unavailable_reason("silc") is None:
        build["disbrw"] = workbench.silc.build_time()
        space["disbrw"] = float(workbench.silc.size_bytes())
    criteria["network_build_time"] = _rank(build)
    criteria["network_space"] = _rank(space)
    return criteria


def format_table5(criteria: Dict[str, Dict[str, int]]) -> str:
    methods: List[str] = []
    for ranks in criteria.values():
        for m in ranks:
            if m not in methods:
                methods.append(m)
    lines = ["== Table 5: algorithm ranking by criterion (1 = best) =="]
    header = f"{'criterion':20}" + "".join(f"{m:>10}" for m in methods)
    lines.append(header)
    for criterion, ranks in criteria.items():
        row = f"{criterion:20}"
        for m in methods:
            row += f"{ranks.get(m, '-'):>10}"
        lines.append(row)
    return "\n".join(lines)
