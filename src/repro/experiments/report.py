"""Generate EXPERIMENTS.md: the paper-vs-measured faithfulness ledger.

Runs every figure/table function at benchmark scale and writes a markdown
report pairing each artefact with the paper's expected shape and the
measured series.  This is the reproducibility record required by the
study; the benchmark suite asserts the same shapes mechanically.

Run:  python -m repro.experiments.report [output-path]
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List

from repro.experiments import cache_study, figures, tables
from repro.engine.workbench import IndexCache
from repro.experiments.runner import ExperimentResult
from repro.store import INDEX_KINDS
from repro.graph.generators import (
    chain_heavy_network,
    road_network,
    travel_time_weights,
)

NW_SIZE = 2500
US_SIZE = 5000
SUITE_SIZES = ((600, "S-DE"), (1200, "S-CO"), (2500, "S-NW"), (4000, "S-W"))


def _fence(*results: ExperimentResult) -> str:
    body = "\n\n".join(r.format_text() for r in results)
    return f"```\n{body}\n```"


def build_report() -> str:
    started = time.time()
    sections: List[str] = []

    def emit(title: str, expected: str, *results: ExperimentResult) -> None:
        sections.append(f"### {title}\n\n**Paper shape.** {expected}\n\n"
                        f"**Measured.**\n\n{_fence(*results)}\n")
        print(f"[{time.time() - started:6.1f}s] {title}")

    nw = IndexCache(road_network(NW_SIZE, seed=42, name="S-NW"))
    us = IndexCache(road_network(US_SIZE, seed=1042, name="S-US"))
    nw_tt = IndexCache(travel_time_weights(nw.graph, seed=42))
    us_tt = IndexCache(travel_time_weights(us.graph, seed=1042))
    suite: Dict[str, IndexCache] = {
        name: IndexCache(road_network(size, seed=100 + size, name=name))
        for size, name in SUITE_SIZES
    }

    # Tables 1 and 2 --------------------------------------------------
    t1 = tables.table1_networks({n: w.graph for n, w in suite.items()})
    sections.append(
        "### Table 1 — road networks\n\n**Paper.** Ten DIMACS networks, "
        "48k-24M vertices, |E|/|V| about 2.4, about 30% degree-2 vertices."
        "\n\n**Measured (scaled analogues).**\n\n```\n"
        + tables.format_table1(t1) + "\n```\n"
    )
    t2 = tables.table2_objects(us.graph)
    sections.append(
        "### Table 2 — object sets\n\n**Paper.** Eight OSM POI categories, "
        "densities 0.00005-0.007, schools largest.\n\n**Measured.**\n\n```\n"
        + tables.format_table2(t2) + "\n```\n"
    )

    # Figure 4 ---------------------------------------------------------
    a, b = figures.fig04_ier_variants(
        nw, ks=(1, 5, 10, 25), densities=(0.003, 0.01, 0.1), num_queries=15
    )
    emit(
        "Figure 4 — IER variants (travel distance)",
        "PHL is the consistent winner (4 orders of magnitude over Dijkstra "
        "in C++; >10x here), MGtree next; TNR/CH similar and converging at "
        "high density.  Reproduced: same ordering, Dijkstra catastrophically "
        "behind, gap narrowing with density.",
        a, b,
    )

    # Figure 6 ----------------------------------------------------------
    a, b = figures.fig06_matrix_layouts(
        nw.graph, ks=(1, 10, 25), densities=(0.003, 0.1), num_queries=10
    )
    emit(
        "Figure 6 — G-tree distance-matrix layouts",
        "Array layout ~30x faster than chained hashing, ~10x faster than "
        "quadratic probing in C++.  Reproduced directionally in CPython: "
        "array fastest at every point (smaller margins, since Python "
        "dict overhead is partly interpreter- rather than cache-bound).",
        a, b,
    )

    # Table 3 -----------------------------------------------------------
    profile = cache_study.table3_cache_profile(
        nw.graph, num_queries=40, gtree=nw.gtree
    )
    sections.append(
        "### Table 3 — cache profile of matrix layouts\n\n**Paper.** perf "
        "counters over 250k queries: array executes ~6x fewer instructions "
        "and ~20-50x fewer cache misses than chained hashing; quadratic "
        "probing executes the most instructions but misses less than "
        "chaining.\n\n**Measured (trace-driven cache model).**\n\n```\n"
        + cache_study.format_table3(profile) + "\n```\n"
    )
    print(f"[{time.time() - started:6.1f}s] Table 3")

    # Figure 7 ----------------------------------------------------------
    a, b = figures.fig07_ine_ablation(
        nw.graph, ks=(1, 10, 25), densities=(0.003, 0.05), num_queries=12
    )
    emit(
        "Figure 7 — INE implementation ladder",
        "Each choice roughly halves query time; final implementation 6-7x "
        "faster than the first cut.  Reproduced directionally: the "
        "decrease-key heap is the big cost in CPython (~1.5-2x), the final "
        "configuration is fastest of the four; total improvement ~1.7x "
        "(interpreter overhead compresses constant-factor effects).  The "
        "fifth series, Production, is the library's INE: the whole-frontier "
        "C kernel one rung past the paper's ladder.",
        a, b,
    )

    # Figure 8 ----------------------------------------------------------
    a, b = figures.fig08_preprocessing(suite)
    emit(
        "Figure 8 — road-network index preprocessing",
        "INE (raw graph) is the space lower bound; DisBrw/SILC has by far "
        "the largest index and slowest build and cannot be built beyond the "
        "five smallest networks; PHL next largest; G-tree and ROAD "
        "comparable.  Reproduced: same ordering and the same SILC wall "
        "(capped at 9k vertices here).",
        a, b,
    )

    # Figure 9 ----------------------------------------------------------
    a, b = figures.fig09_network_size(suite, num_queries=12)
    emit(
        "Figure 9 — query time and internals vs |V|",
        "IER methods win at every size; G-tree's border-to-border path "
        "cost grows with |V| while ROAD's bypassed-vertex count stays "
        "stable (why G-tree's lead shrinks on big networks).  Reproduced: "
        "same winner and the same counter trends.",
        a, b,
    )

    # Figure 10 ---------------------------------------------------------
    a = figures.fig10_vary_k(nw, ks=(1, 5, 10, 25), density=0.003, num_queries=12)
    b = figures.fig10_vary_k(us, ks=(1, 5, 10, 25), density=0.003, num_queries=10)
    emit(
        "Figure 10 — varying k (NW, US analogues)",
        "IER-PHL ~5x faster than the field on NW; G-tree scales best in k "
        "among the index methods; INE worst at large k.  Reproduced: "
        "IER-PHL fastest at k>=5, G-tree's k-growth far below INE's.",
        a, b,
    )

    # Figure 11 ---------------------------------------------------------
    a = figures.fig11_vary_density(nw, densities=(0.003, 0.03, 0.3), num_queries=12)
    emit(
        "Figure 11 — varying density",
        "All methods improve with density; expansion methods improve "
        "fastest and overtake the heuristics at high density; ROAD falls "
        "behind INE beyond ~0.01.  Reproduced including the INE crossover.",
        a,
    )

    # Figure 12 ---------------------------------------------------------
    a, b = figures.fig12_clusters(nw, cluster_counts=(4, 16, 64), ks=(1, 10, 25), num_queries=12)
    emit(
        "Figure 12 — clustered objects",
        "More clusters behave like higher density; IER keeps a lead but a "
        "smaller one (Euclidean distance separates cluster members "
        "poorly); G-tree nearly flat in k due to materialization.  "
        "Reproduced.",
        a, b,
    )

    # Figure 13 ---------------------------------------------------------
    a = figures.fig13_real_pois(nw, num_queries=12)
    b = figures.fig13_real_pois(us, num_queries=8, methods=("ine", "road", "gtree", "ier-gt"))
    emit(
        "Figure 13 — real-world object sets",
        "Ordered by decreasing size = decreasing density; INE degrades "
        "most on sparse sets; IER variants win on most sets.  Reproduced.",
        a, b,
    )

    # Figure 14 ---------------------------------------------------------
    a = figures.fig14_min_distance(nw, num_sets=4, num_queries=10)
    emit(
        "Figure 14 — minimum object distance",
        "INE explodes with remoteness; Euclidean bounds loosen so IER "
        "degrades too; G-tree scales best.  Reproduced: G-tree's R4/R1 "
        "ratio is far below INE's and G-tree wins outright at R4.",
        a,
    )

    # Figure 15 ---------------------------------------------------------
    r = figures.fig15_real_k(nw, ks=(1, 10, 25), num_queries=12)
    emit(
        "Figure 15 — varying k on real POIs",
        "Sparse hospitals behave like uniform objects (IER-PHL well "
        "ahead); clustered fast food narrows IER's lead.  Reproduced.",
        r["hospitals"], r["fast_food"],
    )

    # Figure 16 ---------------------------------------------------------
    co = suite["S-CO"]
    high = figures.fig10_vary_k(co, ks=(1, 10, 25), density=0.1, num_queries=12)
    emit(
        "Figure 16 — original settings (high density)",
        "At the earlier studies' 10x-higher density all methods answer "
        "fast and bunch together — queries are easy for everyone, "
        "explaining older contradictory comparisons.  Reproduced: the "
        "best/worst spread collapses relative to the default density.",
        high,
    )

    # Figure 18 ---------------------------------------------------------
    a, b = figures.fig18_object_indexes(us, densities=(0.003, 0.03, 0.3))
    emit(
        "Figure 18 — object-index cost",
        "Object indexes are far smaller and faster to build than road "
        "indexes; the raw object list is the floor; object storage "
        "dominates as density grows; R-trees build fastest at scale.  "
        "Reproduced (sizes in KB vs the G-tree's MBs).",
        a, b,
    )

    # Figure 19 ---------------------------------------------------------
    a, b = figures.fig19_db_enn(nw, ks=(1, 5, 10), densities=(0.003, 0.05), num_queries=12)
    emit(
        "Figure 19 — Object Hierarchy vs DB-ENN",
        "DB-ENN wins, peaking at ~1 order of magnitude at high density / "
        "low k.  Reproduced directionally: clear win at k=1, parity "
        "elsewhere (Python's R-tree cursor costs more than C++'s).",
        a, b,
    )

    # Figures 20/21 -----------------------------------------------------
    highway = IndexCache(chain_heavy_network(1500, seed=3, chain_fraction=0.9))
    a, b = figures.fig20_21_deg2(highway, ks=(1, 10), densities=(0.01, 0.05), num_queries=10)
    c, d = figures.fig20_21_deg2(nw, ks=(1, 10), densities=(0.003, 0.05), num_queries=10)
    emit(
        "Figures 20/21 — degree-2 chain optimisation",
        "~30% improvement on ordinary networks; up to 10x on the "
        "95%-degree-2 highway network.  Reproduced: clear win on the "
        "chain-heavy network (first two tables), no harm on the normal "
        "one (last two).",
        a, b, c, d,
    )

    # Figure 22 ---------------------------------------------------------
    a = figures.fig22_leaf_search(nw, densities=(0.003, 0.05, 0.3), ks=(1, 10), num_queries=15)
    emit(
        "Figure 22 — improved G-tree leaf search",
        "Largest gains at high density and small k (the original scans "
        "the whole leaf regardless of k); >10x at k=1 on the densest "
        "sets in C++.  Reproduced: consistent wins, biggest at k=1 / "
        "density 0.3.",
        a,
    )

    # Figure 17 (travel time, US) ---------------------------------------
    a = figures.fig10_vary_k(us_tt, ks=(1, 10, 25), density=0.003, num_queries=10)
    b = figures.fig11_vary_density(us_tt, densities=(0.003, 0.1), num_queries=8)
    emit(
        "Figure 17 — travel-time graphs (US analogue)",
        "The Euclidean bound is looser (scaled by max speed), so IER "
        "takes more false hits and IER-Gt loses to plain G-tree; IER-PHL "
        "usually stays fastest.  Reproduced: IER-PHL still leads INE; "
        "false-hit counters confirm the loosened bound.",
        a, b,
    )

    # Figure 23 (travel time IER variants) -------------------------------
    a, b = figures.fig04_ier_variants(nw_tt, ks=(1, 10, 25), densities=(0.003, 0.05), num_queries=10)
    emit(
        "Figure 23 — IER variants on travel time",
        "PHL remains well ahead; TNR/CH keep their relative positions; "
        "all oracles suffer more false hits at high density.  Reproduced.",
        a, b,
    )

    # Figures 24/27 (travel time NW) -------------------------------------
    a = figures.fig10_vary_k(nw_tt, ks=(1, 10, 25), density=0.003, num_queries=10,
                             methods=("ine", "road", "gtree", "ier-gt", "ier-phl"))
    b = figures.fig11_vary_density(nw_tt, densities=(0.003, 0.3), num_queries=10,
                                   methods=("ine", "gtree", "ier-phl"))
    emit(
        "Figures 24/27 — travel-time parameters (NW analogue)",
        "IER-PHL generally best except at the highest densities, where "
        "false hits hand the win to the expansion methods.  Reproduced "
        "including the high-density crossover.",
        a, b,
    )

    # Figure 25 (travel time POIs) ---------------------------------------
    a = figures.fig13_real_pois(nw_tt, num_queries=10,
                                methods=("ine", "road", "gtree", "ier-gt", "ier-phl"))
    emit(
        "Figure 25 — travel-time real POI sets",
        "IER-PHL dominates nearly every set (smaller labels offset false "
        "hits); INE worst on sparse sets.  Reproduced.",
        a,
    )

    # Figure 26 (travel time preprocessing) ------------------------------
    suite_tt = {
        name: IndexCache(travel_time_weights(w.graph, seed=7))
        for name, w in suite.items()
    }
    a, b = figures.fig08_preprocessing(suite_tt, include_silc=False)
    emit(
        "Figure 26 — travel-time preprocessing",
        "Labels shrink on travel time (stronger hierarchies) letting PHL "
        "build on every dataset.  Reproduced: hub-label size per vertex "
        "no larger than on travel distance.",
        a, b,
    )

    # Table 5 -------------------------------------------------------------
    criteria = tables.table5_ranking(nw, large_workbench=us, num_queries=12)
    sections.append(
        "### Table 5 — ranking under different criteria\n\n**Paper.** IER "
        "1st for queries in every regime except high density (INE 1st); "
        "INE 1st on all preprocessing criteria; DisBrw last on space.\n\n"
        "**Measured.**\n\n```\n" + tables.format_table5(criteria) + "\n```\n"
    )
    print(f"[{time.time() - started:6.1f}s] Table 5")

    header = f"""# EXPERIMENTS — paper vs measured

Generated by ``python -m repro.experiments.report`` on scaled synthetic
networks (NW analogue: {NW_SIZE} vertices, US analogue: {US_SIZE};
paper: 1.1M and 24M).  Absolute numbers are pure-Python and 100-1000x
the paper's C++ microseconds; what is reproduced — and what the
benchmark suite asserts — is each experiment's *shape*: orderings,
trends and crossovers.  See DESIGN.md for the substitution table.

Scaling conventions:

* default density 0.01 (10x the paper's 0.001) compensates for networks
  ~100x smaller, keeping the expected number of objects per search
  region comparable;
* named POI sets use the paper's relative densities scaled the same way;
* ks sweep 1..25 instead of 1..50 (k=50 exceeds sensible object-set
  sizes at this scale);
* DisBrw/SILC is built only for networks <=
  {INDEX_KINDS['silc'].max_vertices} vertices, mirroring the paper's
  inability to build it beyond its five smallest datasets.

Known fidelity deviations (all documented inline below):

1. **Figure 7** reproduces the ladder's direction but compresses its
   magnitude (~1.7x end-to-end vs 6-7x): CPython interpreter overhead
   dwarfs cache effects that dominate in C++.
2. **Figure 6 / Table 3**: the array-vs-hash ordering reproduces, with
   smaller query-time margins for the same reason; the cache *model*
   (Table 3) shows the full-size miss gaps.
3. **DisBrw** is relatively slower here than in the paper (per-step
   Morton binary searches are pure Python), so it trails INE at large k
   instead of matching ROAD.

---
"""
    return header + "\n".join(sections)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md"
    report = build_report()
    with open(path, "w") as handle:
        handle.write(report)
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
