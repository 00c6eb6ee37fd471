"""Figure 4: IER combined with five shortest-path oracles (distance graph).

Paper shape: PHL is the consistent winner (orders of magnitude over
Dijkstra), materialized G-tree next; TNR and CH converge at high density;
all methods converge as density grows.

The "Dijk" oracle is the library's one Dijkstra — a C-level
whole-frontier search, an order of magnitude faster than the per-edge
loop the figure ran it on before PR 20 (docs/benchmarks.md) — so its
gap to PHL is one order of magnitude here, not two, and smallest at k=1
where IER verifies one or two candidates.
"""

from repro.experiments import figures
from repro.experiments.runner import random_queries
from repro.objects import uniform_objects

from _bench_utils import run_once, run_queries

KS = (1, 5, 10, 25)
DENSITIES = (0.003, 0.01, 0.1)


def test_fig04_shape(benchmark, nw):
    by_k, by_d = run_once(
        benchmark,
        lambda: figures.fig04_ier_variants(
            nw, ks=KS, densities=DENSITIES, num_queries=12
        ),
    )
    print()
    print(by_k.format_text())
    print(by_d.format_text())
    # PHL wins (within measurement noise) everywhere and is fastest on
    # average; Dijkstra loses at every k, by >10x from k=5.
    labels = ("Dijk", "MGtree", "PHL", "TNR", "CH")
    for k in KS:
        assert by_k.at("PHL", k) <= 1.1 * min(by_k.at(name, k) for name in labels)
        assert by_k.at("Dijk", k) > (3 if k == 1 else 10) * by_k.at("PHL", k)
    assert by_k.mean("PHL") == min(by_k.mean(name) for name in labels)
    # MGtree is the runner-up on average.
    assert by_k.mean("MGtree") < by_k.mean("TNR")
    assert by_k.mean("MGtree") < by_k.mean("CH")
    # Methods converge with density: Dijkstra's lead shrinks.
    gap_low = by_d.at("Dijk", DENSITIES[0]) / by_d.at("PHL", DENSITIES[0])
    gap_high = by_d.at("Dijk", DENSITIES[-1]) / by_d.at("PHL", DENSITIES[-1])
    assert gap_high < gap_low


def test_query_ier_phl(benchmark, nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    alg = nw.make("ier-phl", objects)
    run_queries(benchmark, alg, random_queries(nw.graph, 10, seed=1), 10)


def test_query_ier_dijkstra(benchmark, nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    alg = nw.make("ier-dijk", objects)
    run_queries(benchmark, alg, random_queries(nw.graph, 10, seed=1), 10)
