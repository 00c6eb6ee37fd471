"""Figure 12: clustered object sets (vs #clusters and vs k).

Paper shape: more clusters behave like higher density (faster queries for
expansion methods); IER keeps its lead but by a smaller margin than on
uniform objects because Euclidean distance separates clustered candidates
poorly; G-tree stays nearly flat in k thanks to materialized leaf paths.

INE runs as one C-level kernel call (docs/performance.md), nearly flat
in k and in cluster count at this scale, so IER-PHL's lead over INE
shows only in the sparse-like regime (few clusters) and G-tree's growth
with k is compared with ROAD's, the other interpreter-bound expansion.
"""

from repro.experiments import figures

from _bench_utils import run_once

CLUSTERS = (4, 16, 64)


def test_fig12_shape(benchmark, nw):
    by_c, by_k = run_once(
        benchmark,
        lambda: figures.fig12_clusters(
            nw, cluster_counts=CLUSTERS, ks=(1, 10, 25), num_queries=12
        ),
    )
    print()
    print(by_c.format_text())
    print(by_k.format_text())
    # More clusters => faster INE (density effect).
    assert by_c.at("ine", CLUSTERS[-1]) < by_c.at("ine", CLUSTERS[0])
    # IER-PHL keeps a clear lead over the expansion methods, though by a
    # smaller margin than on uniform objects (clusters blunt the
    # Euclidean heuristic).
    means = {m: by_c.mean(m) for m in by_c.series}
    assert by_c.at("ier-phl", CLUSTERS[0]) < by_c.at("ine", CLUSTERS[0])
    assert means["ier-phl"] < means["road"]
    # G-tree grows with k more slowly than ROAD (materialization).
    assert (
        by_k.at("gtree", 25) / by_k.at("gtree", 1)
        < by_k.at("road", 25) / by_k.at("road", 1)
    )
