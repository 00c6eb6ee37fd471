"""Figure 10: query time vs k on the NW and US analogues.

Paper shape: IER (best oracle) is fastest across k; G-tree scales better
with k than ROAD/DisBrw/INE; INE is the slowest at large k; on the larger
network IER-Gt's lead over plain G-tree grows.

What does not carry over at this scale: INE runs its whole expansion as
one C-level kernel call (docs/performance.md) while the index methods'
traversals run in the interpreter, so on 2,500-5,000 vertices INE's time
is nearly flat in k (~150-900 us) instead of the slowest at large k, and
it ties IER-PHL at k=5 on the smaller network.  The claims asserted are
the ones among the index methods, plus IER-PHL against INE where the
margin is outside run-to-run noise.
"""

from repro.experiments import figures
from repro.experiments.runner import random_queries
from repro.objects import uniform_objects

from _bench_utils import run_once, run_queries

KS = (1, 5, 10, 25)


def test_fig10a_nw_shape(benchmark, nw):
    result = run_once(
        benchmark,
        lambda: figures.fig10_vary_k(nw, ks=KS, density=0.003, num_queries=12),
    )
    print()
    print(result.format_text())
    # IER-PHL is the fastest index method at k >= 5, and within noise
    # of the fastest method overall.
    for k in (5, 10, 25):
        assert result.at("ier-phl", k) == min(
            result.at(m, k) for m in result.series if m != "ine"
        )
        assert result.at("ier-phl", k) < 1.25 * min(
            result.at(m, k) for m in result.series
        )

    # G-tree scales with k far better than ROAD and DisBrw do.
    def growth(method):
        return result.at(method, 25) / result.at(method, 1)

    assert growth("gtree") < growth("road")
    assert growth("gtree") < growth("disbrw")


def test_fig10b_us_shape(benchmark, us):
    result = run_once(
        benchmark,
        lambda: figures.fig10_vary_k(us, ks=KS, density=0.003, num_queries=10),
    )
    print()
    print(result.format_text())
    for k in (10, 25):
        assert result.at("ier-phl", k) < result.at("ine", k)
        assert result.at("gtree", k) < result.at("road", k)


def test_query_gtree_k10(benchmark, nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    run_queries(
        benchmark,
        nw.make("gtree", objects),
        random_queries(nw.graph, 10, seed=2),
        10,
    )


def test_query_ine_k10(benchmark, nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    run_queries(
        benchmark,
        nw.make("ine", objects),
        random_queries(nw.graph, 10, seed=2),
        10,
    )


def test_query_road_k10(benchmark, nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    run_queries(
        benchmark,
        nw.make("road", objects),
        random_queries(nw.graph, 10, seed=2),
        10,
    )


def test_query_disbrw_k10(benchmark, nw):
    objects = uniform_objects(nw.graph, 0.01, seed=0)
    run_queries(
        benchmark,
        nw.make("disbrw", objects),
        random_queries(nw.graph, 10, seed=2),
        10,
    )
