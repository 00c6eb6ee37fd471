"""Figure 17: query performance on travel-time graphs (US analogue).

Paper shape: the Euclidean bound is looser on time weights (scaled by the
max speed), so IER suffers more false hits — IER-Gt loses to plain G-tree
— yet IER-PHL usually stays fastest; other distance-weight trends carry
over.
"""

from repro.experiments import figures
from repro.utils.counters import Counters
from repro.experiments.runner import random_queries
from repro.objects import uniform_objects

from _bench_utils import run_once


def test_fig17_vary_k_shape(benchmark, us_tt):
    result = run_once(
        benchmark,
        lambda: figures.fig10_vary_k(
            us_tt, ks=(1, 10, 25), density=0.003, num_queries=10
        ),
    )
    print()
    print(result.format_text())
    for k in (10, 25):
        assert result.at("ier-phl", k) < result.at("ine", k)


def test_fig17_vary_density_shape(benchmark, us_tt):
    result = run_once(
        benchmark,
        lambda: figures.fig11_vary_density(
            us_tt, densities=(0.003, 0.1), num_queries=8
        ),
    )
    print()
    print(result.format_text())
    # The expansion methods still improve with density on time weights.
    assert result.at("ine", 0.1) < result.at("ine", 0.003)


def test_travel_time_false_hits_exceed_distance(benchmark, us, us_tt):
    """The looser time-weight lower bound costs IER extra computations."""

    def run():
        k = 10
        counters_d, counters_t = Counters(), Counters()
        objects = uniform_objects(us.graph, 0.01, seed=0)
        alg_d = us.make("ier-phl", objects)
        alg_t = us_tt.make("ier-phl", objects)
        for q in random_queries(us.graph, 10, seed=4):
            alg_d.knn(int(q), k, counters=counters_d)
            alg_t.knn(int(q), k, counters=counters_t)
        return counters_d, counters_t

    counters_d, counters_t = run_once(benchmark, run)
    assert (
        counters_t["verify_network_computations"]
        >= counters_d["verify_network_computations"]
    )
