"""Per-method kNN tests: INE, IER, G-tree, ROAD, Distance Browsing."""

import numpy as np
import pytest

from repro.index.gtree import GTree, GTreeOracle
from repro.index.road import RoadIndex
from repro.index.silc import SILCIndex
from repro.knn.base import verify_knn_result
from repro.knn.distance_browsing import DistanceBrowsing
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ier import IER, euclidean_knn_brute_force
from repro.knn.ine import INE, ine_knn
from repro.knn.road_knn import RoadKNN
from repro.pathfinding.dijkstra import DijkstraOracle, dijkstra_sssp
from repro.reference import VARIANTS, ReferenceINE
from repro.utils.counters import Counters


@pytest.fixture(scope="module")
def gtree400(road400):
    return GTree(road400, tau=48)


@pytest.fixture(scope="module")
def road_index400(road400):
    return RoadIndex(road400, levels=3)


@pytest.fixture(scope="module")
def silc400(road400):
    return SILCIndex(road400)


@pytest.fixture(scope="module")
def truth(road400, objects400, queries400):
    ine = INE(road400, objects400)
    return {(q, k): ine.knn(q, k) for q in queries400 for k in (1, 4, 10)}


class TestINE:
    def test_matches_dijkstra_semantics(self, road400, objects400):
        """INE's results are exactly the k closest objects by SSSP."""
        q = 7
        sssp = dijkstra_sssp(road400, q)
        expected = sorted((float(sssp[o]), int(o)) for o in objects400)[:5]
        assert verify_knn_result(INE(road400, objects400).knn(q, 5), expected)

    def test_all_variants_identical(self, road400, objects400, queries400):
        # The four Figure 7 rungs and the production implementation —
        # the five series fig07_ine_ablation plots.
        algs = {v: ReferenceINE(road400, objects400, variant=v) for v in VARIANTS}
        algs["production"] = INE(road400, objects400)
        for q in queries400[:8]:
            ref = algs["graph"].knn(q, 6)
            for v, alg in algs.items():
                assert verify_knn_result(alg.knn(q, 6), ref), v

    def test_k_larger_than_objects(self, road400):
        objects = [3, 9]
        result = INE(road400, objects).knn(0, 10)
        assert len(result) == 2

    def test_query_on_object(self, road400, objects400):
        q = int(objects400[0])
        result = INE(road400, objects400).knn(q, 3)
        assert result[0] == (0.0, q)

    def test_results_sorted(self, road400, objects400):
        result = INE(road400, objects400).knn(11, 8)
        dists = [d for d, _ in result]
        assert dists == sorted(dists)

    def test_counters(self, road400, objects400):
        c = Counters()
        INE(road400, objects400).knn(0, 5, counters=c)
        assert c["expand_settled"] > 0

    def test_rejects_unknown_variant(self, road400, objects400):
        with pytest.raises(ValueError):
            ReferenceINE(road400, objects400, variant="magic")

    def test_one_shot_helper(self, road400, objects400):
        assert ine_knn(road400, objects400, 0, 3) == INE(
            road400, objects400
        ).knn(0, 3)


class TestIER:
    @pytest.mark.parametrize("oracle_name", ["dijkstra", "mgtree"])
    def test_oracles_match_truth(
        self, road400, objects400, queries400, truth, gtree400, oracle_name
    ):
        oracle = {
            "dijkstra": lambda: DijkstraOracle(road400),
            "mgtree": lambda: GTreeOracle(gtree400),
        }[oracle_name]()
        alg = IER(road400, objects400, oracle)
        for q in queries400[:8]:
            for k in (1, 4, 10):
                assert verify_knn_result(alg.knn(q, k), truth[(q, k)]), (
                    oracle_name,
                    q,
                    k,
                )

    def test_false_hit_counter(self, road400, objects400):
        c = Counters()
        alg = IER(road400, objects400, DijkstraOracle(road400))
        for q in (0, 50, 100):
            alg.knn(q, 5, counters=c)
        assert c["verify_network_computations"] >= 15

    def test_k_exceeds_objects(self, road400):
        alg = IER(road400, [5, 10], DijkstraOracle(road400))
        assert len(alg.knn(0, 7)) == 2

    def test_euclidean_brute_force_matches_rtree(self, road400, objects400):
        alg = IER(road400, objects400, DijkstraOracle(road400))
        for q in (0, 123):
            brute = euclidean_knn_brute_force(road400, objects400, q, 5)
            cursor = alg.rtree.nearest_cursor(
                float(road400.x[q]), float(road400.y[q])
            )
            got = [cursor.next() for _ in range(5)]
            assert [d for d, _ in got] == pytest.approx([d for d, _ in brute])

    def test_travel_time_lower_bound_respected(
        self, road400_time, objects400
    ):
        """On time weights IER must still be exact (scaled Euclidean bound)."""
        ine = INE(road400_time, objects400)
        alg = IER(road400_time, objects400, DijkstraOracle(road400_time))
        for q in (0, 77, 200):
            assert verify_knn_result(alg.knn(q, 5), ine.knn(q, 5))


class TestGTreeKNN:
    def test_matches_truth(self, gtree400, objects400, queries400, truth):
        alg = GTreeKNN(gtree400, objects400)
        for q in queries400:
            for k in (1, 4, 10):
                assert verify_knn_result(alg.knn(q, k), truth[(q, k)]), (q, k)

    def test_original_leaf_search_matches(
        self, gtree400, objects400, queries400, truth
    ):
        alg = GTreeKNN(gtree400, objects400, improved_leaf_search=False)
        for q in queries400[:10]:
            for k in (1, 10):
                assert verify_knn_result(alg.knn(q, k), truth[(q, k)])

    def test_dense_objects(self, road400, gtree400):
        objects = np.arange(0, road400.num_vertices, 2)
        ine = INE(road400, objects)
        alg = GTreeKNN(gtree400, objects)
        for q in (0, 5, 399 % road400.num_vertices):
            assert verify_knn_result(alg.knn(q, 10), ine.knn(q, 10))

    def test_requires_objects_or_ol(self, gtree400):
        with pytest.raises(ValueError):
            GTreeKNN(gtree400)

    def test_counters_record_leaf_work(self, gtree400, objects400):
        c = Counters()
        GTreeKNN(gtree400, objects400).knn(0, 5, counters=c)
        assert c["matrix_ops"] >= 0  # present even if leaf-only


class TestRoadKNN:
    def test_matches_truth(self, road_index400, objects400, queries400, truth):
        alg = RoadKNN(road_index400, objects400)
        for q in queries400:
            for k in (1, 4, 10):
                assert verify_knn_result(alg.knn(q, k), truth[(q, k)]), (q, k)

    def test_sparse_objects_bypass_rnets(self, road400, road_index400):
        c = Counters()
        alg = RoadKNN(road_index400, [0])
        alg.knn(road400.num_vertices - 1, 1, counters=c)
        assert c["expand_bypassed"] > 0

    def test_requires_objects_or_ad(self, road_index400):
        with pytest.raises(ValueError):
            RoadKNN(road_index400)


class TestDistanceBrowsing:
    def test_enn_matches_truth(self, silc400, objects400, queries400, truth):
        alg = DistanceBrowsing(silc400, objects400)
        for q in queries400:
            for k in (1, 4, 10):
                assert verify_knn_result(alg.knn(q, k), truth[(q, k)]), (q, k)

    def test_hierarchy_matches_truth(
        self, silc400, objects400, queries400, truth
    ):
        alg = DistanceBrowsing(silc400, objects400, candidate_source="hierarchy")
        for q in queries400[:10]:
            for k in (1, 10):
                assert verify_knn_result(alg.knn(q, k), truth[(q, k)]), (q, k)

    def test_chains_do_not_change_results(
        self, silc400, objects400, queries400, truth
    ):
        alg = DistanceBrowsing(silc400, objects400, use_chains=False)
        for q in queries400[:8]:
            assert verify_knn_result(alg.knn(q, 10), truth[(q, 10)])

    def test_query_on_object(self, silc400, objects400):
        q = int(objects400[0])
        assert DistanceBrowsing(silc400, objects400).knn(q, 1)[0] == (0.0, q)

    def test_refinement_counter(self, silc400, objects400):
        c = Counters()
        DistanceBrowsing(silc400, objects400).knn(0, 5, counters=c)
        assert c["browse_refinements"] > 0

    def test_rejects_unknown_source(self, silc400, objects400):
        with pytest.raises(ValueError):
            DistanceBrowsing(silc400, objects400, candidate_source="psychic")

    def test_k_exceeds_objects(self, silc400, road400):
        alg = DistanceBrowsing(silc400, [1, 2, 3])
        assert len(alg.knn(0, 10)) == 3
