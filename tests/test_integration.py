"""Cross-method integration and property-based agreement tests.

The core reproducibility claim: every method computes the same kNN
results.  These tests sweep random networks, object distributions, both
weight kinds and edge-case workloads.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import (
    delaunay_network,
    road_network,
    travel_time_weights,
)
from repro.graph.graph import GraphBuilder
from repro.index.gtree import GTree, GTreeOracle
from repro.index.road import RoadIndex
from repro.index.silc import SILCIndex
from repro.knn.base import verify_knn_result
from repro.knn.distance_browsing import DistanceBrowsing
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ier import IER
from repro.knn.ine import INE
from repro.knn.road_knn import RoadKNN
from repro.objects import clustered_objects, poi_object_sets, uniform_objects
from repro.pathfinding.ch import ContractionHierarchy
from repro.pathfinding.dijkstra import DijkstraOracle
from repro.pathfinding.hub_labels import HubLabels
from repro.pathfinding.tnr import TransitNodeRouting


def _all_methods(graph, objects, with_silc=True):
    gtree = GTree(graph, tau=32)
    road = RoadIndex(graph, levels=3)
    ch = ContractionHierarchy(graph)
    hl = HubLabels(graph, order=list(np.argsort(-ch.rank)))
    tnr = TransitNodeRouting(graph, ch=ch, num_transit=16)
    methods = [
        INE(graph, objects),
        GTreeKNN(gtree, objects),
        RoadKNN(road, objects),
        IER(graph, objects, DijkstraOracle(graph)),
        IER(graph, objects, GTreeOracle(gtree)),
        IER(graph, objects, ch),
        IER(graph, objects, hl),
        IER(graph, objects, tnr),
    ]
    if with_silc:
        silc = SILCIndex(graph)
        methods.append(DistanceBrowsing(silc, objects))
        methods.append(
            DistanceBrowsing(silc, objects, candidate_source="hierarchy")
        )
    return methods


def _unit_grid(side):
    """Unit weights on integer coordinates: network distance is Manhattan
    distance, exactly, so whole rings of vertices tie."""
    builder = GraphBuilder()
    for r in range(side):
        for c in range(side):
            builder.add_vertex(float(c), float(r))
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                builder.add_edge(i, i + 1, 1.0)
            if r + 1 < side:
                builder.add_edge(i, i + side, 1.0)
    return builder.build(name=f"unit-grid-{side}")


def _assert_tie_rule(got, objects, dist_of, k, label):
    """The repo's tie rule: the distances are *the* k smallest, exactly;
    which of several equidistant objects fill the last places is free,
    but each entry is a distinct real object at its true distance and the
    list is ordered by (distance, vertex)."""
    brute = sorted((dist_of(o), o) for o in objects)[:k]
    assert [d for d, _ in got] == [d for d, _ in brute], label
    assert got == sorted(got), label
    assert len({v for _, v in got}) == len(got), label
    assert all(v in objects and d == dist_of(v) for d, v in got), label
    d_k = brute[-1][0]
    assert {v for _, v in got} >= {o for d, o in brute if d < d_k}, label


class TestAgreementDistanceWeights:
    @pytest.fixture(scope="class")
    def setup(self):
        graph = road_network(350, seed=21)
        objects = uniform_objects(graph, 0.03, seed=4)
        return graph, objects, _all_methods(graph, objects)

    def test_all_methods_agree(self, setup):
        graph, objects, methods = setup
        reference = methods[0]
        rng = np.random.default_rng(0)
        for k in (1, 3, 10):
            for _ in range(12):
                q = int(rng.integers(graph.num_vertices))
                truth = reference.knn(q, k)
                for alg in methods[1:]:
                    assert verify_knn_result(alg.knn(q, k), truth), (
                        alg.name, q, k
                    )
        # More equidistant objects than k: a ring of 12 ties at distance
        # 3 around the query and a second ring of 20 at distance 5.
        side, centre = 11, (5, 5)
        grid = _unit_grid(side)
        q = centre[1] * side + centre[0]

        def manhattan(v):
            return float(
                abs(v % side - centre[0]) + abs(v // side - centre[1])
            )

        rings = [v for v in range(side * side) if manhattan(v) in (3.0, 5.0)]
        ties = sum(manhattan(v) == 3.0 for v in rings)
        assert ties == 12
        for alg in _all_methods(grid, rings):
            for k in (1, ties - 1, ties + 1):
                _assert_tie_rule(
                    alg.knn(q, k), set(rings), manhattan, k, (alg.name, k)
                )

    def test_clustered_objects(self, setup):
        graph, _, _ = setup
        objects = clustered_objects(graph, 8, seed=9)
        methods = _all_methods(graph, objects, with_silc=False)
        rng = np.random.default_rng(1)
        for _ in range(8):
            q = int(rng.integers(graph.num_vertices))
            truth = methods[0].knn(q, 5)
            for alg in methods[1:]:
                assert verify_knn_result(alg.knn(q, 5), truth), alg.name

    def test_poi_sets(self, setup):
        graph, _, _ = setup
        for name, objects in poi_object_sets(graph, seed=2).items():
            methods = [
                INE(graph, objects),
                GTreeKNN(GTree(graph, tau=32), objects),
            ]
            truth = methods[0].knn(5, 5)
            assert verify_knn_result(methods[1].knn(5, 5), truth), name


class TestAgreementTravelTime:
    def test_all_methods_agree_on_time_weights(self):
        graph = travel_time_weights(road_network(300, seed=33), seed=33)
        objects = uniform_objects(graph, 0.04, seed=6)
        # DisBrw is excluded on travel times, as in the paper.
        methods = _all_methods(graph, objects, with_silc=False)
        rng = np.random.default_rng(2)
        for k in (1, 8):
            for _ in range(10):
                q = int(rng.integers(graph.num_vertices))
                truth = methods[0].knn(q, k)
                for alg in methods[1:]:
                    assert verify_knn_result(alg.knn(q, k), truth), (
                        alg.name, q, k
                    )


class TestEdgeCases:
    @pytest.fixture(scope="class")
    def tiny(self):
        graph = road_network(120, seed=8)
        return graph

    def test_single_object(self, tiny):
        objects = [tiny.num_vertices // 2]
        methods = _all_methods(tiny, objects, with_silc=True)
        truth = methods[0].knn(0, 1)
        for alg in methods[1:]:
            assert verify_knn_result(alg.knn(0, 1), truth), alg.name

    def test_all_vertices_are_objects(self, tiny):
        objects = np.arange(tiny.num_vertices)
        methods = _all_methods(tiny, objects, with_silc=True)
        truth = methods[0].knn(3, 5)
        assert truth[0][0] == 0.0
        for alg in methods[1:]:
            assert verify_knn_result(alg.knn(3, 5), truth), alg.name

    def test_k_equals_object_count(self, tiny):
        objects = uniform_objects(tiny, 0.05, seed=1)
        methods = _all_methods(tiny, objects, with_silc=False)
        k = len(objects)
        truth = methods[0].knn(0, k)
        assert len(truth) == k
        for alg in methods[1:]:
            assert verify_knn_result(alg.knn(0, k), truth), alg.name

    def test_graph_smaller_than_leaf_capacity(self):
        graph = road_network(40, seed=5)
        objects = [1, 5, 9]
        gtree = GTree(graph, tau=128)  # single-leaf G-tree
        truth = INE(graph, objects).knn(0, 2)
        assert verify_knn_result(GTreeKNN(gtree, objects).knn(0, 2), truth)
        assert verify_knn_result(
            IER(graph, objects, GTreeOracle(gtree)).knn(0, 2), truth
        )


class TestPropertyBased:
    @settings(max_examples=6, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        density=st.sampled_from([0.02, 0.1, 0.4]),
        k=st.integers(1, 6),
    )
    def test_methods_agree_on_random_instances(self, seed, density, k):
        graph = delaunay_network(70, seed=seed)
        objects = uniform_objects(graph, density, seed=seed, minimum=k)
        gtree = GTree(graph, tau=16)
        road = RoadIndex(graph, levels=2)
        silc = SILCIndex(graph)
        ine = INE(graph, objects)
        algs = [
            GTreeKNN(gtree, objects),
            RoadKNN(road, objects),
            DistanceBrowsing(silc, objects),
            IER(graph, objects, GTreeOracle(gtree)),
        ]
        rng = np.random.default_rng(seed)
        for _ in range(4):
            q = int(rng.integers(graph.num_vertices))
            truth = ine.knn(q, k)
            for alg in algs:
                assert verify_knn_result(alg.knn(q, k), truth), (
                    alg.name, seed, q, k
                )
