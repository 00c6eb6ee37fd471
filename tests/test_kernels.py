"""Kernel-layer tests: the production-vs-reference equality guarantees.

The property tests are the regression guard the one-implementation
design rests on: every production algorithm must return *byte-identical*
answers and *identical settled-vertex counters* to the per-edge loops in
:mod:`repro.reference` on seeded random grid/cluster graphs (where
vertices tie at the stopping distance, the counters differ by exactly
the kernel's documented tie rule).  A fast
path that drifts — even in tie-breaking or counter accounting — fails
here before any benchmark can advertise it.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra as csgraph_dijkstra

from repro import reference
from repro.engine import QueryEngine
from repro.graph.generators import grid_network, road_network
from repro.graph.graph import Graph
from repro.index.gtree import GTree
from repro.index.road import RoadIndex
from repro.index.silc import SILCIndex
from repro.kernels import bulk_sssp
from repro.knn.distance_browsing import DistanceBrowsing
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ine import INE
from repro.knn.road_knn import RoadKNN
from repro.objects import uniform_objects
from repro.pathfinding.ch import ContractionHierarchy
from repro.pathfinding.dijkstra import (
    dijkstra_distance,
    dijkstra_sssp,
    dijkstra_to_targets,
)
from repro.pathfinding.tnr import TransitNodeRouting
from repro.updates import set_weight
from repro.utils.counters import Counters

INF = float("inf")


# ----------------------------------------------------------------------
# No state carried between searches
# ----------------------------------------------------------------------
class TestScratch:
    def test_stale_state_invisible_across_queries(self):
        # Back-to-back searches on one graph must not see each other's
        # distances, on the kernel or on the reference loop.
        graph = road_network(400, seed=5)
        rng = np.random.default_rng(5)
        pairs = [
            (int(rng.integers(400)), int(rng.integers(400)))
            for _ in range(12)
        ]
        cold = [
            dijkstra_distance(road_network(400, seed=5), s, t)
            for s, t in pairs
        ]
        warm = [dijkstra_distance(graph, s, t) for s, t in pairs]
        assert warm == cold
        loop = [reference.dijkstra_distance(graph, s, t) for s, t in pairs]
        assert loop == cold


# ----------------------------------------------------------------------
# Production vs reference equality (the regression guard)
# ----------------------------------------------------------------------
def _property_graphs():
    return [
        grid_network(15, 15, seed=2),
        road_network(500, seed=7),
        road_network(400, seed=11, chain_fraction=0.6),
    ]


@pytest.fixture(scope="module", params=[0, 1, 2], ids=["grid", "road", "chains"])
def prop_graph(request):
    return _property_graphs()[request.param]


class TestDijkstraKernelEquality:
    def test_p2p_distances_and_counters_identical(self, prop_graph):
        n = prop_graph.num_vertices
        rng = np.random.default_rng(n)
        for _ in range(20):
            s, t = int(rng.integers(n)), int(rng.integers(n))
            cr, cp = Counters(), Counters()
            dr = reference.dijkstra_distance(prop_graph, s, t, counters=cr)
            dp = dijkstra_distance(prop_graph, s, t, counters=cp)
            assert dr == dp  # byte-identical, not just close
            assert cr["sssp_settled"] == cp["sssp_settled"]

    def test_full_sssp_identical(self, prop_graph):
        cr, cp = Counters(), Counters()
        dr = reference.dijkstra_sssp(prop_graph, 3, counters=cr)
        dp = dijkstra_sssp(prop_graph, 3, counters=cp)
        assert np.array_equal(dr, dp)
        assert cr["sssp_settled"] == cp["sssp_settled"]

    def test_bounded_sssp_settled_region_identical(self, prop_graph):
        full = reference.dijkstra_sssp(prop_graph, 5)
        cutoff = float(np.median(full[np.isfinite(full)]))
        cr, cp = Counters(), Counters()
        dr = reference.dijkstra_sssp(prop_graph, 5, cutoff=cutoff, counters=cr)
        dp = dijkstra_sssp(prop_graph, 5, cutoff=cutoff, counters=cp)
        settled = np.isfinite(dp)
        assert np.array_equal(settled, dr <= cutoff)
        assert np.array_equal(dr[settled], dp[settled])
        assert cr["sssp_settled"] == cp["sssp_settled"]

    def test_to_targets_identical(self, prop_graph):
        n = prop_graph.num_vertices
        rng = np.random.default_rng(n + 1)
        targets = [int(v) for v in rng.integers(0, n, size=8)]
        cr, cp = Counters(), Counters()
        out_r = reference.dijkstra_to_targets(
            prop_graph, 2, targets, counters=cr
        )
        out_p = dijkstra_to_targets(prop_graph, 2, targets, counters=cp)
        assert out_r == out_p
        assert cr["sssp_settled"] == cp["sssp_settled"]

    def test_bulk_sssp_rows_match_single_source(self, prop_graph):
        rows = bulk_sssp(prop_graph, [0, 4, 9])
        for row, src in zip(rows, (0, 4, 9)):
            assert np.allclose(
                row, reference.dijkstra_sssp(prop_graph, src),
                rtol=1e-12, atol=0,
            )


class TestINEKernelEquality:
    def test_answers_and_counters_identical(self, prop_graph):
        n = prop_graph.num_vertices
        objects = uniform_objects(prop_graph, 0.05, seed=3, minimum=4)
        ine_r = reference.ReferenceINE(prop_graph, objects)
        ine_p = INE(prop_graph, objects)
        rng = np.random.default_rng(n + 2)
        for k in (1, 3, 10):
            for _ in range(8):
                q = int(rng.integers(n))
                cr, cp = Counters(), Counters()
                rr = ine_r.knn(q, k, counters=cr)
                rp = ine_p.knn(q, k, counters=cp)
                assert rr == rp
                assert cr["expand_settled"] == cp["expand_settled"]

    def test_k_exceeding_object_count(self, prop_graph):
        objects = uniform_objects(prop_graph, 0.02, seed=1, minimum=2)
        k = len(objects) + 5
        cr, cp = Counters(), Counters()
        rr = reference.ReferenceINE(prop_graph, objects).knn(0, k, counters=cr)
        rp = INE(prop_graph, objects).knn(0, k, counters=cp)
        assert rr == rp
        assert cr["expand_settled"] == cp["expand_settled"]

    def test_query_on_an_object_vertex(self, prop_graph):
        objects = uniform_objects(prop_graph, 0.05, seed=3, minimum=4)
        q = int(objects[0])
        rr = reference.ReferenceINE(prop_graph, objects).knn(q, 3)
        rp = INE(prop_graph, objects).knn(q, 3)
        assert rr == rp
        assert rp[0] == (0.0, q)


class TestROADKernelEquality:
    """RoadKNN (the overlay on the kernel) against the per-settle loop:
    byte-identical answers; equal ``expand_settled`` / ``expand_bypassed``
    where no other vertex shares the k-th distance, and otherwise the
    loop's counts plus the tied vertices it had not popped yet (the
    kernel's documented tie rule)."""

    KS = (0, 1, 4, 10)

    @staticmethod
    def _tied_beyond(overlay, q, k, answer):
        """(settles, bypassed interiors) of the vertices at the k-th
        distance that the loop, popping ``(distance, vertex)`` in order,
        had not reached when it stopped on the k-th object."""
        if k < 1 or len(answer) < k:
            return 0, 0  # the loop drained the heap: no stopping vertex
        dk, last = answer[-1]
        dist = csgraph_dijkstra(overlay.matrix, directed=True, indices=q)
        tied = (dist == dk) & (np.arange(len(dist)) > last)
        return int(tied.sum()), int(overlay.bypassed[tied].sum())

    def _check(self, road, objects, queries, churn_seed=None):
        prod = RoadKNN(road, objects)
        ref = reference.ReferenceRoadKNN(road, objects)
        rng = np.random.default_rng(churn_seed)
        n = road.graph.num_vertices
        for _ in range(3 if churn_seed is not None else 1):
            ks = self.KS + (len(prod.overlay.objects) + 1,)
            for q in queries:
                for k in ks:
                    cp, cr = Counters(), Counters()
                    got = prod.knn(q, k, counters=cp)
                    want = ref.knn(q, k, counters=cr)
                    assert got == want, (q, k)
                    settles, bypassed = self._tied_beyond(prod.overlay, q, k, want)
                    assert cp["expand_settled"] == cr["expand_settled"] + settles
                    assert cp["expand_bypassed"] == cr["expand_bypassed"] + bypassed
            if churn_seed is None:
                break
            present = set(int(o) for o in prod.overlay.objects)
            removed = [o for o in present if rng.random() < 0.3]
            added = [
                int(v) for v in rng.choice(n, size=4, replace=False)
                if int(v) not in present
            ]
            prod.update_objects(added, removed)
            ref.update_objects(added, removed)

    @staticmethod
    def _free_border(road, objects):
        """A border vertex of an object-free Rnet with an interior."""
        occupied = {int(road.leaf_of[o]) for o in objects}
        for node in road.rnets[1:]:
            leaves = range(node.leaf_lo, node.leaf_hi)
            if len(node.borders) and node.interior_size and not any(
                road.rnets[leaf].leaf_lo in leaves for leaf in occupied
            ):
                return int(node.borders[0])
        raise AssertionError("every Rnet holds an object")

    def _queries(self, road, objects):
        n = road.graph.num_vertices
        rng = np.random.default_rng(n)
        return [int(v) for v in rng.integers(n, size=6)] + [
            self._free_border(road, objects)
        ]

    @pytest.fixture(scope="class")
    def prop_road(self, prop_graph):
        return RoadIndex(prop_graph, levels=3, seed=0)

    @pytest.mark.parametrize("density", (0.01, 0.05, 0.2))
    def test_property_graphs(self, prop_graph, prop_road, density):
        objects = uniform_objects(prop_graph, density, seed=3, minimum=2)
        self._check(prop_road, objects, self._queries(prop_road, objects))

    @pytest.mark.parametrize("name", ("disconnected", "unit-grid", "parallel"))
    def test_adversarial_graphs(self, adversarial_graphs, name):
        graph = adversarial_graphs[name]
        road = RoadIndex(graph, levels=3, seed=0)
        objects = list(range(0, graph.num_vertices, 13))
        self._check(road, objects, self._queries(road, objects))

    def test_empty_object_set(self, prop_graph, prop_road):
        c = Counters()
        assert RoadKNN(prop_road, []).knn(0, 3, counters=c) == []
        assert c["expand_bypassed"] > 0
        self._check(prop_road, [], [0, 7, self._free_border(prop_road, [])])

    def test_after_object_churn(self, prop_graph, prop_road):
        objects = uniform_objects(prop_graph, 0.02, seed=8, minimum=3)
        self._check(
            prop_road, objects, self._queries(prop_road, objects), churn_seed=4
        )


class TestGTreeKernelEquality:
    @pytest.fixture(scope="class")
    def graph_tree_objects(self):
        graph = road_network(500, seed=7)
        objects = uniform_objects(graph, 0.04, seed=9, minimum=5)
        return graph, GTree(graph), objects

    def test_build_exact_vs_reference_dijkstra(self, graph_tree_objects):
        graph, gt, _ = graph_tree_objects
        rng = np.random.default_rng(13)
        for _ in range(30):
            s, t = (int(rng.integers(500)), int(rng.integers(500)))
            ref = reference.dijkstra_distance(graph, s, t)
            assert gt.distance(s, t) == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("improved", [True, False])
    def test_knn_matches_reference_ine(self, graph_tree_objects, improved):
        # The leaf search (flat-list Dijkstra over the cached leaf CSR)
        # and the hierarchy queue against the per-edge INE loop.
        graph, gt, objects = graph_tree_objects
        knn = GTreeKNN(gt, objects, improved_leaf_search=improved)
        ine = reference.ReferenceINE(graph, objects)
        rng = np.random.default_rng(17)
        for _ in range(15):
            q = int(rng.integers(500))
            got, ref = knn.knn(q, 4), ine.knn(q, 4)
            assert [v for _, v in got] == [v for _, v in ref]
            assert [d for d, _ in got] == pytest.approx(
                [d for d, _ in ref], rel=1e-9
            )

    def test_leaf_lists_mirror_leaf_csr_and_drop_with_it(self):
        # One cache per leaf beside leaf_csr: same edges, flat python
        # lists — and weight repair drops the two together.
        graph = road_network(500, seed=7)  # private: the test mutates it
        gt = GTree(graph)
        leaf = gt.nodes[int(gt.leaf_of[3])]
        indptr, indices, data = gt.leaf_local_lists(leaf)
        local = gt.leaf_local_csr(leaf)
        assert indptr == local.indptr.tolist()
        assert indices == local.indices.tolist()
        assert data == local.data.tolist()
        assert gt.leaf_local_lists(leaf)[0] is indptr  # cached
        v = int(graph.edge_target[graph.vertex_start[3]])
        w = float(graph.edge_weight[graph.vertex_start[3]])
        changed = graph.apply_weight_deltas([set_weight(3, v, w * 3.0)])
        gt.apply_weight_deltas(changed)
        assert leaf.leaf_csr is None and leaf.leaf_lists is None


class TestDisBrwKernelEquality:
    @pytest.fixture(scope="class")
    def silc_setup(self):
        graph = grid_network(14, 14, seed=6)
        silc = SILCIndex(graph, grid_bits=8)
        objects = uniform_objects(graph, 0.08, seed=2, minimum=6)
        return graph, silc, objects

    @pytest.mark.parametrize("source", ["enn", "hierarchy"])
    def test_answers_match_reference_ine(self, silc_setup, source):
        graph, silc, objects = silc_setup
        db = DistanceBrowsing(silc, objects, candidate_source=source)
        ine = reference.ReferenceINE(graph, objects)
        rng = np.random.default_rng(23)
        for _ in range(12):
            q = int(rng.integers(graph.num_vertices))
            got, ref = db.knn(q, 4), ine.knn(q, 4)
            assert [v for _, v in got] == [v for _, v in ref]
            assert [d for d, _ in got] == pytest.approx(
                [d for d, _ in ref], rel=1e-9
            )

    def test_vectorised_intervals_match_scalar(self, silc_setup):
        graph, silc, _ = silc_setup
        targets = np.arange(graph.num_vertices, dtype=np.int64)
        for v in (0, 7, graph.num_vertices - 1):
            lbs, ubs = silc.intervals_from(v, targets)
            for t in range(graph.num_vertices):
                lb, ub = silc.interval_from(v, int(t))
                assert lbs[t] == lb and ubs[t] == ub


def _zero_edge_graph():
    """A road network whose first edge (both arcs) weighs 0, written
    straight into the CSR arrays so the edge stays an edge."""
    base = road_network(300, seed=13)
    u, v = 0, int(base.edge_target[base.vertex_start[0]])
    src = np.repeat(np.arange(base.num_vertices), np.diff(base.vertex_start))
    weight = base.edge_weight.copy()
    dst = base.edge_target
    weight[((src == u) & (dst == v)) | ((src == v) & (dst == u))] = 0.0
    return Graph(
        base.vertex_start, base.edge_target, weight, base.x, base.y,
        name="zero-edge",
    )


def _same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestCHAndTNRKernelEquality:
    """``ContractionHierarchy.distance`` (one C sweep over the upward
    CSR) and ``TransitNodeRouting.distance`` (stored search spaces)
    against the bidirectional dict loops of :mod:`repro.reference`:
    bitwise-equal answers and equal ``bidir_settled``, with every
    transit node as source and as target, and ``s == t``."""

    @staticmethod
    def _pairs(n, transit):
        rng = np.random.default_rng(n)
        others = [int(v) for v in rng.integers(n, size=4)]
        pairs = [(int(a), int(b)) for a, b in rng.integers(n, size=(16, 2))]
        pairs += [(t, o) for t in transit for o in others]
        pairs += [(o, t) for t in transit for o in others]
        pairs += list(zip(transit, transit[1:]))
        pairs += [(v, v) for v in others[:2] + transit[:2]]
        return pairs

    @staticmethod
    def _check_ch(ch, pairs):
        for s, t in pairs:
            cp, cr = Counters(), Counters()
            got = ch.distance(s, t, counters=cp)
            want = reference.ch_distance(ch, s, t, counters=cr)
            assert type(got) is float
            assert _same_bits(got, want), (s, t, got, want)
            assert cp["bidir_settled"] == cr["bidir_settled"], (s, t)

    def _check(self, graph):
        ch = ContractionHierarchy(graph)
        tnr = TransitNodeRouting(graph, ch=ch)
        pairs = self._pairs(graph.num_vertices, tnr.transit_nodes)
        self._check_ch(ch, pairs)
        for s, t in pairs:
            cp, cr = Counters(), Counters()
            got = tnr.distance(s, t, counters=cp)
            want = reference.tnr_distance(tnr, s, t, counters=cr)
            assert type(got) is float
            assert _same_bits(got, want), (s, t, got, want)
            assert cp.as_dict() == cr.as_dict()

    def test_property_graphs(self, prop_graph):
        self._check(prop_graph)

    @pytest.mark.parametrize("name", ("disconnected", "unit-grid", "parallel"))
    def test_adversarial_graphs(self, adversarial_graphs, name):
        self._check(adversarial_graphs[name])

    def test_zero_weight_edge(self):
        graph = _zero_edge_graph()
        u, v = 0, int(graph.edge_target[graph.vertex_start[0]])
        assert reference.dijkstra_distance(graph, u, v) == 0.0
        self._check(graph)

    @pytest.mark.parametrize("factor", (0.5, 1.8), ids=["decrease", "increase"])
    def test_after_weight_repair(self, factor):
        graph = road_network(300, seed=17)
        ch = ContractionHierarchy(graph)
        rng = np.random.default_rng(5)
        src = np.repeat(np.arange(graph.num_vertices), np.diff(graph.vertex_start))
        picks = rng.choice(len(graph.edge_weight), size=6, replace=False)
        changed = graph.apply_weight_deltas([
            set_weight(
                int(src[i]), int(graph.edge_target[i]),
                float(graph.edge_weight[i]) * factor,
            )
            for i in picks.tolist()
        ])
        ch.apply_weight_deltas(changed)
        transit = [int(v) for v in np.argsort(-ch.rank)[:8]]
        self._check_ch(ch, self._pairs(graph.num_vertices, transit))
        for s, t in rng.integers(graph.num_vertices, size=(10, 2)).tolist():
            assert ch.distance(s, t) == pytest.approx(
                reference.dijkstra_distance(graph, s, t), rel=1e-12
            )


class TestTNRKernelEquality:
    def test_tables_access_and_distances_agree(self):
        graph = road_network(400, seed=19)
        ch = ContractionHierarchy(graph)
        tnr = TransitNodeRouting(graph, ch=ch)
        # The bulk-swept transit table against pairwise CH queries.
        tn = tnr.transit_nodes
        for i in range(len(tn)):
            for j in range(i + 1, len(tn)):
                assert tnr.table[i, j] == pytest.approx(
                    ch.distance(tn[i], tn[j]), rel=1e-12
                )
        # Every access node is a true distance to a transit node.
        for v in range(0, graph.num_vertices, 7):
            for a, d in zip(*tnr.access_nodes(v)):
                assert d == pytest.approx(ch.distance(v, tn[a]), rel=1e-9)
        rng = np.random.default_rng(29)
        for _ in range(20):
            s, t = int(rng.integers(400)), int(rng.integers(400))
            ref = reference.dijkstra_distance(graph, s, t)
            assert tnr.distance(s, t) == pytest.approx(ref, rel=1e-9)


# ----------------------------------------------------------------------
# The knob is gone
# ----------------------------------------------------------------------
class TestNoKernelKnob:
    @pytest.fixture(scope="class")
    def graph_objects(self):
        graph = road_network(400, seed=31)
        return graph, uniform_objects(graph, 0.03, seed=1, minimum=5)

    def test_constructors_reject_a_kernel_argument(self, graph_objects):
        graph, objects = graph_objects
        for knob in ({"kernel": "array"}, {"kernel": "python"}):
            with pytest.raises(TypeError):
                QueryEngine(graph, objects, **knob)
            with pytest.raises(TypeError):
                INE(graph, objects, **knob)
            with pytest.raises(TypeError):
                GTree(graph, **knob)
            with pytest.raises(TypeError):
                dijkstra_distance(graph, 0, 1, **knob)

    def test_result_provenance_is_the_method_name(self, graph_objects):
        graph, objects = graph_objects
        result = QueryEngine(graph, objects).query(10, k=3, method="ine")
        assert result.method == "ine" and result.fallback_from is None
        assert not hasattr(result, "kernel")

    def test_arrays_carrying_the_old_kernel_member_still_load(
        self, graph_objects
    ):
        # A store written by the parent commit has a "kernel" array in
        # every G-tree / TNR artifact; to_arrays no longer writes it and
        # from_arrays ignores it.
        graph, _ = graph_objects
        ch = ContractionHierarchy(graph)
        cases = [
            (GTree(graph), lambda a: GTree.from_arrays(graph, a)),
            (
                TransitNodeRouting(graph, ch=ch),
                lambda a: TransitNodeRouting.from_arrays(graph, a, ch),
            ),
        ]
        rng = np.random.default_rng(37)
        pairs = rng.integers(0, graph.num_vertices, size=(10, 2)).tolist()
        for index, load in cases:
            arrays = index.to_arrays()
            assert "kernel" not in arrays
            old = load({**arrays, "kernel": np.asarray("python")})
            new = load(arrays)
            for s, t in pairs:
                assert (
                    old.distance(s, t)
                    == new.distance(s, t)
                    == index.distance(s, t)
                )
