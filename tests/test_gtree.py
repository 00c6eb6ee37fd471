"""G-tree index tests: structure, matrix exactness, backends, oracle."""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse.csgraph import dijkstra as scipy_dijkstra

from repro.engine.engine import QueryEngine
from repro.graph.generators import delaunay_network
from repro.index.gtree import (
    ArrayMatrix,
    GTree,
    GTreeOracle,
    HashMatrixPacked,
    HashMatrixTuple,
    MATRIX_BACKENDS,
    OccurrenceList,
)
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ier import IER
from repro.pathfinding.dijkstra import dijkstra_distance, dijkstra_sssp
from repro.store import IndexStore, load_index, save_index
from repro.utils.counters import Counters


@pytest.fixture(scope="module")
def gtree400(road400):
    return GTree(road400, tau=48)


class TestStructure:
    def test_every_vertex_in_exactly_one_leaf(self, road400, gtree400):
        assert np.all(gtree400.leaf_of >= 0)
        total = sum(len(n.vertices) for n in gtree400.leaves())
        assert total == road400.num_vertices

    def test_leaf_capacity_respected(self, gtree400):
        for leaf in gtree400.leaves():
            assert len(leaf.vertices) <= 48

    def test_borders_have_outside_edges(self, road400, gtree400):
        for node in gtree400.nodes[1:4]:
            node_vertices = set(
                int(v)
                for leaf in gtree400.leaves()
                if node.leaf_lo <= leaf.leaf_lo < node.leaf_hi
                for v in leaf.vertices
            )
            for b in node.borders:
                neighbors = {v for v, _ in road400.neighbors(int(b))}
                assert neighbors - node_vertices, "border must reach outside"

    def test_parent_borders_are_child_borders(self, gtree400):
        for node in gtree400.nodes:
            if node.parent < 0:
                continue
            parent = gtree400.nodes[node.parent]
            cb = set(int(v) for v in parent.child_borders)
            assert set(int(b) for b in node.borders) <= cb
            # ... as one contiguous run: the node's block of the parent matrix.
            assert np.array_equal(
                parent.child_borders[node.pos_in_parent], node.borders
            )

    def test_bookkeeping(self, gtree400):
        assert gtree400.build_time() > 0
        assert gtree400.size_bytes() > 0
        assert gtree400.num_levels() >= 2
        assert gtree400.average_borders() > 0

    def test_rejects_unknown_backend(self, road400):
        with pytest.raises(ValueError):
            GTree(road400, matrix_backend="nope")


class TestDistanceExactness:
    def test_assembly_matches_dijkstra(self, road400, gtree400, queries400):
        for s in queries400[:5]:
            sssp = dijkstra_sssp(road400, s)
            cache = {}
            for t in queries400[5:15]:
                assert gtree400.distance(s, t, cache=cache) == pytest.approx(
                    float(sssp[t])
                )

    def test_same_leaf_distances(self, road400, gtree400):
        leaf = gtree400.leaves()[0]
        verts = [int(v) for v in leaf.vertices[:6]]
        for s in verts[:2]:
            for t in verts:
                assert gtree400.distance(s, t) == pytest.approx(
                    dijkstra_distance(road400, s, t)
                )

    def test_leaf_matrix_globally_exact(self, road400, gtree400):
        """Out-and-back paths must be captured (the correction pass)."""
        leaf = gtree400.leaves()[1]
        for i, b in enumerate(leaf.borders[:4]):
            sssp = dijkstra_sssp(road400, int(b))
            for v in leaf.vertices[::7]:
                col = leaf.vertex_pos[int(v)]
                assert leaf.matrix.m[i, col] == pytest.approx(float(sssp[v]))

    def test_leaf_border_distances(self, road400, gtree400):
        v = int(gtree400.leaves()[0].vertices[0])
        leaf = gtree400.nodes[int(gtree400.leaf_of[v])]
        d = gtree400.leaf_border_distances(v)
        for i, b in enumerate(leaf.borders):
            assert d[i] == pytest.approx(dijkstra_distance(road400, v, int(b)))

    def test_counters_record_matrix_ops(self, road400, gtree400):
        counters = Counters()
        gtree400.distance(0, road400.num_vertices - 1, counters=counters)
        assert counters["matrix_ops"] > 0

    @settings(max_examples=6, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_exact_on_random_networks(self, seed):
        graph = delaunay_network(90, seed=seed)
        gtree = GTree(graph, tau=16)
        rng = np.random.default_rng(seed)
        for _ in range(6):
            s, t = rng.integers(0, graph.num_vertices, 2)
            assert gtree.distance(int(s), int(t)) == pytest.approx(
                dijkstra_distance(graph, int(s), int(t))
            )


    @pytest.mark.parametrize("name", ("disconnected", "unit-grid", "parallel"))
    def test_exact_on_adversarial_inputs(
        self, adversarial_graphs, induced_min_csr, name
    ):
        """Disconnected pieces, all-ties and parallel edges through the
        shared skeleton, against scipy on an edge-by-edge built matrix."""
        graph = adversarial_graphs[name]
        n = graph.num_vertices
        exact = scipy_dijkstra(induced_min_csr(graph, range(n)), directed=True)
        gtree = GTree(graph, tau=16)
        assert gtree.num_levels() >= 3
        rng = np.random.default_rng(11)
        same_leaf = gtree.leaves()[0].vertices
        pairs = [(int(same_leaf[0]), int(v)) for v in same_leaf[:8]]
        pairs += [(0, n - 1)] + rng.integers(0, n, size=(60, 2)).tolist()
        for s, t in pairs:
            assert gtree.distance(s, t) == pytest.approx(exact[s, t], rel=1e-9)
        for leaf in gtree.leaves():
            cols = leaf.vertices
            np.testing.assert_allclose(
                leaf.matrix.m, exact[np.ix_(leaf.borders, cols)], rtol=1e-9
            )


class TestMatrixBackends:
    def test_backends_registry(self):
        assert set(MATRIX_BACKENDS) == {"array", "hash_tuple", "hash_packed"}

    def test_minplus_agreement(self):
        rng = np.random.default_rng(0)
        m = rng.random((8, 9))
        prev = rng.random(3)
        rows = np.asarray([1, 4, 6])
        cols = np.asarray([0, 2, 8])
        expected = ArrayMatrix(m).minplus(prev, rows, cols)
        for backend in (HashMatrixTuple, HashMatrixPacked):
            got = backend(m).minplus(prev, rows, cols)
            assert np.allclose(got, expected)

    @pytest.mark.parametrize(
        "rows, cols",
        [
            (slice(2, 5), np.asarray([0, 2, 8])),
            (np.asarray([1, 4, 6]), slice(3, 9)),
            (slice(2, 5), slice(3, 9)),
        ],
        ids=["slice-array", "array-slice", "slice-slice"],
    )
    def test_minplus_slice_blocks_agree_bitwise(self, rows, cols):
        """Assembly passes child blocks as slices; every mix with an
        array must keep outer-product semantics on every backend."""
        rng = np.random.default_rng(1)
        m = rng.random((8, 9))
        r = np.arange(8)[rows]
        c = np.arange(9)[cols]
        prev = rng.random(len(r))
        outer = (prev[:, None] + m[np.ix_(r, c)]).min(axis=0)
        for backend in MATRIX_BACKENDS.values():
            assert np.array_equal(backend(m).minplus(prev, rows, cols), outer)

    def test_get_agreement(self):
        m = np.arange(12, dtype=float).reshape(3, 4)
        for backend in MATRIX_BACKENDS.values():
            assert backend(m).get(2, 3) == 11.0

    def test_hash_backend_distances_exact(self, road400):
        gtree = GTree(road400, tau=48, matrix_backend="hash_packed")
        for s, t in [(0, 200), (5, 399 % road400.num_vertices)]:
            assert gtree.distance(s, t) == pytest.approx(
                dijkstra_distance(road400, s, t)
            )

    def test_size_ordering(self):
        """Hash layouts must report larger footprints than the array."""
        m = np.ones((10, 10))
        assert (
            ArrayMatrix(m).size_bytes()
            < HashMatrixPacked(m).size_bytes()
            < HashMatrixTuple(m).size_bytes()
        )


def _pinned_query_run(gtree, graph, objects, queries):
    """``ier-gt`` and both G-tree kNN leaf searches over ``queries``."""
    counters = Counters()
    algs = (
        IER(graph, objects, GTreeOracle(gtree, counters)),
        GTreeKNN(gtree, objects),
        GTreeKNN(gtree, objects, improved_leaf_search=False),
    )
    answers = [alg.knn(q, 5, counters=counters) for alg in algs for q in queries]
    return counters, answers


class TestAssemblyArtifacts:
    def test_counters_and_answers_pinned_on_built_and_loaded_tree(
        self, road400, gtree400, objects400, queries400, tmp_path
    ):
        """Slicing the child blocks changes no arithmetic: the counter
        totals are the values pinned before the change, and a
        store-loaded tree answers and serializes exactly like the built
        one."""
        store = IndexStore(str(tmp_path))
        save_index(store, "gtree", road400, gtree400, {"tau": 48})
        loaded = load_index(store, "gtree", road400, {"tau": 48})
        built_counters, built_answers = _pinned_query_run(
            gtree400, road400, objects400, queries400
        )
        loaded_counters, loaded_answers = _pinned_query_run(
            loaded, road400, objects400, queries400
        )
        pinned = {
            "matrix_ops": 75980,
            "verify_network_computations": 194,
            "leaf_settled": 281,
        }
        for counters in (built_counters, loaded_counters):
            assert {name: counters[name] for name in pinned} == pinned
        assert loaded_answers == built_answers
        built_arrays, loaded_arrays = gtree400.to_arrays(), loaded.to_arrays()
        assert set(loaded_arrays) == set(built_arrays)
        for name, array in built_arrays.items():
            assert np.array_equal(loaded_arrays[name], array), name

    @pytest.mark.parametrize("tamper", ["swap", "gap"])
    def test_from_arrays_rejects_non_contiguous_pos_in_parent(
        self, road400, gtree400, tamper
    ):
        arrays = gtree400.to_arrays()
        off = arrays["pos_in_parent_off"]
        node = next(
            n.id for n in gtree400.nodes
            if n.parent >= 0 and len(n.borders) >= 2
        )
        lo = int(off[node])
        pos = arrays["pos_in_parent"].copy()
        if tamper == "swap":
            pos[lo], pos[lo + 1] = pos[lo + 1], pos[lo]
        else:
            pos[lo + 1] += 1
        arrays["pos_in_parent"] = pos
        with pytest.raises(ValueError, match=rf"node {node} is not a contiguous"):
            GTree.from_arrays(road400, arrays)


class TestOccurrenceList:
    def test_leaf_objects_partition_objects(self, gtree400, objects400):
        ol = OccurrenceList(gtree400, objects400)
        listed = sorted(
            o for objs in ol.leaf_objects.values() for o in objs
        )
        assert listed == sorted(int(o) for o in objects400)

    def test_has_objects_propagates_to_root(self, gtree400, objects400):
        ol = OccurrenceList(gtree400, objects400)
        assert ol.has_objects(gtree400.root)

    def test_children_only_occupied(self, gtree400, objects400):
        ol = OccurrenceList(gtree400, objects400)
        for node_id, children in ol.children_with_objects.items():
            for c in children:
                assert ol.has_objects(c)

    def test_is_object(self, gtree400, objects400):
        ol = OccurrenceList(gtree400, objects400)
        assert ol.is_object(int(objects400[0]))
        non_object = next(
            v for v in range(gtree400.graph.num_vertices)
            if v not in set(int(o) for o in objects400)
        )
        assert not ol.is_object(non_object)

    def test_costs_tracked(self, gtree400, objects400):
        ol = OccurrenceList(gtree400, objects400)
        assert ol.build_time() >= 0
        assert ol.size_bytes() > 0


class TestGTreeOracle:
    def test_matches_dijkstra(self, road400, gtree400):
        oracle = GTreeOracle(gtree400)
        for t in (3, 77, 201):
            assert oracle.distance(0, t) == pytest.approx(
                dijkstra_distance(road400, 0, t)
            )

    def test_materialization_reused_across_targets(self, road400, gtree400):
        oracle = GTreeOracle(gtree400)
        oracle.begin_source(0)
        first_cache = oracle._cache
        oracle.distance(0, 399 % road400.num_vertices)
        assert oracle._cache is first_cache
        oracle.distance(1, 5)  # new source resets
        assert oracle._cache is not first_cache

    def test_cost_accessors(self, gtree400):
        oracle = GTreeOracle(gtree400)
        assert oracle.size_bytes() == gtree400.size_bytes()
        assert oracle.build_time() == gtree400.build_time()

    def test_shared_ier_gt_instance_under_four_thread_hammer(
        self, road400, objects400
    ):
        """ROADMAP correctness (iv): ``GTreeOracle`` keeps ``_source`` /
        ``_cache`` on an instance server workers share.  Four threads
        with four different source streams hammer one ``ier-gt``
        algorithm at a 1 µs switch interval; every answer must equal the
        single-threaded one.  Refuted on CPython 3.11: ``begin_source``
        resets the pair, and ``distance`` reads ``_cache``, between two
        eval-breaker checks, so no thread sees another source's cache.
        """
        alg = QueryEngine(road400, objects400).algorithm("ier-gt")
        rng = np.random.default_rng(17)
        streams = rng.integers(0, road400.num_vertices, size=(4, 12)).tolist()
        truth = [[alg.knn(q, 5) for q in stream] for stream in streams]
        wrong, passes = [], [0] * len(streams)
        deadline = time.monotonic() + 1.0

        def hammer(me: int) -> None:
            while time.monotonic() < deadline:
                for q, want in zip(streams[me], truth[me]):
                    if alg.knn(q, 5) != want:
                        wrong.append((me, q))
                passes[me] += 1

        threads = [
            threading.Thread(target=hammer, args=(me,))
            for me in range(len(streams))
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        assert min(passes) >= 1
