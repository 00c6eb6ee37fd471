"""Experiment harness tests: index cache, results, figures, cache study."""

import pytest

from repro.engine import IndexCache
from repro.experiments.cache_study import (
    format_table3,
    record_matrix_trace,
    table3_cache_profile,
)
from repro.experiments.runner import (
    ExperimentResult,
    measure_query_time,
    random_queries,
)
from repro.experiments import figures, tables
from repro.graph.generators import road_network
from repro.knn.base import verify_knn_result
from repro.knn.ine import INE
from repro.objects import uniform_objects


@pytest.fixture(scope="module")
def wb():
    return IndexCache(road_network(350, seed=77, name="S-wb"))


class TestWorkbench:
    def test_make_every_method(self, wb):
        objects = uniform_objects(wb.graph, 0.05, seed=0)
        truth = INE(wb.graph, objects).knn(3, 5)
        from repro.experiments.runner import METHOD_NAMES

        for name in METHOD_NAMES:
            alg = wb.make(name, objects)
            assert verify_knn_result(alg.knn(3, 5), truth), name

    def test_make_unknown_rejected(self, wb):
        with pytest.raises(ValueError):
            wb.make("quantum", [0])

    def test_indexes_cached(self, wb):
        assert wb.gtree is wb.gtree
        assert wb.ch is wb.ch

    def test_silc_cap(self, cap_silc):
        capped = IndexCache(road_network(300, seed=1))
        cap_silc(100)
        assert capped.unavailable_reason("silc") is not None
        with pytest.raises(MemoryError):
            capped.silc

    def test_available_methods(self, wb):
        methods = wb.available_methods()
        assert "ine" in methods and "ier-phl" in methods


class TestRunner:
    def test_random_queries_in_range(self, wb):
        qs = random_queries(wb.graph, 10, seed=1)
        assert len(qs) == 10
        assert all(0 <= q < wb.graph.num_vertices for q in qs)

    def test_measure_query_time_positive(self, wb):
        objects = uniform_objects(wb.graph, 0.05, seed=0)
        alg = wb.make("ine", objects)
        us = measure_query_time(alg, [0, 1, 2], 3)
        assert us > 0


class TestExperimentResult:
    def test_add_and_lookup(self):
        r = ExperimentResult("t", "x", "y")
        r.add("a", 1, 10.0)
        r.add("a", 2, 20.0)
        assert r.ys("a") == [10.0, 20.0]
        assert r.at("a", 2) == 20.0
        assert r.mean("a") == 15.0

    def test_at_missing_raises(self):
        r = ExperimentResult("t", "x", "y")
        r.add("a", 1, 10.0)
        with pytest.raises(KeyError):
            r.at("a", 99)

    def test_format_text_contains_series(self):
        r = ExperimentResult("demo", "k", "us")
        r.add("m1", 1, 3.0)
        r.add("m2", 1, 4.0)
        text = r.format_text()
        assert "demo" in text and "m1" in text and "m2" in text


class TestFigures:
    def test_fig07_plots_the_four_rungs_and_production(self, wb):
        # Answer agreement of the same five implementations:
        # test_knn_methods.py::TestINE::test_all_variants_identical.
        by_k, by_d = figures.fig07_ine_ablation(
            wb.graph, ks=(1,), densities=(0.05,), num_queries=3
        )
        rungs = ["1st Cut", "PQueue", "Settled", "Graph", "Production"]
        assert list(by_k.series) == rungs and list(by_d.series) == rungs

    def test_fig10_shape(self, wb):
        result = figures.fig10_vary_k(
            wb, ks=(1, 5), num_queries=5, methods=("ine", "gtree", "ier-phl")
        )
        assert set(result.series) == {"ine", "gtree", "ier-phl"}
        assert len(result.ys("ine")) == 2

    def test_fig18_object_indexes(self, wb):
        size, build = figures.fig18_object_indexes(wb, densities=(0.01, 0.1))
        assert "INE" in size.series
        assert size.at("INE", 0.01) < size.at("INE", 0.1)

    def test_fig22_leaf_search(self, wb):
        result = figures.fig22_leaf_search(
            wb, densities=(0.05, 0.3), ks=(1,), num_queries=5
        )
        assert "k=1 (Bef)" in result.series and "k=1 (Aft)" in result.series


class TestTables:
    def test_table1(self, wb):
        rows = tables.table1_networks({"S-wb": wb.graph})
        assert rows[0]["vertices"] == wb.graph.num_vertices
        assert "S-wb" in tables.format_table1(rows)

    def test_table2(self, wb):
        rows = tables.table2_objects(wb.graph)
        assert rows == sorted(rows, key=lambda r: -r["size"])
        assert "Object Set" in tables.format_table2(rows)

    def test_table5_ranking(self, wb):
        criteria = tables.table5_ranking(wb, num_queries=5)
        assert "default" in criteria
        for ranks in criteria.values():
            assert min(ranks.values()) == 1
        assert "criterion" in tables.format_table5(criteria)


class TestCacheStudy:
    def test_profile_ordering_matches_paper(self, wb):
        profile = table3_cache_profile(
            wb.graph, num_queries=15, gtree=wb.gtree
        )
        array = profile["Array"]
        chained = profile["Chained Hashing"]
        probing = profile["Quadratic Probing"]
        # Table 3's shape: array has the fewest instructions and misses;
        # probing burns more instructions than chaining but misses less.
        assert array["INS"] < chained["INS"] < probing["INS"]
        for level in ("L1", "L2", "L3"):
            assert array[level] < probing[level] <= chained[level] * 1.05
        assert "Table 3" in format_table3(profile)

    def test_trace_records_the_pinned_cells(self, wb):
        """Slices passed to ``minplus`` are recorded as their index
        arrays, so a seeded trace touches exactly the cells it did when
        assembly passed arrays."""
        trace, _ = record_matrix_trace(wb.graph, num_queries=15)
        assert all(r.dtype.kind == c.dtype.kind == "i" for _, r, c in trace)
        assert len(trace) == 185
        assert sum(len(r) * len(c) for _, r, c in trace) == 21145
