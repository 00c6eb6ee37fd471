"""Streaming DIMACS ingest: fingerprint-identical to the in-memory loader.

The contract under test: for any input the chunked/spilled/merged
pipeline in :mod:`repro.graph.ingest` must produce a graph whose content
fingerprint equals what :func:`repro.graph.dimacs.load_dimacs` builds
from the same files — same dedup rule, adjacency order, default
coordinates, and LCC restriction — while never holding the full arc set
in Python objects.
"""

from __future__ import annotations

import gzip

import numpy as np
import pytest

from repro import cli
from repro.graph.dimacs import load_dimacs, save_dimacs
from repro.graph.generators import road_network
from repro.graph.graph import Graph
from repro.graph.ingest import ingest_dimacs
from repro.store import IndexStore, load_graph


@pytest.fixture(scope="module")
def dimacs_files(tmp_path_factory):
    """A ~3000-vertex network written as .gr/.co (big enough to spill)."""
    graph = road_network(3000, seed=13)
    root = tmp_path_factory.mktemp("dimacs")
    gr, co = str(root / "net.gr"), str(root / "net.co")
    save_dimacs(graph, gr, co)
    return graph, gr, co


def test_ingest_matches_load_dimacs_fingerprint(tmp_path, dimacs_files):
    graph, gr, co = dimacs_files
    store = IndexStore(tmp_path / "store")
    report = ingest_dimacs(gr, co, store, name=graph.name)
    assert load_graph(store, report.key).fingerprint() == (
        load_dimacs(gr, co, name=graph.name).fingerprint()
    )
    assert report.num_vertices == graph.num_vertices
    assert report.num_edges == graph.num_edges


def test_tiny_budget_spills_runs_and_still_matches(tmp_path, dimacs_files):
    """A 1 MB budget forces multi-run external sorting; same bytes out."""
    graph, gr, co = dimacs_files
    store = IndexStore(tmp_path / "store")
    report = ingest_dimacs(
        gr, co, store, name=graph.name, memory_budget_mb=1.0
    )
    assert report.runs_spilled > 1  # the merge path actually ran
    assert load_graph(store, report.key).fingerprint() == (
        load_dimacs(gr, co, name=graph.name).fingerprint()
    )


def test_gzipped_ingest_matches(tmp_path, dimacs_files):
    graph, gr, co = dimacs_files
    gr_gz = tmp_path / "net.gr.gz"
    co_gz = tmp_path / "net.co.gz"
    gr_gz.write_bytes(gzip.compress(open(gr, "rb").read()))
    co_gz.write_bytes(gzip.compress(open(co, "rb").read()))
    store = IndexStore(tmp_path / "store")
    report = ingest_dimacs(
        str(gr_gz), str(co_gz), store, name=graph.name
    )
    assert load_graph(store, report.key).fingerprint() == (
        load_dimacs(gr, co, name=graph.name).fingerprint()
    )


def test_no_lcc_path_matches(tmp_path):
    gr = tmp_path / "frag.gr"
    gr.write_text(
        "p sp 6 8\n"
        "a 1 2 1\n a 2 1 1\n a 2 3 2\n a 3 2 2\n"
        "a 5 6 1\n a 6 5 1\n a 4 5 3\n a 5 4 3\n"
    )
    store = IndexStore(tmp_path / "store")
    name = "frag"
    report = ingest_dimacs(
        str(gr), store=store, name=name, restrict_to_lcc=False
    )
    assert report.num_vertices == 6
    assert not report.restricted_to_lcc
    assert load_graph(store, report.key).fingerprint() == load_dimacs(
        str(gr), name=name, restrict_to_lcc=False
    ).fingerprint()
    # ...and the LCC path drops the smaller fragment, like load_dimacs.
    lcc = ingest_dimacs(str(gr), store=store, name=name)
    assert lcc.num_vertices == 3
    assert lcc.components_dropped == 1
    assert load_graph(store, lcc.key).fingerprint() == load_dimacs(
        str(gr), name=name
    ).fingerprint()


def test_ingest_requires_store_and_arcs(tmp_path):
    gr = tmp_path / "empty.gr"
    gr.write_text("c nothing here\np sp 0 0\n")
    with pytest.raises(ValueError, match="store"):
        ingest_dimacs(str(gr))
    with pytest.raises(ValueError, match="arc"):
        ingest_dimacs(str(gr), store=IndexStore(tmp_path / "s"))


def test_from_store_mmap_serves_ingested_graph(tmp_path, dimacs_files):
    graph, gr, co = dimacs_files
    store = IndexStore(tmp_path / "store")
    report = ingest_dimacs(gr, co, store, name=graph.name)
    mapped = Graph.from_store_mmap(store, report.key)
    assert not mapped.edge_weight.flags.writeable
    # Spot-check query behaviour on the mapped CSR.
    for u in (0, report.num_vertices // 2, report.num_vertices - 1):
        for v, w in mapped.neighbors(u):
            assert 0 <= v < report.num_vertices
            assert w > 0
    # Weight mutation on a read-only mapped graph must raise, not
    # silently corrupt the shared store pages.
    with pytest.raises(ValueError):
        mapped.edge_weight[0] = 1.0


def test_cli_ingest_then_query(tmp_path, dimacs_files, capsys):
    """End-to-end: ``repro ingest`` then ``repro query --graph-key``."""
    _, gr, co = dimacs_files
    store_dir = str(tmp_path / "store")
    assert cli.main([
        "ingest", "--gr", gr, "--co", co, "--store", store_dir,
        "--name", "cli-net",
    ]) == 0
    out = capsys.readouterr().out
    assert "--graph-key" in out
    key = next(
        line.split()[-1] for line in out.splitlines() if "graph key" in line
    )
    assert cli.main([
        "query", "--store", store_dir, "--graph-key", key,
        "--k", "3", "--methods", "ine",
    ]) == 0
    assert "ine" in capsys.readouterr().out


def test_ingested_arrays_match_load_dimacs_bytes(tmp_path, dimacs_files):
    """Beyond the fingerprint: raw CSR bytes are equal array-for-array."""
    graph, gr, co = dimacs_files
    store = IndexStore(tmp_path / "store")
    report = ingest_dimacs(gr, co, store, name=graph.name)
    arrays = store.get("graph", report.key)
    reference = load_dimacs(gr, co, name=graph.name)
    for name, ref in reference.to_arrays().items():
        assert np.asarray(arrays[name]).tobytes() == (
            np.asarray(ref).tobytes()
        ), name
