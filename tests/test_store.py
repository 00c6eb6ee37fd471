"""Persistent index store: round-trips, warm starts, corruption handling.

The acceptance property for PR 2: ``load(save(idx))`` answers identical
kNN results for *every* index, a second store-backed ``IndexCache``
performs **zero** index builds (asserted via the global build counters),
and a damaged store surfaces :class:`StoreCorruption` with repair
instructions — never a bare ``KeyError``.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.engine import MethodUnavailable, method_specs
from repro.engine.workbench import IndexCache
from repro.graph.generators import road_network, travel_time_weights
from repro.objects import uniform_objects
from repro.store import (
    FORMAT_VERSION,
    INDEX_KINDS,
    ArtifactMissing,
    IndexStore,
    StoreCorruption,
    artifact_key,
    load_graph,
    load_index,
    load_objects,
    save_graph,
    save_index,
    save_objects,
)
from repro.utils.counters import BUILD_COUNTERS
from repro import cli

ALL_KINDS = ("gtree", "road", "silc", "ch", "hub_labels", "tnr")


@pytest.fixture(params=["npz", "flat"])
def entry_format(request):
    """Run every read-side store test against both entry layouts: the
    ``flat`` entries this build writes and the legacy ``npz`` records an
    older build left behind (see :func:`_as_legacy_npz`)."""
    return request.param


def _as_legacy_npz(store):
    """Rewrite every entry of ``store`` the way builds before the flat
    format wrote it: one ``np.savez_compressed`` file and a manifest
    record with no ``format`` / ``mapped_nbytes`` field."""
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for artifact_id, record in manifest["artifacts"].items():
        arrays = store.get(record["kind"], record["key"])
        with open(store.root / f"{artifact_id}.npz", "wb") as fh:
            np.savez_compressed(fh, **arrays)
        del arrays  # unmap before removing the directory
        _delete_payload(store.root / record["file"])
        record["file"] = f"{artifact_id}.npz"
        record["nbytes"] = (store.root / record["file"]).stat().st_size
        del record["format"], record["mapped_nbytes"]
    manifest_path.write_text(json.dumps(manifest))


def _delete_payload(path):
    """Remove an artifact payload — a file (npz) or a directory (flat)."""
    import shutil

    if path.is_dir():
        shutil.rmtree(path)
    else:
        path.unlink()


def _corrupt_payload(path):
    """Make a payload unreadable: zip garbage, or one garbage member."""
    if path.is_dir():
        member = sorted(path.glob("*.npy"))[0]
        member.write_bytes(b"garbage, not an npy header")
    else:
        path.write_bytes(b"garbage, not a zip archive")


@pytest.fixture(scope="module")
def graph250():
    return road_network(250, seed=11)


@pytest.fixture(scope="module")
def objects250(graph250):
    return uniform_objects(graph250, density=0.04, seed=3)


@pytest.fixture(scope="module")
def built_store(tmp_path_factory, graph250):
    """A store populated with every index kind for ``graph250``."""
    store = IndexStore(tmp_path_factory.mktemp("store"))
    bench = IndexCache(graph250, store=store)
    bench.prebuild(ALL_KINDS)
    save_graph(store, graph250)
    return store


@pytest.fixture()
def tiny_store(tmp_path, entry_format):
    """A small fresh store holding one cheap artifact (corruption tests).

    Parametrized over both entry layouts, so every corruption / gc /
    quarantine scenario below is proven for legacy ``.npz`` files *and*
    ``.flat`` directories.
    """
    graph = road_network(120, seed=5)
    store = IndexStore(tmp_path / "tiny")
    bench = IndexCache(graph, store=store)
    bench.road  # build + persist
    if entry_format == "npz":
        _as_legacy_npz(store)
    assert _single_entry(store).format == entry_format
    return store, graph


# ----------------------------------------------------------------------
# Artifact basics
# ----------------------------------------------------------------------
def test_graph_artifact_roundtrip(tmp_path, graph250, entry_format):
    store = IndexStore(tmp_path)
    info = save_graph(store, graph250)
    if entry_format == "npz":
        _as_legacy_npz(store)
    loaded = load_graph(store, info.key)
    assert loaded.fingerprint() == graph250.fingerprint()
    assert loaded.name == graph250.name
    assert loaded.weight_kind == graph250.weight_kind


def test_object_set_roundtrip(tmp_path, graph250, objects250, entry_format):
    store = IndexStore(tmp_path)
    params = {"density": 0.04, "seed": 3}
    save_objects(store, graph250, objects250, params=params)
    if entry_format == "npz":
        _as_legacy_npz(store)
    loaded = load_objects(store, graph250, params=params)
    assert list(loaded) == [int(o) for o in objects250]


def test_missing_artifact_is_clean_miss_not_keyerror(tmp_path):
    store = IndexStore(tmp_path)
    with pytest.raises(ArtifactMissing) as excinfo:
        store.get("gtree", "0123456789abcdef")
    assert not isinstance(excinfo.value, KeyError)
    assert "gtree" in str(excinfo.value)


def test_keys_distinguish_weights_and_params(graph250):
    tt = travel_time_weights(graph250, seed=11)
    assert artifact_key(graph250) != artifact_key(tt)
    assert artifact_key(graph250, {"tau": 32}) != artifact_key(
        graph250, {"tau": 64}
    )


def test_manifest_records_version_shapes_and_build_time(built_store):
    entries = built_store.entries()
    assert {e.kind for e in entries} >= set(ALL_KINDS)
    for entry in entries:
        assert entry.format_version == FORMAT_VERSION
        assert entry.shapes  # every artifact records array shapes
        assert entry.build_time_s >= 0.0
        assert (built_store.root / entry.file).exists()


def test_flat_arrays_are_readonly_mmap(tmp_path, graph250):
    """Flat members load as read-only views; mutation must raise."""
    store = IndexStore(tmp_path)
    info = save_graph(store, graph250)
    arrays = store.get("graph", info.key)
    for name in ("vertex_start", "edge_target", "edge_weight", "x", "y"):
        assert not arrays[name].flags.writeable, name
        with pytest.raises(ValueError):
            arrays[name][0] = 0
    # ...and the mapped data still round-trips bit-for-bit.
    assert load_graph(store, info.key).fingerprint() == graph250.fingerprint()


def test_from_store_mmap_shares_memory_with_flat_artifact(tmp_path, graph250):
    from repro.graph.graph import Graph

    flat = IndexStore(tmp_path / "flat")
    info = save_graph(flat, graph250)
    mapped = Graph.from_store_mmap(flat, info.key)
    for name, _ in Graph._CSR_FIELDS:
        arr = getattr(mapped, name)
        # Each CSR array must be a view over the store's memory map
        # (from_store_mmap itself raises StoreError on any copy).
        assert isinstance(arr, np.memmap) or isinstance(
            arr.base, np.memmap
        ), name
        assert not arr.flags.writeable, name
    assert mapped.fingerprint() == graph250.fingerprint()
    # Legacy npz artifacts take the same entry point (materialised —
    # the transparent-fallback contract) and answer identically.
    npz = IndexStore(tmp_path / "npz")
    info2 = save_graph(npz, graph250)
    _as_legacy_npz(npz)
    fallback = Graph.from_store_mmap(npz, info2.key)
    assert fallback.fingerprint() == graph250.fingerprint()


def test_mixed_format_store_and_upgrade_path(tmp_path, graph250, capsys):
    """A legacy npz record stays readable; a re-put upgrades it in place.

    A store an older build wrote must (a) keep serving its ``.npz``
    artifacts through ``get`` / ``info`` / ``entries`` / ``store ls`` /
    ``gc --dry-run``, (b) take *new* artifacts as flat beside them, and
    (c) on re-put of an existing key, swap the entry to flat and leave
    the superseded npz payload to gc.
    """
    store = IndexStore(tmp_path / "s")
    info = save_graph(store, graph250)
    _as_legacy_npz(store)
    raw = json.loads((store.root / "manifest.json").read_text())
    assert "format" not in raw["artifacts"][info.artifact_id]

    legacy = store.info("graph", info.key)
    assert legacy.format == "npz" and legacy.mapped_nbytes == 0
    old_file = legacy.file
    assert old_file.endswith(".npz")
    assert [e.artifact_id for e in store.entries()] == [info.artifact_id]
    arrays = store.get("graph", info.key)
    assert arrays["edge_weight"].flags.writeable  # decompressed, not mapped
    assert load_graph(store, info.key).fingerprint() == graph250.fingerprint()
    assert store.gc(dry_run=True) == []
    assert cli.main(["store", "ls", "--store", str(store.root)]) == 0
    assert " npz " in capsys.readouterr().out

    # (b) a new artifact lands flat in the same manifest.
    save_objects(store, graph250, [1, 2, 3])
    assert {e.format for e in store.entries()} == {"npz", "flat"}

    # (c) re-put of the legacy key upgrades the entry.
    info2 = save_graph(store, graph250)
    entry = store.info("graph", info2.key)
    assert entry.format == "flat"
    assert entry.file.endswith(".flat")
    assert entry.mapped_nbytes > 0
    # The npz payload the entry no longer references is orphaned...
    assert (store.root / old_file).exists()
    swept = dict(store.gc())
    assert swept == {old_file: "orphaned file"}
    assert not (store.root / old_file).exists()
    # ...and the store still serves the upgraded artifact.
    assert load_graph(store, info2.key).fingerprint() == (
        graph250.fingerprint()
    )


# ----------------------------------------------------------------------
# Round-trip equivalence + warm start
# ----------------------------------------------------------------------
def test_loaded_indexes_answer_identical_knn(graph250, objects250, built_store):
    cold = IndexCache(graph250)  # fresh builds, no store
    warm = IndexCache(graph250, store=built_store)  # everything from disk
    rng = np.random.default_rng(9)
    queries = [int(q) for q in rng.integers(0, graph250.num_vertices, size=8)]
    methods = cold.available_methods() + ["ier-ch", "ier-tnr", "disbrw-oh"]
    for method in methods:
        a = cold.make(method, objects250)
        b = warm.make(method, objects250)
        for q in queries:
            assert a.knn(q, 4) == b.knn(q, 4), method


def test_warm_index_has_the_built_in_memory_form(graph250, built_store):
    """A store-loaded index holds plain read-only ndarray views of the
    mapping, never ``np.memmap`` objects: scalar reads on a memmap go
    through ``memmap.__getitem__`` and made warm IER-PHL ~3x slower than
    a build of the same labels."""
    cold = IndexCache(graph250)
    warm = IndexCache(graph250, store=built_store)
    for row in warm.hub_labels.label(7):
        assert type(row) is np.ndarray
        mapping = row.base
        while type(mapping) is np.ndarray:
            mapping = mapping.base
        assert isinstance(mapping, np.memmap)  # a zero-copy view of the mapping
        assert np.shares_memory(row, mapping)
        assert not row.flags.writeable
    rng = np.random.default_rng(4)
    for s, t in rng.integers(0, graph250.num_vertices, size=(50, 2)):
        assert warm.hub_labels.distance(int(s), int(t)) == cold.hub_labels.distance(
            int(s), int(t)
        )


def _mapping_of(array):
    """The ``np.memmap`` a store-loaded array is a view of, or None."""
    base = array.base
    while base is not None and not isinstance(base, np.memmap):
        base = base.base
    return base


def test_warm_ch_and_tnr_answer_from_the_stored_arrays(graph250, built_store):
    """A store-loaded CH wraps its upward CSR around the mapped arrays
    (no per-vertex Python lists, no copies), TNR's search spaces stay
    mapped too, and both answer byte-identically to fresh builds."""
    cold = IndexCache(graph250)
    warm = IndexCache(graph250, store=built_store)
    up = warm.ch.up
    for array in (up.data, up.indices, up.indptr):
        mapping = _mapping_of(array)
        assert mapping is not None and np.shares_memory(array, mapping)
    for name in ("access_node", "access_dist", "cone_vertex", "cone_dist"):
        assert _mapping_of(getattr(warm.tnr, name)) is not None, name
    rng = np.random.default_rng(6)
    transit = warm.tnr.transit_nodes
    pairs = rng.integers(0, graph250.num_vertices, size=(40, 2)).tolist()
    pairs += [[t, int(v)] for t, v in zip(transit, rng.integers(250, size=8))]
    pairs += [[int(v), t] for t, v in zip(transit, rng.integers(250, size=8))]
    for s, t in pairs:
        for kind in ("ch", "tnr"):
            a = getattr(cold, kind).distance(s, t)
            b = getattr(warm, kind).distance(s, t)
            assert type(b) is float
            assert np.float64(a).tobytes() == np.float64(b).tobytes(), (kind, s, t)


def test_warm_start_performs_zero_builds(graph250, built_store):
    before = BUILD_COUNTERS.as_dict()
    warm = IndexCache(graph250, store=built_store)
    assert warm.prebuild(ALL_KINDS) == list(ALL_KINDS)
    assert BUILD_COUNTERS.as_dict() == before


def test_warm_hub_labels_skip_the_ch_build(graph250, built_store):
    before = BUILD_COUNTERS.as_dict()
    warm = IndexCache(graph250, store=built_store)
    warm.hub_labels
    after = BUILD_COUNTERS.as_dict()
    assert after.get("build:ch", 0) == before.get("build:ch", 0)
    assert after.get("build:hub_labels", 0) == before.get("build:hub_labels", 0)


class TestIndexKindTable:
    """``INDEX_KINDS`` is the one place each index kind is described;
    the cache, the registry and the store all read it."""

    def test_artifact_key_params_are_pinned(self, graph250):
        # Changing one of these orphans every stored artifact of the kind.
        cache = IndexCache(graph250)
        assert {kind: spec.params(cache) for kind, spec in INDEX_KINDS.items()} == {
            "gtree": {"tau": None, "seed": 0},
            "road": {"levels": None, "seed": 0},
            "silc": {"grid_bits": 11},
            "ch": {"witness_settle_limit": 40},
            "hub_labels": {"order": "ch-rank"},
            "tnr": {"num_transit": None},
        }

    def test_every_kind_is_required_and_round_trips(
        self, tmp_path, graph250, objects250
    ):
        required = {kind for spec in method_specs() for kind in spec.requires}
        assert required == set(INDEX_KINDS)
        store = IndexStore(tmp_path)
        cold = IndexCache(graph250)
        for kind, spec in INDEX_KINDS.items():
            save_index(
                store, kind, graph250, cold.index(kind), params=spec.params(cold)
            )
        before = BUILD_COUNTERS.as_dict()
        warm = IndexCache(graph250, store=store)  # every kind via load_index
        rng = np.random.default_rng(4)
        queries = [int(q) for q in rng.integers(0, graph250.num_vertices, size=6)]
        for spec in method_specs():
            if not spec.requires:
                continue
            a = cold.make(spec.name, objects250)
            b = warm.make(spec.name, objects250)
            for q in queries:
                assert a.knn(q, 4) == b.knn(q, 4), spec.name
        assert BUILD_COUNTERS.as_dict() == before

    def test_vertex_cap_through_the_generic_path(
        self, graph250, objects250, cap_silc
    ):
        cap_silc(100)
        cache = IndexCache(graph250)
        assert cache.unavailable_reason("silc").startswith(
            "SILC capped at 100 vertices (network has 250)"
        )
        assert cache.unavailable_reason("gtree") is None
        before = BUILD_COUNTERS.as_dict().get("build:silc", 0)
        assert cache.prebuild(["silc", "road"]) == ["road"]
        with pytest.raises(MethodUnavailable, match="SILC capped at"):
            cache.make("disbrw", objects250)
        with pytest.raises(MemoryError, match="SILC capped at"):
            cache.silc
        assert BUILD_COUNTERS.as_dict().get("build:silc", 0) == before

    def test_a_dependency_cap_makes_its_dependants_unavailable(
        self, graph250, monkeypatch
    ):
        monkeypatch.setitem(
            INDEX_KINDS, "ch", replace(INDEX_KINDS["ch"], max_vertices=10)
        )
        cache = IndexCache(graph250)
        for kind in ("ch", "hub_labels", "tnr"):
            assert cache.unavailable_reason(kind).startswith("CH capped at 10")
        assert cache.method_availability("ier-tnr").startswith("CH capped")
        assert cache.method_availability("ier-gt") is None
        assert cache.prebuild(["tnr", "gtree"]) == ["gtree"]

    def test_unknown_kind_is_one_message_everywhere(self, graph250):
        cache = IndexCache(graph250)
        for call in (
            lambda: cache.index("bogus"),
            lambda: cache.prebuild(["bogus"]),
            lambda: save_index(None, "bogus", graph250, None),
            lambda: load_index(None, "bogus", graph250),
        ):
            with pytest.raises(ValueError, match="unknown index kind 'bogus'"):
                call()


def test_loaded_index_reports_original_build_time(graph250, built_store):
    warm = IndexCache(graph250, store=built_store)
    info = built_store.info(
        "gtree",
        artifact_key(graph250, {"tau": None, "seed": 0}),
    )
    assert warm.gtree.build_time() == pytest.approx(info.build_time_s)


def test_cache_miss_builds_and_persists(tmp_path, graph250):
    store = IndexStore(tmp_path)
    before = BUILD_COUNTERS.as_dict().get("build:road", 0)
    cache = IndexCache(graph250, store=store)
    cache.road
    assert BUILD_COUNTERS.as_dict().get("build:road", 0) == before + 1
    assert store.contains(
        "road", artifact_key(graph250, {"levels": None, "seed": 0})
    )


def test_numpy_scalar_params_hash_and_serialize_like_python(tmp_path, graph250):
    """seed=np.int64(0) must key and persist identically to seed=0."""
    assert artifact_key(graph250, {"seed": np.int64(0)}) == artifact_key(
        graph250, {"seed": 0}
    )
    store = IndexStore(tmp_path)
    cache = IndexCache(graph250, seed=np.int64(0), store=store)
    cache.road  # manifest write must not choke on the numpy scalar
    assert store.contains(
        "road", artifact_key(graph250, {"levels": None, "seed": 0})
    )


def test_store_rejects_engine_with_foreign_workbench(tmp_path, graph250):
    from repro.engine import QueryEngine

    bench = IndexCache(graph250)
    with pytest.raises(ValueError, match="store="):
        QueryEngine(bench, [], store=IndexStore(tmp_path))


def test_engine_accepts_store(tmp_path, graph250, objects250):
    store = IndexStore(tmp_path)
    from repro.engine import QueryEngine

    engine = QueryEngine(graph250, objects250, store=store)
    result = engine.query(5, k=3, method="gtree")
    assert len(result.neighbors) == 3
    assert store.contains(
        "gtree",
        artifact_key(graph250, {"tau": None, "seed": 0}),
    )


def test_object_indexes_roundtrip_through_store(
    tmp_path, graph250, objects250, built_store
):
    """OccurrenceList/AssociationDirectory survive a store round-trip.

    Object indexes are cheap to rebuild (the paper's decoupled-indexing
    point) so the cache does not persist them automatically, but their
    ``to_arrays``/``from_arrays`` must stay faithful for callers that do.
    """
    from repro.index.gtree import OccurrenceList
    from repro.index.road import AssociationDirectory

    warm = IndexCache(graph250, store=built_store)
    store = IndexStore(tmp_path)
    params = {"density": 0.04, "seed": 3}

    ol = OccurrenceList(warm.gtree, objects250)
    store.put("occurrence_list", artifact_key(graph250, params), ol.to_arrays())
    ol2 = OccurrenceList.from_arrays(
        warm.gtree, store.get("occurrence_list", artifact_key(graph250, params))
    )
    assert list(ol2.objects) == list(ol.objects)
    for node in warm.gtree.nodes:
        assert ol2.has_objects(node.id) == ol.has_objects(node.id)
        assert ol2.children(node.id) == ol.children(node.id)

    ad = AssociationDirectory(warm.road, objects250)
    store.put("association_directory", artifact_key(graph250, params), ad.to_arrays())
    ad2 = AssociationDirectory.from_arrays(
        warm.road,
        store.get("association_directory", artifact_key(graph250, params)),
    )
    assert list(ad2.objects) == list(ad.objects)
    for rnet in warm.road.rnets:
        assert ad2.rnet_has_object(rnet.id) == ad.rnet_has_object(rnet.id)


# ----------------------------------------------------------------------
# Corruption: clear errors, never KeyError; gc reclaims
# ----------------------------------------------------------------------
def _single_entry(store):
    (entry,) = store.entries()
    return entry


def test_missing_file_raises_store_corruption(tiny_store):
    store, graph = tiny_store
    entry = _single_entry(store)
    _delete_payload(store.root / entry.file)
    with pytest.raises(StoreCorruption) as excinfo:
        load_index(store, "road", graph, params={"levels": None, "seed": 0})
    assert not isinstance(excinfo.value, KeyError)
    assert "store gc" in str(excinfo.value)


def test_cache_miss_path_quarantines_corruption(tiny_store):
    """A store-backed cache quarantines a damaged artifact and rebuilds.

    The raw store API (previous test) keeps raising — corruption is
    never silent — but the index cache's job is to serve queries, so it
    drops the bad manifest entry, counts the quarantine event, rebuilds
    and re-saves rather than crashing the query path.
    """
    from repro.resilience import quarantine_counts, reset_quarantine_counts

    store, graph = tiny_store
    entry = _single_entry(store)
    _corrupt_payload(store.root / entry.file)
    reset_quarantine_counts()
    try:
        road = IndexCache(graph, store=store).road
        assert road is not None
        assert quarantine_counts(store.root) == {"road": 1}
        # The damaged payload is kept for post-mortem, layout intact...
        (kept,) = (store.root / "quarantine").iterdir()
        assert kept.name == entry.file
        # ...and the rebuild re-saved a fresh (flat) artifact under the
        # same key, whatever layout the damaged one had.
        (fresh,) = store.entries()
        assert (fresh.kind, fresh.key, fresh.format) == ("road", entry.key, "flat")
        load_index(store, "road", graph, params={"levels": None, "seed": 0})
        # A payload that is simply gone heals the same way.
        _delete_payload(store.root / fresh.file)
        assert IndexCache(graph, store=store).road is not None
        assert quarantine_counts(store.root) == {"road": 2}
        load_index(store, "road", graph, params={"levels": None, "seed": 0})
    finally:
        reset_quarantine_counts()


def test_version_mismatch_raises_store_corruption(tiny_store):
    store, graph = tiny_store
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for record in manifest["artifacts"].values():
        record["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruption) as excinfo:
        load_index(store, "road", graph, params={"levels": None, "seed": 0})
    assert f"v{FORMAT_VERSION + 1}" in str(excinfo.value)


def test_shape_mismatch_raises_store_corruption(tiny_store):
    store, graph = tiny_store
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for record in manifest["artifacts"].values():
        record["shapes"]["leaf_of"] = [1]
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(StoreCorruption) as excinfo:
        load_index(store, "road", graph, params={"levels": None, "seed": 0})
    assert "shape" in str(excinfo.value)


def test_gc_reclaims_missing_version_mismatch_and_orphans(tiny_store):
    store, graph = tiny_store
    entry = _single_entry(store)
    # Sabotage 1: delete the artifact payload behind the manifest entry.
    _delete_payload(store.root / entry.file)
    # Sabotage 2: orphaned payloads no manifest entry references — one
    # of each layout, since gc must sweep stray directories too.
    (store.root / "stray-deadbeef.npz").write_bytes(b"not a zip")
    stray_dir = store.root / "stray-cafebabe.flat"
    stray_dir.mkdir()
    (stray_dir / "x.npy").write_bytes(b"not an npy")
    removed = store.gc()
    reasons = dict(removed)
    assert reasons[entry.artifact_id] == "missing artifact file"
    assert reasons["stray-deadbeef.npz"] == "orphaned file"
    assert reasons["stray-cafebabe.flat"] == "orphaned file"
    assert not stray_dir.exists()
    assert store.entries() == []
    # After gc the store is a clean miss again, so the cache rebuilds.
    bench = IndexCache(graph, store=store)
    bench.road
    assert len(store.entries()) == 1


def test_gc_dry_run_removes_nothing(tiny_store):
    store, _ = tiny_store
    entry = _single_entry(store)
    _delete_payload(store.root / entry.file)
    removed = store.gc(dry_run=True)
    assert removed  # reported...
    assert len(store.entries()) == 1  # ...but manifest untouched


def test_gc_dry_run_report_matches_real_removal(tiny_store):
    store, _ = tiny_store
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    for record in manifest["artifacts"].values():
        record["format_version"] = FORMAT_VERSION + 1
    manifest_path.write_text(json.dumps(manifest))
    reported = store.gc(dry_run=True)
    removed = store.gc()
    assert reported == removed  # no double-counting of condemned files


def test_gc_sweeps_interrupted_writes_but_spares_live_ones(tiny_store):
    import os
    import time

    from repro.store.store import TMP_SWEEP_AGE_S

    store, _ = tiny_store
    stale = store.root / "gtree-cafebabe.npz.tmp"
    live = store.root / "road-12345678.npz.tmp"
    stale.write_bytes(b"partial")
    live.write_bytes(b"partial")
    old = time.time() - TMP_SWEEP_AGE_S - 60
    os.utime(stale, (old, old))
    removed = dict(store.gc())
    assert removed["gtree-cafebabe.npz.tmp"] == "interrupted write"
    assert not stale.exists()
    # A fresh .tmp may be another process's in-flight save: untouched.
    assert "road-12345678.npz.tmp" not in removed
    assert live.exists()
    live.unlink()


def test_store_expands_user_paths_and_creates_lazily(tmp_path, monkeypatch):
    monkeypatch.setenv("HOME", str(tmp_path))
    store = IndexStore("~/cache/repro-store")
    assert store.root == tmp_path / "cache" / "repro-store"
    assert not store.root.exists()  # read-only use must not mkdir
    store.put("objects", "00" * 8, {"objects": np.arange(3)})
    assert store.root.is_dir()


def test_entries_skip_foreign_format_records(tiny_store):
    """`store ls` survives (and gc reclaims) future-format entries."""
    store, _ = tiny_store
    manifest_path = store.root / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    (record,) = manifest["artifacts"].values()
    record["format_version"] = FORMAT_VERSION + 1
    record["compression"] = "zstd"  # a field this build has never seen
    manifest["artifacts"]["future-0000"] = dict(record)
    manifest_path.write_text(json.dumps(manifest))
    assert store.entries() == []  # skipped, not TypeError
    assert store.stale_entry_count() == 2  # ...but not hidden from ls
    assert store.gc()  # and reclaimable


def test_cli_store_ls_rejects_missing_path(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "store")
    assert cli.main(["store", "ls", "--store", missing]) == 2
    assert "no store at" in capsys.readouterr().err
    assert not (tmp_path / "no").exists()  # inspection must not mkdir
    assert cli.main(["store", "gc", "--store", ""]) == 2
    assert "no store at" in capsys.readouterr().err


def test_cli_quarantines_store_corruption_and_answers(tmp_path, capsys):
    """``query`` over a corrupted store heals: quarantine, rebuild, answer.

    The damaged artifact is preserved under ``<store>/quarantine/`` for
    post-mortem rather than deleted, and the query exits 0 with the same
    answer a fresh store would give.
    """
    store_dir = str(tmp_path / "corrupt")
    base = ["--vertices", "120", "--seed", "5"]
    assert cli.main(["build", *base, "--store", store_dir,
                     "--indexes", "road"]) == 0
    capsys.readouterr()
    store = IndexStore(store_dir)
    victim = next(e for e in store.entries() if e.kind == "road")
    _corrupt_payload(store.root / victim.file)
    code = cli.main(["query", *base, "--store", store_dir, "--k", "3",
                     "--methods", "road"])
    assert code == 0
    out = capsys.readouterr().out
    assert "road" in out
    (quarantined,) = (store.root / "quarantine").glob("*.flat")
    assert any(
        member.read_bytes().startswith(b"garbage")
        for member in quarantined.iterdir()
    )
    # The rebuild re-saved a healthy replacement under the same key.
    fresh = next(e for e in store.entries() if e.kind == "road")
    assert (store.root / fresh.file).exists()


def test_gc_repairs_unreadable_manifest(tiny_store):
    store, graph = tiny_store
    (store.root / "manifest.json").write_text("{not json")
    with pytest.raises(StoreCorruption):
        store.entries()
    removed = dict(store.gc())
    assert removed["manifest.json"] == "unreadable manifest"
    assert store.entries() == []  # fresh manifest written
    IndexCache(graph, store=store).road  # store is usable again
    assert len(store.entries()) == 1


def test_gc_repairs_wrong_shape_manifest_and_malformed_entries(tiny_store):
    store, _ = tiny_store
    # Valid JSON, wrong shape (e.g. mangled by another tool).
    (store.root / "manifest.json").write_text("[1, 2, 3]")
    with pytest.raises(StoreCorruption):
        store.entries()
    assert dict(store.gc())["manifest.json"] == "unreadable manifest"
    # An entry lacking the 'file' field must not KeyError out of gc.
    (store.root / "manifest.json").write_text(json.dumps({
        "format_version": FORMAT_VERSION,
        "artifacts": {"future-0000": {"format_version": FORMAT_VERSION + 1}},
    }))
    assert dict(store.gc())["future-0000"] == "malformed manifest entry"
    assert store.entries() == []


def test_cli_query_warm_starts_from_build_with_same_seed(tmp_path, capsys):
    store_dir = str(tmp_path / "seeded")
    base = ["--vertices", "150", "--seed", "7"]
    assert cli.main(["build", *base, "--store", store_dir,
                     "--indexes", "gtree"]) == 0
    capsys.readouterr()
    before = BUILD_COUNTERS.as_dict().get("build:gtree", 0)
    assert cli.main(["query", *base, "--store", store_dir, "--k", "3",
                     "--methods", "gtree"]) == 0
    assert BUILD_COUNTERS.as_dict().get("build:gtree", 0) == before


def test_gc_clear_empties_the_store(tiny_store):
    store, _ = tiny_store
    removed = store.gc(clear=True)
    assert removed
    assert store.entries() == []
    assert list(store.root.glob("*.npz")) == []
    assert list(store.root.glob("*.flat")) == []


def test_gc_reclaims_unreadable_artifact_payload(tiny_store):
    """gc removes exactly what load refuses to serve (garbage payload)."""
    store, graph = tiny_store
    entry = _single_entry(store)
    _corrupt_payload(store.root / entry.file)
    removed = dict(store.gc())
    assert removed[entry.artifact_id] == "unreadable artifact file"
    assert store.entries() == []
    IndexCache(graph, store=store).road  # clean miss -> rebuild + persist
    assert len(store.entries()) == 1


def test_unreadable_artifact_file_raises_store_corruption(tiny_store):
    store, graph = tiny_store
    entry = _single_entry(store)
    _corrupt_payload(store.root / entry.file)
    with pytest.raises(StoreCorruption) as excinfo:
        load_index(store, "road", graph, params={"levels": None, "seed": 0})
    assert "unreadable" in str(excinfo.value)


# ----------------------------------------------------------------------
# CLI: build / store ls / store gc
# ----------------------------------------------------------------------
def test_cli_build_ls_gc_cycle(tmp_path, capsys):
    store_dir = str(tmp_path / "cli-store")
    base = ["--vertices", "150", "--seed", "2"]
    assert cli.main(["build", *base, "--store", store_dir,
                     "--indexes", "road", "gtree",
                     "--density", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "road" in out and "built" in out

    # Second build warm-starts from disk.
    assert cli.main(["build", *base, "--store", store_dir,
                     "--indexes", "road", "gtree"]) == 0
    assert "loaded" in capsys.readouterr().out

    assert cli.main(["store", "ls", "--store", store_dir]) == 0
    out = capsys.readouterr().out
    assert "gtree" in out and "objects" in out and "graph" in out

    # Clean store: gc is a no-op...
    assert cli.main(["store", "gc", "--store", store_dir]) == 0
    assert "nothing to collect" in capsys.readouterr().out

    # ...and a store-backed query answers correctly.
    assert cli.main(["query", *base, "--store", store_dir, "--k", "3",
                     "--methods", "gtree", "road"]) == 0
    assert "all methods agree" in capsys.readouterr().out

    # Sabotaged store: gc reports and removes.
    store = IndexStore(store_dir)
    victim = next(e for e in store.entries() if e.kind == "road")
    _delete_payload(store.root / victim.file)
    assert cli.main(["store", "gc", "--store", store_dir]) == 0
    assert "missing artifact file" in capsys.readouterr().out


def test_cli_build_requires_known_methods(tmp_path, capsys):
    assert cli.main(["build", "--vertices", "120",
                     "--store", str(tmp_path / "s"),
                     "--methods", "nosuch"]) == 2
    assert "unknown method" in capsys.readouterr().err


def test_cli_build_auto_prewarms_main_methods(tmp_path, capsys):
    """`build --methods auto` must persist indexes, not just the graph."""
    store_dir = str(tmp_path / "auto")
    assert cli.main(["build", "--vertices", "150", "--store", store_dir,
                     "--methods", "auto"]) == 0
    out = capsys.readouterr().out
    assert "ch" in out and "hub_labels" in out and "gtree" in out
    kinds = {e.kind for e in IndexStore(store_dir).entries()}
    assert {"gtree", "road", "ch", "hub_labels"} <= kinds


def test_cli_build_times_hub_labels_separately_from_ch(tmp_path, capsys):
    """The CH contraction gets its own line, not folded into hub_labels."""
    store_dir = str(tmp_path / "phl")
    assert cli.main(["build", "--vertices", "150", "--store", store_dir,
                     "--methods", "ier-phl"]) == 0
    out = capsys.readouterr().out
    assert out.index("  ch ") < out.index("  hub_labels")


def test_cli_build_requires_known_index_kinds(tmp_path, capsys):
    assert cli.main(["build", "--vertices", "120",
                     "--store", str(tmp_path / "s"),
                     "--indexes", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown index kind" in err and "gtree" in err


def test_hierarchy_index_artifact_layouts_are_pinned(graph250):
    """``GTree`` / ``RoadIndex`` artifacts written by any earlier build
    must keep loading, so the ``to_arrays`` key sets (and what
    ``from_arrays`` therefore reads) are frozen here; both share the
    topology half that ``repro.index.hierarchy`` writes."""
    from repro.index.gtree import GTree
    from repro.index.road import RoadIndex

    def with_offsets(*names):
        return {n for name in names for n in (name, f"{name}_off")}

    topology = {
        "parent", "level", "leaf_lo", "leaf_hi", "leaf_of", "leaf_index_of",
        "build_time", "fanout",
    } | with_offsets("children", "vertices", "borders")
    gtree = GTree(graph250).to_arrays()
    assert set(gtree) == topology | with_offsets(
        "child_borders", "pos_in_parent", "own_border_pos", "matrix"
    ) | {"matrix_shape", "tau", "matrix_backend"}
    road = RoadIndex(graph250).to_arrays()
    assert set(road) == topology | with_offsets("shortcut") | {
        "shortcut_shape", "interior_size", "levels",
    }
    for arrays, prefix in ((gtree, "matrix"), (road, "shortcut")):
        n = len(arrays["parent"])
        assert arrays[f"{prefix}_shape"].shape == (n, 2)
        assert arrays[prefix].dtype == np.float64
        for name in ("parent", "children", "vertices", "borders", "leaf_of"):
            assert arrays[name].dtype == np.int64, name
