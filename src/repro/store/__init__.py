"""Persistent, versioned on-disk store for build products.

Separates the paper's expensive preprocessing (Fig. 8 / Fig. 26) from
the latency-critical query path: indexes are built once, serialized to
content-addressed ``flat`` artifacts (memory-mapped on load), and every
later ``IndexCache`` / ``QueryEngine`` / benchmark run warm-starts from
disk.

Typical use::

    from repro import QueryEngine, road_network, uniform_objects
    from repro.store import IndexStore

    store = IndexStore("~/.cache/repro")      # any directory
    graph = road_network(2000, seed=7)
    engine = QueryEngine(graph, uniform_objects(graph, 0.01), store=store)
    engine.query(0, k=5, method="gtree")      # first run builds + saves
    # ... new process, same store: loads in milliseconds, zero builds

CLI equivalents: ``repro build`` (prebuild + save), ``repro store ls``,
``repro store gc``.
"""

from repro.store.store import (
    FORMAT_VERSION,
    ArtifactInfo,
    ArtifactMissing,
    IndexStore,
    StoreCorruption,
    StoreError,
    artifact_key,
)
from repro.store.artifacts import (
    INDEX_KINDS,
    IndexKind,
    expand_kinds,
    load_graph,
    load_index,
    load_objects,
    save_graph,
    save_index,
    save_objects,
)

__all__ = [
    "IndexStore",
    "ArtifactInfo",
    "ArtifactMissing",
    "StoreCorruption",
    "StoreError",
    "FORMAT_VERSION",
    "artifact_key",
    "INDEX_KINDS",
    "IndexKind",
    "expand_kinds",
    "save_index",
    "load_index",
    "save_graph",
    "load_graph",
    "save_objects",
    "load_objects",
]
