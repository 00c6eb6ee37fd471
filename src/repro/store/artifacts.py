"""Index kinds: every per-index fact in one table.

Each road-network index the engine's :class:`IndexCache` can hold has an
``IndexKind`` record here: its class, its build parameters (which double
as the store artifact key), the kinds it rides on and, for SILC, the
largest network it is built for.  ``IndexCache`` is a generic memo over
this table, the registry derives method availability from it, and the
CLI ``build`` command and the warm-start path go through
:func:`load_index` / :func:`save_index` — so the set of index kinds and
everything about each lives in exactly one place.

Graphs and object sets get the same treatment (``save_graph`` /
``load_graph``, ``save_objects`` / ``load_objects``): a store directory
is a self-contained experiment input, not just an index cache.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs

from repro.graph.graph import Graph
from repro.index.gtree import GTree
from repro.index.road import RoadIndex
from repro.index.silc import SILCIndex
from repro.pathfinding.ch import ContractionHierarchy
from repro.pathfinding.hub_labels import HubLabels
from repro.pathfinding.tnr import TransitNodeRouting
from repro.store.store import IndexStore, artifact_key


@dataclass(frozen=True)
class IndexKind:
    """Everything the engine knows about one index kind."""

    name: str
    #: Built as ``cls(graph, **params, **deps)``, loaded as
    #: ``cls.from_arrays(graph, arrays, **deps)``.
    cls: type
    #: ``params(cache) -> dict``: the constructor keyword arguments, which
    #: are also the artifact-key parameters, so the two cannot disagree.
    params: Callable[[object], Dict[str, object]]
    #: Kinds passed by name to both the constructor and ``from_arrays``
    #: (TNR rides on a CH that is its own artifact).
    depends: Tuple[str, ...] = ()
    #: Kinds only the *builder* draws on (hub labels order from the CH
    #: rank); a warm load does not need them, but prebuild tooling
    #: obtains them first so per-kind build timings stay honest.
    build_depends: Tuple[str, ...] = ()
    #: ``build(cache) -> index`` when construction is more than the
    #: constructor call above.
    build: Optional[Callable[[object], object]] = None
    #: Largest network the kind is built for (``None``: no cap).
    max_vertices: Optional[int] = None


def _hub_labels_in_ch_order(cache) -> HubLabels:
    return HubLabels(cache.graph, order=list(np.argsort(-cache.ch.rank)))


INDEX_KINDS: Dict[str, IndexKind] = {
    "gtree": IndexKind(
        "gtree", GTree, lambda c: {"tau": c.tau, "seed": c.seed}
    ),
    "road": IndexKind(
        "road", RoadIndex, lambda c: {"levels": c.road_levels, "seed": c.seed}
    ),
    # SILC requires all-pairs work; like the paper (which could build
    # DisBrw only on the five smallest datasets) we cap the network size
    # it is built for.
    "silc": IndexKind(
        "silc", SILCIndex, lambda c: {"grid_bits": 11}, max_vertices=9000
    ),
    "ch": IndexKind(
        "ch", ContractionHierarchy, lambda c: {"witness_settle_limit": 40}
    ),
    "hub_labels": IndexKind(
        "hub_labels", HubLabels, lambda c: {"order": "ch-rank"},
        build_depends=("ch",), build=_hub_labels_in_ch_order,
    ),
    "tnr": IndexKind(
        "tnr", TransitNodeRouting,
        lambda c: {"num_transit": None},
        depends=("ch",),
    ),
}


def _spec(kind: str) -> IndexKind:
    try:
        return INDEX_KINDS[kind]
    except KeyError:
        raise ValueError(
            f"unknown index kind {kind!r}; persistable kinds: "
            f"{', '.join(INDEX_KINDS)}"
        ) from None


def expand_kinds(kinds: Sequence[str]) -> list:
    """Dependency-closed, dependency-first ordering of index kinds.

    Both ``depends`` (TNR rides on a CH artifact) and ``build_depends``
    (hub labels draw their order from the CH rank) come before their
    dependents, so prebuild tooling obtains each kind exactly once and
    per-kind build timings reflect only that kind's own work.
    """
    out: list = []

    def add(kind: str) -> None:
        spec = _spec(kind)
        for dep in (*spec.depends, *spec.build_depends):
            add(dep)
        if kind not in out:
            out.append(kind)

    for kind in kinds:
        add(kind)
    return out


def save_index(
    store: IndexStore,
    kind: str,
    graph: Graph,
    index,
    params: Optional[Dict[str, object]] = None,
):
    """Persist ``index`` (which must expose ``to_arrays``/``build_time``)."""
    _spec(kind)
    key = artifact_key(graph, params)
    start = time.perf_counter()
    record = store.put(
        kind,
        key,
        index.to_arrays(),
        build_time_s=index.build_time(),
        params=params,
    )
    reg = obs.REGISTRY
    if reg.enabled:
        reg.histogram(
            "artifact_save_seconds", "index artifact save time", kind=kind
        ).observe(time.perf_counter() - start)
    return record


def load_index(
    store: IndexStore,
    kind: str,
    graph: Graph,
    params: Optional[Dict[str, object]] = None,
    deps: Optional[Dict[str, object]] = None,
):
    """Load the ``kind`` index built for (graph, params) from the store.

    Raises :class:`~repro.store.store.ArtifactMissing` on a clean miss
    and :class:`~repro.store.store.StoreCorruption` when the store is
    damaged.
    """
    spec = _spec(kind)
    deps = deps or {}
    missing = [d for d in spec.depends if d not in deps]
    if missing:
        raise ValueError(
            f"loading {kind!r} requires deps: {', '.join(missing)}"
        )
    start = time.perf_counter()
    arrays = store.get(kind, artifact_key(graph, params))
    index = spec.cls.from_arrays(
        graph, arrays, **{d: deps[d] for d in spec.depends}
    )
    reg = obs.REGISTRY
    if reg.enabled:
        reg.histogram(
            "artifact_load_seconds", "index artifact load time", kind=kind
        ).observe(time.perf_counter() - start)
    return index


# ----------------------------------------------------------------------
# Graphs and object sets
# ----------------------------------------------------------------------
def save_graph(store: IndexStore, graph: Graph):
    """Persist the CSR graph itself, keyed by its own content hash."""
    return store.put("graph", artifact_key(graph), graph.to_arrays())


def load_graph(store: IndexStore, key: str) -> Graph:
    return Graph.from_arrays(store.get("graph", key))


def save_objects(
    store: IndexStore,
    graph: Graph,
    objects: Sequence[int],
    params: Optional[Dict[str, object]] = None,
):
    """Persist an object (POI) vertex set for ``graph``."""
    key = artifact_key(graph, params)
    return store.put(
        "objects",
        key,
        {"objects": np.asarray(list(objects), dtype=np.int64)},
        params=params,
    )


def load_objects(
    store: IndexStore, graph: Graph, params: Optional[Dict[str, object]] = None
) -> np.ndarray:
    return np.asarray(
        store.get("objects", artifact_key(graph, params))["objects"],
        dtype=np.int64,
    )
