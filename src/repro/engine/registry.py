"""Pluggable kNN method registry.

Every query method the engine can run is declared here as a
:class:`MethodSpec`: a constructor and the index kinds it needs.  A method
can run wherever every kind it ``requires`` is available (SILC's vertex
cap lives in :data:`repro.store.INDEX_KINDS`).  Adding a sixth method is
one decorated function, no core edits:

    from repro.engine import register_method

    @register_method("mymethod", summary="my kNN method",
                     requires=("gtree",))
    def _build_mymethod(bench, objects, **kwargs):
        return MyKNN(bench.gtree, objects, **kwargs)

after which ``"mymethod"`` works everywhere a method name is accepted —
``QueryEngine.query``, ``IndexCache.make``, the CLI's ``--methods`` flag.

Builders receive the :class:`IndexCache` as their first argument
and use its lazy properties (``bench.graph``, ``bench.gtree``,
``bench.hub_labels``, ...), so indexes are built once and shared across
methods.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.index.gtree import GTreeOracle
from repro.knn.base import KNNAlgorithm
from repro.knn.distance_browsing import DistanceBrowsing
from repro.knn.gtree_knn import GTreeKNN
from repro.knn.ier import IER
from repro.knn.ine import INE
from repro.knn.road_knn import RoadKNN
from repro.pathfinding.dijkstra import DijkstraOracle
from repro.reference import ReferenceINE


class MethodUnavailable(RuntimeError):
    """A registered method cannot run on this workbench.

    Carries the ``method`` name and the human-readable ``reason`` (e.g.
    "SILC capped at 9000 vertices ...") instead of a bare ``MemoryError``
    from deep inside an index constructor.
    """

    def __init__(self, method: str, reason: str) -> None:
        super().__init__(f"method {method!r} unavailable: {reason}")
        self.method = method
        self.reason = reason


class UnknownMethod(ValueError):
    """An unregistered method name; lists the registered ones."""

    def __init__(self, method: str, known: Sequence[str]) -> None:
        super().__init__(
            f"unknown method {method!r}; known methods: {', '.join(known)}"
        )
        self.method = method
        self.known = tuple(known)


@dataclass(frozen=True)
class MethodSpec:
    """Declaration of one query method."""

    name: str
    builder: Callable[..., KNNAlgorithm]
    summary: str = ""
    requires: Tuple[str, ...] = ()
    #: Position in the paper's main-comparison lineup (None = auxiliary
    #: variant that is constructible but not part of the default set).
    main_rank: Optional[int] = None

    def availability(self, bench) -> Optional[str]:
        """``None`` if runnable on ``bench`` — every required index kind
        is available there — else the first reason one is not."""
        for kind in self.requires:
            reason = bench.unavailable_reason(kind)
            if reason is not None:
                return reason
        return None

    def create(self, bench, objects: Sequence[int], **kwargs) -> KNNAlgorithm:
        reason = self.availability(bench)
        if reason is not None:
            raise MethodUnavailable(self.name, reason)
        return self.builder(bench, objects, **kwargs)


_REGISTRY: Dict[str, MethodSpec] = {}


def register_method(
    name: str,
    *,
    summary: str = "",
    requires: Sequence[str] = (),
    main_rank: Optional[int] = None,
    replace: bool = False,
) -> Callable[[Callable[..., KNNAlgorithm]], Callable[..., KNNAlgorithm]]:
    """Decorator registering ``builder(bench, objects, **kwargs)`` under ``name``."""

    def decorator(builder: Callable[..., KNNAlgorithm]):
        if name in _REGISTRY and not replace:
            raise ValueError(f"method {name!r} already registered")
        _REGISTRY[name] = MethodSpec(
            name=name,
            builder=builder,
            summary=summary,
            requires=tuple(requires),
            main_rank=main_rank,
        )
        return builder

    return decorator


def unregister_method(name: str) -> None:
    """Remove a method (tests and plugin teardown)."""
    _REGISTRY.pop(name, None)


def get_method(name: str) -> MethodSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownMethod(name, known_methods()) from None


def known_methods() -> List[str]:
    """All registered method names, in registration order."""
    return list(_REGISTRY)


def method_specs() -> List[MethodSpec]:
    return list(_REGISTRY.values())


def create_method(bench, name: str, objects: Sequence[int], **kwargs) -> KNNAlgorithm:
    """Construct method ``name`` on ``bench`` (raises on unknown/unavailable)."""
    return get_method(name).create(bench, objects, **kwargs)


def available_methods(bench) -> List[str]:
    """The paper's main-comparison methods runnable on this workbench."""
    main = sorted(
        (s for s in _REGISTRY.values() if s.main_rank is not None),
        key=lambda s: s.main_rank,
    )
    return [spec.name for spec in main if spec.availability(bench) is None]


# ----------------------------------------------------------------------
# Built-in methods (the paper's five, plus IER oracle variants)
# ----------------------------------------------------------------------
@register_method(
    "ine",
    summary="Incremental Network Expansion (Dijkstra-style, no road index)",
    main_rank=0,
)
def _build_ine(bench, objects, **kwargs):
    return INE(bench.graph, objects, **kwargs)


@register_method(
    "gtree",
    summary="G-tree hierarchy traversal with occurrence lists",
    requires=("gtree",),
    main_rank=2,
)
def _build_gtree(bench, objects, **kwargs):
    return GTreeKNN(bench.gtree, objects, **kwargs)


@register_method(
    "road",
    summary="ROAD expansion with Rnet bypassing",
    requires=("road",),
    main_rank=1,
)
def _build_road(bench, objects, **kwargs):
    return RoadKNN(bench.road, objects, **kwargs)


@register_method(
    "disbrw",
    summary="Distance Browsing over SILC (DB-ENN candidates)",
    requires=("silc",),
    main_rank=5,
)
def _build_disbrw(bench, objects, **kwargs):
    return DistanceBrowsing(bench.silc, objects, **kwargs)


@register_method(
    "disbrw-oh",
    summary="Distance Browsing over SILC (Object Hierarchy candidates)",
    requires=("silc",),
)
def _build_disbrw_oh(bench, objects, **kwargs):
    return DistanceBrowsing(
        bench.silc, objects, candidate_source="hierarchy", **kwargs
    )


@register_method(
    "ier-dijk",
    summary="IER with a plain Dijkstra oracle (the original, VLDB 2003)",
)
def _build_ier_dijk(bench, objects, **kwargs):
    return IER(bench.graph, objects, DijkstraOracle(bench.graph), **kwargs)


@register_method(
    "ier-gt",
    summary="IER with a materialized G-tree oracle (MGtree)",
    requires=("gtree",),
    main_rank=3,
)
def _build_ier_gt(bench, objects, **kwargs):
    return IER(bench.graph, objects, GTreeOracle(bench.gtree), **kwargs)


@register_method(
    "ier-phl",
    summary="IER with hub labels (the PHL stand-in; paper's overall winner)",
    requires=("hub_labels",),
    main_rank=4,
)
def _build_ier_phl(bench, objects, **kwargs):
    return IER(bench.graph, objects, bench.hub_labels, **kwargs)


@register_method(
    "ier-ch",
    summary="IER with Contraction Hierarchies",
    requires=("ch",),
)
def _build_ier_ch(bench, objects, **kwargs):
    return IER(bench.graph, objects, bench.ch, **kwargs)


@register_method(
    "ier-tnr",
    summary="IER with Transit Node Routing",
    requires=("tnr",),
)
def _build_ier_tnr(bench, objects, **kwargs):
    return IER(bench.graph, objects, bench.tnr, **kwargs)


#: The engine's terminal degradation rung (see
#: :meth:`QueryEngine.fallback_chain`): needs no prebuilt index and shares
#: no code path with the kernels, so it can always answer — just slowly.
TERMINAL_METHOD = "ine-graph"


@register_method(
    TERMINAL_METHOD,
    summary="INE on the per-edge reference loop (the paper's Fig. 7 "
            "'Graph' rung; the terminal degradation rung)",
)
def _build_ine_graph(bench, objects, **kwargs):
    return ReferenceINE(bench.graph, objects, **kwargs)
