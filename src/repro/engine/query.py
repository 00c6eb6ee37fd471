"""Structured query/response objects for the :class:`QueryEngine` API.

The kNN algorithm classes keep returning bare ``[(distance, vertex), ...]``
lists — that is the hot-path representation the paper's measurements time.
At the service boundary the engine wraps them in :class:`KNNResult`, a
record that adds provenance (which method actually ran), per-query
:class:`Counters`, wall-clock time and optionally the reconstructed
shortest paths.  Read the answer from ``.neighbors`` (each
:class:`Neighbor` unpacks as ``(distance, vertex)``), ``.distances`` or
``.vertices``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator, List, Optional, Sequence, Tuple, Union

from repro.utils.counters import Counters


@dataclass(frozen=True)
class KNNQuery:
    """One kNN request: a query vertex, ``k`` and a method choice.

    ``method`` may be any registry name or ``"auto"`` (the default), in
    which case the engine's planner picks one from the workload's object
    density — INE at or above the crossover threshold, an IER/G-tree
    method below it (see :mod:`repro.engine.planner`).  With
    ``with_paths=True`` the engine attaches the reconstructed shortest
    path to every returned :class:`Neighbor`.
    """

    vertex: int
    k: int
    method: str = "auto"
    with_paths: bool = False


@dataclass(frozen=True, order=True)
class Neighbor:
    """One result entry; unpacks as ``(distance, vertex)``."""

    distance: float
    vertex: int
    path: Optional[Tuple[int, ...]] = field(
        default=None, compare=False, repr=False
    )

    def __iter__(self) -> Iterator[Union[float, int]]:
        return iter((self.distance, self.vertex))

    def as_tuple(self) -> Tuple[float, int]:
        return (self.distance, self.vertex)


@dataclass(eq=False)
class KNNResult:
    """A kNN answer with provenance, counters and timing."""

    query: KNNQuery
    method: str
    neighbors: Tuple[Neighbor, ...]
    counters: Counters
    time_s: float
    #: True when the answer came from a fallback method because the
    #: planner's choice failed (or was avoided by an open circuit
    #: breaker).  The answer is still exact — every method is — but the
    #: provenance differs from a healthy run.
    degraded: bool = False
    #: The method the planner resolved that this result degraded *from*
    #: (``None`` on a healthy, non-degraded result).
    fallback_from: Optional[str] = None

    @property
    def distances(self) -> List[float]:
        return [n.distance for n in self.neighbors]

    @property
    def vertices(self) -> List[int]:
        return [n.vertex for n in self.neighbors]

    @property
    def time_us(self) -> float:
        return self.time_s * 1e6

    def __repr__(self) -> str:
        shown = ", ".join(f"v{n.vertex}@{n.distance:.2f}" for n in self.neighbors)
        return (
            f"KNNResult(method={self.method!r}, k={self.query.k}, "
            f"[{shown}], {self.time_us:.0f}us)"
        )


def normalise_query(
    query: Union[int, KNNQuery],
    k: Optional[int] = None,
    method: Optional[str] = None,
    with_paths: Optional[bool] = None,
) -> KNNQuery:
    """Build a :class:`KNNQuery` from a vertex id or an existing query.

    Explicitly passed ``k`` / ``method`` / ``with_paths`` override the
    corresponding fields of an existing :class:`KNNQuery` (``None`` means
    "not specified", so the query's own fields win).
    """
    if isinstance(query, KNNQuery):
        return replace(
            query,
            **{
                name: value
                for name, value in (
                    ("k", k), ("method", method), ("with_paths", with_paths)
                )
                if value is not None
            },
        )
    if k is None:
        raise ValueError("k is required when the query is a bare vertex id")
    return KNNQuery(
        int(query),
        int(k),
        method="auto" if method is None else method,
        with_paths=bool(with_paths),
    )


def as_queries(
    queries: Sequence[Union[int, KNNQuery]],
    k: Optional[int] = None,
    method: Optional[str] = None,
    with_paths: Optional[bool] = None,
) -> List[KNNQuery]:
    """Normalise a workload via :func:`normalise_query` per entry."""
    return [normalise_query(q, k, method, with_paths) for q in queries]
