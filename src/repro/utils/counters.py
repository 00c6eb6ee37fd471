"""Opt-in instrumentation counters.

Several of the paper's figures report algorithm-internal statistics rather
than wall-clock time — Figure 9(b) plots G-tree "path cost" (the number of
border-to-border distance-matrix computations) against the number of
vertices ROAD bypasses; Table 3 profiles memory accesses.  Algorithms in
this library accept an optional :class:`Counters` and record into it; the
shared :data:`NULL_COUNTERS` sentinel records nothing, so un-instrumented
benchmark runs pay a single attribute read per event site.
"""

from __future__ import annotations

from typing import Dict

#: Counter names follow a documented ``<phase>_<what>`` scheme
#: (see docs/performance.md): the *phase* names the algorithm stage doing
#: the work (``expand`` — incremental network expansion; ``sssp`` —
#: bounded single-source searches; ``bidir`` — bidirectional upward CH
#: searches; ``leaf``/``matrix`` — G-tree leaf search and border-matrix
#: ops; ``euclid``/``verify`` — IER candidate generation and network
#: verification; ``interval``/``browse`` — SILC interval lookups and
#: distance browsing; ``table``/``local`` — TNR table hits and local
#: fallbacks; ``label`` — hub-label scans), and the *what* names the
#: event.


class Counters:
    """Mutable bag of named event counters; an unrecorded name reads 0.

    >>> c = Counters()
    >>> c.add("heap_pops"); c.add("heap_pops", 2)
    >>> c["heap_pops"]
    3
    >>> c["expand_settled"]
    0
    """

    __slots__ = ("enabled", "_counts")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counts: Dict[str, int] = {}

    def add(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self._counts[name] = self._counts.get(name, 0) + amount

    def __getitem__(self, name: str) -> int:
        return self._counts.get(name, 0)

    def reset(self) -> None:
        self._counts.clear()

    def as_dict(self) -> Dict[str, int]:
        return dict(self._counts)

    def __repr__(self) -> str:
        body = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"Counters({body})"


#: Shared disabled counters; used as default everywhere.
NULL_COUNTERS = Counters(enabled=False)

#: Process-wide build-event counters.  Every road-network index records a
#: ``build:<name>`` event when it runs its (expensive) constructor, and
#: *not* when it is rehydrated via ``from_arrays`` — which is how the
#: store tests assert that a warm-started ``IndexCache`` performs zero
#: index builds.
BUILD_COUNTERS = Counters()
