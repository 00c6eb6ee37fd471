"""LRU result cache for served kNN answers.

The paper's measurements make queries cheap but not free — hundreds of
microseconds to milliseconds each.  Real request streams are heavily
skewed (a few hot POIs and junctions absorb most traffic), so a serving
layer caches *answers*, keyed on everything that determines one:

    (graph fingerprint, object-set fingerprint, query vertex, k, method)

The graph fingerprint covers topology + weights + coordinates (see
:meth:`repro.graph.graph.Graph.fingerprint`), the object-set fingerprint
covers the POI ids, so an engine swap — a different network, travel-time
weights, a new POI category — can never serve a stale answer.  Swapping a
category *in place* (``KNNServer.with_objects``) additionally evicts every
entry recorded under the outgoing object fingerprint, keeping the cache
from carrying dead weight.

All operations are O(1) and thread-safe; hit/miss/eviction/invalidation
statistics feed ``KNNServer.stats()``.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from repro.engine.query import KNNResult

#: Cache key layout: (graph_fp, objects_fp, vertex, k, method).
CacheKey = Tuple[str, str, int, int, str]


def objects_fingerprint(objects: Sequence[int]) -> str:
    """Content fingerprint of an object set (order-insensitive)."""
    payload = ",".join(str(int(o)) for o in sorted(int(o) for o in objects))
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def result_key(
    graph_fp: str, objects_fp: str, vertex: int, k: int, method: str
) -> CacheKey:
    return (graph_fp, objects_fp, int(vertex), int(k), method)


class ResultCache:
    """Bounded thread-safe LRU mapping :data:`CacheKey` -> ``KNNResult``.

    ``capacity=0`` disables caching entirely (every ``get`` is a miss,
    ``put`` is a no-op) — the knob that measures the uncached path.
    """

    def __init__(self, capacity: int = 4096) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._data: "OrderedDict[CacheKey, KNNResult]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: CacheKey) -> Optional[KNNResult]:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: CacheKey, value: KNNResult) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.capacity:
                self._data.popitem(last=False)
                self.evictions += 1

    def invalidate(self, objects_fp: Optional[str] = None) -> int:
        """Drop entries for one object fingerprint (or all of them).

        Returns the number of entries removed; each counts as one
        invalidation in the stats.
        """
        with self._lock:
            if objects_fp is None:
                removed = len(self._data)
                self._data.clear()
            else:
                stale = [k for k in self._data if k[1] == objects_fp]
                for k in stale:
                    del self._data[k]
                removed = len(stale)
            self.invalidations += removed
            return removed

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "size": len(self._data),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "invalidations": self.invalidations,
                "hit_rate": round(self.hit_rate, 4),
            }
