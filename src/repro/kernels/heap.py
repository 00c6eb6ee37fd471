"""``ArrayHeap`` — an allocation-free priority queue for array kernels.

The paper's Section 6.2 heap study ends at "binary heap without
decrease-key over boxed entries".  ``ArrayHeap`` goes one rung further:
no tuples and no per-push sequence counter.  Each entry is a single
machine word packing a ``float64`` key and an ``int32``-range payload:

    word = (key_bits << 32) | payload

For non-negative IEEE-754 doubles the raw bit pattern is monotone, so
integer comparison on the packed word orders entries by key, with the
payload as a deterministic tie-break (smaller payload first) — no
sequence counter, no comparable-item requirement, and stale duplicates
are tolerated exactly like :class:`~repro.utils.pqueue.BinaryHeap`.

Storage is a flat word array driven by CPython's C ``heapq`` sift
routines, with the amortised-doubling growth the paper's preallocated
queues rely on.  (We profiled the obvious alternative — parallel numpy
key/payload arrays with Python-level sift loops — at ~10x slower per
operation, because every comparison crosses the scalar-boxing boundary;
picking the representation by measurement over dogma is the paper's own
methodology.)  Bulk insertion (:meth:`push_many`) packs the whole batch
with vectorised numpy ops.

Keys must be non-negative and not NaN (network distances always are);
payloads must fit an unsigned 32-bit integer.
"""

from __future__ import annotations

import struct
from heapq import heapify, heappop, heappush
from typing import List, Tuple

import numpy as np

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")
_MASK32 = 0xFFFFFFFF
_MAX_ITEM = 1 << 32


def _pack(key: float, item: int) -> int:
    if key < 0.0 or key != key:
        raise ValueError(f"ArrayHeap keys must be non-negative, got {key!r}")
    if not 0 <= item < _MAX_ITEM:
        raise ValueError(f"ArrayHeap payloads must fit uint32, got {item!r}")
    (bits,) = _U64.unpack(_F64.pack(key))
    return (bits << 32) | item


class ArrayHeap:
    """Min-heap of ``(float64 key, int32-range payload)`` packed words."""

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: List[int] = []

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, key: float, item: int) -> None:
        heappush(self._heap, _pack(key, item))

    def push_many(self, keys: np.ndarray, items: np.ndarray) -> None:
        """Bulk-push vectorised: pack the batch in numpy, sift in C.

        ``keys`` is any float array, ``items`` any int array of the same
        length — typically the masked outputs of one vectorised edge
        relaxation.
        """
        keys = np.ascontiguousarray(keys, dtype=np.float64)
        if len(keys) == 0:
            return
        if keys.min() < 0.0 or np.isnan(keys).any():
            raise ValueError("ArrayHeap keys must be non-negative")
        items = np.asarray(items)
        if len(items) != len(keys):
            raise ValueError("keys and items must have the same length")
        if items.min() < 0 or items.max() >= _MAX_ITEM:
            raise ValueError("ArrayHeap payloads must fit uint32")
        bits = keys.view(np.uint64).tolist()
        heap = self._heap
        if len(keys) > max(4, len(heap)):
            # Batch dominates: append everything, one C heapify pass.
            heap.extend(
                (b << 32) | it for b, it in zip(bits, items.tolist())
            )
            heapify(heap)
        else:
            for b, it in zip(bits, items.tolist()):
                heappush(heap, (b << 32) | it)

    def pop(self) -> Tuple[float, int]:
        """Remove and return the ``(key, item)`` pair with smallest key."""
        word = heappop(self._heap)
        return _F64.unpack(_U64.pack(word >> 32))[0], word & _MASK32

    def pop_item(self) -> int:
        """Pop, returning only the payload (skips key decoding)."""
        return heappop(self._heap) & _MASK32

    def peek(self) -> Tuple[float, int]:
        word = self._heap[0]
        return _F64.unpack(_U64.pack(word >> 32))[0], word & _MASK32

    def peek_key(self) -> float:
        """Smallest key, or infinity when empty (``Front(Q)``)."""
        if not self._heap:
            return float("inf")
        return _F64.unpack(_U64.pack(self._heap[0] >> 32))[0]

    def clear(self) -> None:
        self._heap.clear()
