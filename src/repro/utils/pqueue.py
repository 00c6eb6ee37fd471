"""Priority queues used by the kNN algorithms.

The paper (Section 6.2, choice 1) finds that a binary heap *without*
decrease-key — i.e. one that tolerates duplicate entries and discards
stale ones on pop — is about twice as fast as a heap that maintains a
position index for key updates, because road networks are degree bounded
and duplicates are rare.  ``BinaryHeap`` is that structure and is the queue
used by every algorithm in this library.  A caller that needs the *largest*
key first (IER's k-candidate list) pushes negated keys.

The textbook indexed heap the paper compares it with lives in
:mod:`repro.reference`, beside the Figure 7 "1st Cut" rung that uses it.
"""

from __future__ import annotations

import heapq
from typing import Any, List, Tuple


class BinaryHeap:
    """Min-heap of ``(key, item)`` pairs allowing duplicate items.

    Stale entries (an item pushed again with a smaller key) are left in the
    heap and must be filtered by the caller, typically with a settled set.
    A monotone sequence number breaks key ties so items never need to be
    comparable:

    >>> h = BinaryHeap()
    >>> h.push(3.0, "a"); h.push(1.0, "b")
    >>> h.pop()
    (1.0, 'b')
    """

    __slots__ = ("_heap", "_seq")

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, key: float, item: Any) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (key, self._seq, item))

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the ``(key, item)`` pair with smallest key."""
        key, _, item = heapq.heappop(self._heap)
        return key, item

    def peek(self) -> Tuple[float, Any]:
        key, _, item = self._heap[0]
        return key, item

    def peek_key(self) -> float:
        """Smallest key, or infinity when empty (``Front(Q)`` in the paper)."""
        return self._heap[0][0] if self._heap else float("inf")

    def clear(self) -> None:
        self._heap.clear()
