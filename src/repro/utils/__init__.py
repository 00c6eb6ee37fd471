"""Shared in-memory building blocks used across the kNN methods.

The paper (Section 6.2) stresses that seemingly innocuous data-structure
choices — priority queues, settled-vertex containers, graph layouts — can
change experimental outcomes by integer factors.  This package holds the
shared implementations so every algorithm uses the *same* subroutines, as
the paper's methodology requires.
"""

from repro.utils.pqueue import BinaryHeap
from repro.utils.bitset import BitArray
from repro.utils.counters import Counters, NULL_COUNTERS

__all__ = [
    "BinaryHeap",
    "BitArray",
    "Counters",
    "NULL_COUNTERS",
]
