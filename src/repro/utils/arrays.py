"""Ragged-array flattening helpers for the persistent index store.

Every index serializes to a flat dict of numpy arrays (``to_arrays``).
Per-node ragged sequences — border lists, labels, matrices — are stored
as one concatenated array plus an ``offsets`` array of length ``n + 1``,
the same offset-indexed layout the paper's Section 6.2 uses in memory.
:func:`ragged_min` gathers many rows of such a pair at once and
reduces each, the form batched oracle queries take.
"""

from __future__ import annotations

from typing import Callable, Sequence, Tuple

import numpy as np


def concat_ragged(
    rows: Sequence[np.ndarray], dtype
) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a ragged list of 1-D arrays into ``(flat, offsets[n+1])``."""
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    for i, row in enumerate(rows):
        offsets[i + 1] = offsets[i] + len(row)
    if rows:
        flat = np.concatenate([np.asarray(r, dtype=dtype) for r in rows])
    else:
        flat = np.empty(0, dtype=dtype)
    return flat.astype(dtype, copy=False), offsets


def ragged_row(flat: np.ndarray, offsets: np.ndarray, i: int) -> np.ndarray:
    """Row ``i`` of a :func:`concat_ragged` pair."""
    return flat[int(offsets[i]) : int(offsets[i + 1])]


def ragged_min(
    offsets: np.ndarray, rows: np.ndarray, values: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """For each of ``rows`` of a :func:`concat_ragged` pair, the minimum
    of ``values`` over the row's positions in the flat array (``inf`` for
    an empty row).  ``values`` gets every row's positions, concatenated
    row after row, and returns one value per position."""
    starts = offsets[rows]
    lengths = offsets[rows + 1] - starts
    firsts = lengths.cumsum() - lengths
    positions = np.repeat(starts - firsts, lengths)
    positions += np.arange(len(positions))
    if len(positions) and lengths.all():
        return np.minimum.reduceat(values(positions), firsts)
    out = np.full(len(rows), np.inf)
    filled = lengths > 0
    if len(positions):
        out[filled] = np.minimum.reduceat(values(positions), firsts[filled])
    return out
