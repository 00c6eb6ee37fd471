"""The index store shared by the benchmark scripts.

``shared_store`` gives every benchmark session a persistent
:class:`repro.store.IndexStore`: the first run builds the indexes (and
records their build wall-times in the artifacts), every later run
warm-starts from disk.  Point ``REPRO_BENCH_STORE`` somewhere else — or
at an empty directory — to control where artifacts live or to force a
cold run.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.store import IndexStore

#: Default on-disk location for benchmark index artifacts (gitignored).
DEFAULT_STORE_DIR = Path(__file__).resolve().parent / ".store"


def shared_store() -> IndexStore:
    """The session-shared index store backing the paper-claims networks.

    An unset *or empty* ``REPRO_BENCH_STORE`` falls back to the default
    directory, so ``REPRO_BENCH_STORE= pytest benchmarks`` cannot
    scatter artifacts into the current working directory.
    """
    root = os.environ.get("REPRO_BENCH_STORE") or str(DEFAULT_STORE_DIR)
    return IndexStore(root)
