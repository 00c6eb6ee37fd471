"""Grep-style guard: the benchmark may not lean on API slated for deletion.

ROADMAP plans to drop the dual kernel knob, ``Workbench``, the
``KNNResult`` tuple surface, the legacy counter aliases, the second
store format and the old ``bench_*`` harnesses.  A yardstick that used
any of them would break — or silently change — in the very PRs it
exists to judge, so ``run.py`` refuses to start when a source file in
this directory matches one of the patterns below.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List

_LEGACY_COUNTERS = (
    "ine_settled", "road_settled", "road_bypassed", "dijkstra_settled",
    "astar_settled", "ch_settled", "gtree_leaf_settled", "gtree_matrix_ops",
    "ier_network_computations", "ier_false_hits",
    "ier_candidate_replacements", "disbrw_interval_lookups",
    "disbrw_insert_pruned", "disbrw_block_pruned", "disbrw_dropped",
    "disbrw_refinements", "disbrw_region_bounds", "disbrw_enn_retrieved",
    "tnr_table_queries", "tnr_local_queries", "hl_queries",
)

FORBIDDEN = {
    "kernel knob": re.compile(r"\bkernel\s*=|REPRO_KERNEL|\.kernel\b"),
    "Workbench": re.compile(r"\bWorkbench\b"),
    "KNNResult tuple surface": re.compile(
        r"for\s+\w+\s*,\s*\w+\s+in\s+\w*result\b"
        r"|\bresult\s*[!=]=\s*[\[(]|\bresult\[|\blen\(result\)|\bas_tuples\b"
    ),
    "legacy counter alias": re.compile(
        r"[\"'](?:" + "|".join(_LEGACY_COUNTERS) + r")[\"']"
    ),
    "store format knob": re.compile(r"IndexStore\([^)]*\bformat\s*="),
    "old benchmark harness": re.compile(
        r"_bench_utils|\bbench_[a-z0-9_]+|\bloadgen\b|\bcheck_report\b"
    ),
}


def forbidden_uses(directory: Path) -> List[str]:
    """``file:line: what`` for every match in the directory's sources
    (this file, which has to spell the patterns, is skipped)."""
    found: List[str] = []
    for path in sorted(Path(directory).glob("*.py")):
        if path.name == Path(__file__).name:
            continue
        for number, line in enumerate(path.read_text().splitlines(), 1):
            for what, pattern in FORBIDDEN.items():
                if pattern.search(line):
                    found.append(f"{path.name}:{number}: {what}: {line.strip()}")
    return found
