"""Shared run-metadata schema for machine-readable reports.

``benchmarks/bench_scale.py`` and the ``repro profile`` CLI stamp their
reports with the same envelope — schema version, the run's start
timestamp (passed in by the caller, so one multi-section report carries
one consistent time), host facts and the git revision — so reports line
up across machines and commits.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Dict, Optional

#: Bump when the report envelope's keys change shape.
SCHEMA_VERSION = 1


def git_revision(cwd: Optional[str] = None) -> Optional[str]:
    """The repo's short git revision, or ``None`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd or str(Path(__file__).resolve().parent),
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_metadata(run_started: float) -> Dict[str, object]:
    """The shared report envelope.  ``run_started`` is a unix timestamp
    captured by the caller when its run began."""
    return {
        "schema_version": SCHEMA_VERSION,
        "run_timestamp": datetime.fromtimestamp(
            run_started, tz=timezone.utc
        ).isoformat(),
        "run_timestamp_unix": run_started,
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "python": sys.version.split()[0],
        },
        "git_rev": git_revision(),
    }
