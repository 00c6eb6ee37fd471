"""Experiment harness regenerating the paper's tables and figures.

Each ``figXX_*`` / ``tableX_*`` function reproduces one evaluation
artefact at laptop scale and returns an :class:`ExperimentResult` whose
series can be printed (``format_text``) or asserted on (the benchmark
suite checks the *shape* of each result against the paper: who wins, by
roughly what factor, where crossovers fall).
"""

from repro.experiments.runner import (
    ExperimentResult,
    measure_query_time,
    random_queries,
)
from repro.experiments import cache_study, figures, tables

__all__ = [
    "ExperimentResult",
    "measure_query_time",
    "random_queries",
    "cache_study",
    "figures",
    "tables",
]
