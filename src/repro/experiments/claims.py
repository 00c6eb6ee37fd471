"""The paper's evaluation as one table of checked claims.

Every artefact of Section 7 (Tables 1/2/3/5, Figures 4 and 6-27) is one
:class:`Claim`: the paper's statement, a ``run`` that regenerates the
artefact with the :mod:`~repro.experiments.figures` /
:mod:`~repro.experiments.tables` / :mod:`~repro.experiments.cache_study`
functions on the scaled networks of :class:`Networks`, and ``checks``
that state the paper's shape as predicates over what ``run`` measured.
:func:`evaluate` runs a claim twice: a check true both times is *held*,
false both times *not held*, and split *unresolved* — so a check over
counters, sizes or the dataset tables can never be unresolved, and a
timing check whose margin is inside run-to-run noise mostly says so
(a true tie still reads *not held* when it is false in both runs).

Both consumers read this table: ``benchmarks/test_paper_claims.py``
(fails on *not held*) and :mod:`repro.experiments.report`, which renders
EXPERIMENTS.md with the computed verdicts.

Scaling conventions.  The networks are ~100-1000x smaller than the
paper's DIMACS graphs (NW 1.1M and US 24M vertices there), and every
number is pure Python, so what is checked is each artefact's *shape*:
orderings, trends and crossovers.

* The default density 0.01 is 10x the paper's 0.001: on networks ~100x
  smaller it keeps the expected number of objects per search region
  comparable.  Named POI sets use the paper's relative densities scaled
  the same way.
* ks sweep 1..25 instead of 1..50 (k=50 exceeds sensible object-set
  sizes at this scale).
* DisBrw/SILC is built only up to ``INDEX_KINDS["silc"].max_vertices``,
  mirroring the paper's inability to build it beyond its five smallest
  datasets.
* INE and the Dijkstra oracle run their whole expansion as one C-level
  kernel call while ROAD, G-tree kNN, DisBrw and the IER loop traverse in
  the interpreter, so on 2,500-5,000 vertices INE costs a nearly flat
  100-900 us.  Checks that compare INE or Dijk *in time* with the
  interpreter-bound methods are pinned to what holds at this size
  (docs/benchmarks.md).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.engine.workbench import IndexCache
from repro.experiments import cache_study, figures, tables
from repro.experiments.runner import ExperimentResult, random_queries
from repro.graph.generators import (
    chain_heavy_network,
    road_network,
    travel_time_weights,
)
from repro.objects import uniform_objects
from repro.utils.counters import Counters

NW_SIZE = 2500
US_SIZE = 5000
SUITE_SIZES = ((600, "S-DE"), (1200, "S-CO"), (2500, "S-NW"), (4000, "S-W"))

HELD, NOT_HELD, UNRESOLVED = "held", "not held", "unresolved"


class Networks:
    """The scaled analogues of the paper's datasets, built on first use.

    * ``nw`` — the "NW" analogue (SILC buildable, so DisBrw takes part, as
      on the paper's largest DisBrw network);
    * ``us`` — the "US" analogue (largest, no SILC);
    * ``suite`` — four growing networks for the vs-|V| artefacts;
    * ``*_tt`` — the same networks with travel-time weights;
    * ``highway`` — the chain-heavy NA-highway analogue (Figure 20).

    With a ``store`` every index is built once and warm-started from disk
    afterwards; without one every index is built in memory.
    """

    def __init__(self, store=None) -> None:
        self.store = store

    def _cache(self, graph) -> IndexCache:
        return IndexCache(graph, store=self.store)

    @cached_property
    def nw(self) -> IndexCache:
        return self._cache(road_network(NW_SIZE, seed=42, name="S-NW"))

    @cached_property
    def us(self) -> IndexCache:
        return self._cache(road_network(US_SIZE, seed=1042, name="S-US"))

    @cached_property
    def nw_tt(self) -> IndexCache:
        return self._cache(travel_time_weights(self.nw.graph, seed=42))

    @cached_property
    def us_tt(self) -> IndexCache:
        return self._cache(travel_time_weights(self.us.graph, seed=1042))

    @cached_property
    def suite(self) -> Dict[str, IndexCache]:
        return {
            name: self._cache(road_network(size, seed=100 + size, name=name))
            for size, name in SUITE_SIZES
        }

    @cached_property
    def suite_tt(self) -> Dict[str, IndexCache]:
        return {
            name: self._cache(travel_time_weights(wb.graph, seed=7))
            for name, wb in self.suite.items()
        }

    @cached_property
    def highway(self) -> IndexCache:
        return self._cache(chain_heavy_network(1500, seed=3, chain_fraction=0.9))


Check = Tuple[str, Callable[[SimpleNamespace], bool]]


@dataclass(frozen=True)
class Claim:
    """One paper artefact: what the paper says, how to regenerate it at
    this scale, and the shape checks over the regenerated measurements.
    """

    id: str
    paper: str
    run: Callable[[Networks], SimpleNamespace]
    checks: Tuple[Check, ...]

    @property
    def title(self) -> str:
        """``fig20_21`` -> ``Figures 20/21``, ``table3`` -> ``Table 3``."""
        kind, number = re.fullmatch(r"(table|fig)([\d_]+)", self.id).groups()
        numbers = [str(int(n)) for n in number.split("_")]
        noun = {"table": "Table", "fig": "Figure"}[kind] + "s" * (len(numbers) > 1)
        return f"{noun} {'/'.join(numbers)}"


def verdict(first: bool, second: bool) -> str:
    """Held if true in both runs, not held if false in both, else unresolved."""
    if first and second:
        return HELD
    if not first and not second:
        return NOT_HELD
    return UNRESOLVED


def render(measured: SimpleNamespace) -> str:
    """The printable part of one run: result tables, text, scalars."""
    parts = []
    for name, value in vars(measured).items():
        if isinstance(value, ExperimentResult):
            parts.append(value.format_text())
        elif isinstance(value, str):
            parts.append(value)
        elif isinstance(value, (int, float)):
            parts.append(f"{name} = {value:,.4g}")
    return "\n".join(parts)


@dataclass(frozen=True)
class Evaluation:
    """A claim's two runs and each check's outcome in both."""

    claim: Claim
    runs: Tuple[SimpleNamespace, SimpleNamespace]
    outcomes: Tuple[Tuple[bool, bool], ...]

    @property
    def verdicts(self) -> Tuple[str, ...]:
        return tuple(verdict(*pair) for pair in self.outcomes)

    def verdict_lines(self) -> str:
        lines = []
        for (text, _), (first, second), v in zip(
            self.claim.checks, self.outcomes, self.verdicts
        ):
            split = f" (run 1 {first}, run 2 {second})" if v == UNRESOLVED else ""
            lines.append(f"{v:>10}  {text}{split}")
        return "\n".join(lines)


def evaluate(claim: Claim, nets: Optional[Networks]) -> Evaluation:
    runs = (claim.run(nets), claim.run(nets))
    outcomes = tuple(
        (bool(predicate(runs[0])), bool(predicate(runs[1])))
        for _, predicate in claim.checks
    )
    return Evaluation(claim, runs, outcomes)


def _named(names: str, results: Sequence, **extra) -> SimpleNamespace:
    """Name the parts of a figure function's tuple result."""
    return SimpleNamespace(**dict(zip(names.split(), results)), **extra)


def _min_at(result: ExperimentResult, x, exclude: Sequence[str] = ()) -> float:
    return min(result.at(m, x) for m in result.series if m not in exclude)


def _growth(result: ExperimentResult, method: str, lo, hi) -> float:
    return result.at(method, hi) / result.at(method, lo)


def _spread(result: ExperimentResult, x) -> float:
    """Slowest over fastest method at ``x``."""
    values = [result.at(m, x) for m in result.series]
    return max(values) / max(min(values), 1e-9)


def _sizes(result: ExperimentResult, series: str) -> List:
    """The x values of one series, ascending (network sizes)."""
    return sorted(x for x, _ in result.series[series])


# ----------------------------------------------------------------------
# Runs that are more than one figure-function call
# ----------------------------------------------------------------------
def _table1(n: Networks) -> SimpleNamespace:
    rows = tables.table1_networks({name: wb.graph for name, wb in n.suite.items()})
    return SimpleNamespace(rows=rows, table=tables.format_table1(rows))


def _table2(n: Networks) -> SimpleNamespace:
    rows = tables.table2_objects(n.us.graph)
    return SimpleNamespace(rows=rows, table=tables.format_table2(rows))


def _table3(n: Networks) -> SimpleNamespace:
    profile = cache_study.table3_cache_profile(
        n.nw.graph, num_queries=40, gtree=n.nw.gtree
    )
    return SimpleNamespace(profile=profile, table=cache_study.format_table3(profile))


def _table5(n: Networks) -> SimpleNamespace:
    criteria = tables.table5_ranking(n.nw, large_workbench=n.us, num_queries=12)
    return SimpleNamespace(ranks=criteria, table=tables.format_table5(criteria))


def _fig17(n: Networks) -> SimpleNamespace:
    k = 10
    counters_d, counters_t = Counters(), Counters()
    objects = uniform_objects(n.us.graph, 0.01, seed=0)
    alg_d = n.us.make("ier-phl", objects)
    alg_t = n.us_tt.make("ier-phl", objects)
    for q in random_queries(n.us.graph, 10, seed=4):
        alg_d.knn(int(q), k, counters=counters_d)
        alg_t.knn(int(q), k, counters=counters_t)
    return SimpleNamespace(
        vary_k=figures.fig10_vary_k(n.us_tt, ks=(1, 10, 25), density=0.003, num_queries=10),
        vary_density=figures.fig11_vary_density(
            n.us_tt, densities=(0.003, 0.1), num_queries=8
        ),
        verify_distance=counters_d["verify_network_computations"],
        verify_travel_time=counters_t["verify_network_computations"],
    )


def _fig26(n: Networks) -> SimpleNamespace:
    size_tt, build_tt = figures.fig08_preprocessing(n.suite_tt, include_silc=False)
    size_d, _ = figures.fig08_preprocessing(n.suite, include_silc=False)
    return SimpleNamespace(
        size_tt=size_tt,
        build_tt=build_tt,
        size_d=size_d,
        label_size_distance=n.nw.hub_labels.average_label_size(),
        label_size_travel_time=n.nw_tt.hub_labels.average_label_size(),
    )


_IER = tuple(figures.IER_LABELS.values())
_INE_RUNGS = ("1st Cut", "PQueue", "Settled", "Graph")
_KS = (1, 5, 10, 25)


CLAIMS: List[Claim] = [
    Claim(
        "table1",
        "Road networks: ten DIMACS networks of 48k-24M vertices, sparse "
        "(|E|/|V| about 2.4) with about 30% degree-2 vertices.",
        _table1,
        (
            ("networks listed in ascending size",
             lambda m: [r["vertices"] for r in m.rows]
             == sorted(r["vertices"] for r in m.rows)),
            ("every network is sparse: |E| < 2|V|",
             lambda m: all(r["edges"] < 2 * r["vertices"] for r in m.rows)),
            ("every network has a real degree-2 share (> 10%)",
             lambda m: all(r["degree2_fraction"] > 0.1 for r in m.rows)),
        ),
    ),
    Claim(
        "table2",
        "Object sets: eight OSM POI categories with densities 0.00005-0.007; "
        "schools largest, courthouses smallest.",
        _table2,
        (
            ("eight POI categories", lambda m: len(m.rows) == 8),
            ("schools at least as large as courthouses",
             lambda m: {r["name"]: r["size"] for r in m.rows}["schools"]
             >= {r["name"]: r["size"] for r in m.rows}["courthouses"]),
            ("sets listed by decreasing size",
             lambda m: m.rows == sorted(m.rows, key=lambda r: -r["size"])),
        ),
    ),
    # The cache profile is a trace-driven model (cache_study), so every
    # number here is deterministic.
    Claim(
        "table3",
        "Cache profile of the distance-matrix layouts (perf counters over "
        "250k queries): the array executes ~6x fewer instructions and "
        "suffers ~20-50x fewer cache misses than chained hashing; quadratic "
        "probing executes the most instructions but misses less than "
        "chaining.",
        _table3,
        (
            ("instructions: Array < Chained < Probing",
             lambda m: m.profile["Array"]["INS"]
             < m.profile["Chained Hashing"]["INS"]
             < m.profile["Quadratic Probing"]["INS"]),
            ("Array misses 3x fewer than Probing at L1/L2/L3",
             lambda m: all(
                 m.profile["Array"][lv] * 3 < m.profile["Quadratic Probing"][lv]
                 for lv in ("L1", "L2", "L3"))),
            ("Probing misses no more than 1.05x Chained at L1/L2/L3",
             lambda m: all(
                 m.profile["Quadratic Probing"][lv]
                 <= m.profile["Chained Hashing"][lv] * 1.05
                 for lv in ("L1", "L2", "L3"))),
            ("Chained L1 misses > 5x Array's",
             lambda m: m.profile["Chained Hashing"]["L1"] > 5 * m.profile["Array"]["L1"]),
        ),
    ),
    Claim(
        "table5",
        "Ranking under different criteria: IER (best oracle) ranks 1st for "
        "queries in every regime except high density, where INE takes "
        "over; INE is 1st on every preprocessing criterion (no index); "
        "DisBrw is last on space.",
        _table5,
        (
            # On its 12 queries IER-PHL leads INE by ~4% (median of 30
            # measurements; ~17% over 200 queries), inside run-to-run noise.
            ("IER-PHL ranks 1st at the default settings",
             lambda m: m.ranks["default"]["ier-phl"] == 1),
            ("INE ranks at most 2nd at high density",
             lambda m: m.ranks["high_density"]["ine"] <= 2),
            ("INE ranks 1st on network build time",
             lambda m: m.ranks["network_build_time"]["ine"] == 1),
            ("INE ranks 1st on network space",
             lambda m: m.ranks["network_space"]["ine"] == 1),
            ("DisBrw ranks last on space wherever it exists",
             lambda m: "disbrw" not in m.ranks["network_space"]
             or m.ranks["network_space"]["disbrw"]
             == max(m.ranks["network_space"].values())),
        ),
    ),
    # "Dijk" is the library's one Dijkstra, a C-level whole-frontier
    # search, so its gap to PHL is one order of magnitude here, not two,
    # and smallest at k=1 where IER verifies one or two candidates.
    Claim(
        "fig04",
        "IER with five shortest-path oracles (travel distance): PHL is the "
        "consistent winner, orders of magnitude over Dijkstra; materialized "
        "G-tree next; TNR and CH similar; all methods converge as density "
        "grows.",
        lambda n: _named("by_k by_d", figures.fig04_ier_variants(
            n.nw, ks=_KS, densities=(0.003, 0.01, 0.1), num_queries=12)),
        (
            ("PHL within 1.1x of the fastest oracle at every k",
             lambda m: all(m.by_k.at("PHL", k) <= 1.1 * _min_at(m.by_k, k) for k in _KS)),
            ("Dijk > 3x PHL at k=1 and > 10x from k=5",
             lambda m: all(m.by_k.at("Dijk", k) > (3 if k == 1 else 10) * m.by_k.at("PHL", k)
                           for k in _KS)),
            ("PHL has the lowest mean over k",
             lambda m: m.by_k.mean("PHL") == min(m.by_k.mean(x) for x in _IER)),
            ("MGtree's mean below TNR's", lambda m: m.by_k.mean("MGtree") < m.by_k.mean("TNR")),
            ("MGtree's mean below CH's", lambda m: m.by_k.mean("MGtree") < m.by_k.mean("CH")),
            ("Dijk/PHL gap smaller at density 0.1 than at 0.003",
             lambda m: m.by_d.at("Dijk", 0.1) / m.by_d.at("PHL", 0.1)
             < m.by_d.at("Dijk", 0.003) / m.by_d.at("PHL", 0.003)),
        ),
    ),
    Claim(
        "fig06",
        "G-tree distance-matrix layout: the flat array beats chained hashing "
        "by >10x (~30x in C++) and quadratic probing by several-fold at "
        "every k and density.",
        lambda n: _named("by_k by_d", figures.fig06_matrix_layouts(
            n.nw.graph, ks=(1, 10, 25), densities=(0.003, 0.1), num_queries=10)),
        (
            ("Array <= Quad. Probing at every k",
             lambda m: all(m.by_k.at("Array", k) <= m.by_k.at("Quad. Probing", k)
                           for k in (1, 10, 25))),
            ("Array <= Chained Hashing at every k",
             lambda m: all(m.by_k.at("Array", k) <= m.by_k.at("Chained Hashing", k)
                           for k in (1, 10, 25))),
            ("Array <= Chained Hashing at every density",
             lambda m: all(m.by_d.at("Array", d) <= m.by_d.at("Chained Hashing", d)
                           for d in (0.003, 0.1))),
            ("Array's mean < 0.8x Chained Hashing's",
             lambda m: m.by_k.mean("Array") < 0.8 * m.by_k.mean("Chained Hashing")),
        ),
    ),
    # In CPython the decrease-key queue is the big step (~1.5x) and the
    # whole ladder compresses to ~1.7x: interpreter overhead dwarfs the
    # cache effects that dominate in C++.  "Production" is the library's
    # INE, the whole-frontier kernel one rung past the paper's ladder.
    Claim(
        "fig07",
        "INE implementation ladder: each choice (no-decrease-key queue, "
        "byte-array settled set, flat CSR arrays) roughly halves query "
        "time; the final implementation is 6-7x faster than the first cut.",
        lambda n: _named("by_k by_d", figures.fig07_ine_ablation(
            n.nw.graph, ks=(1, 10, 25), densities=(0.003, 0.05), num_queries=12)),
        (
            ("1st Cut is the slowest rung on average",
             lambda m: m.by_k.mean("1st Cut") == max(m.by_k.mean(x) for x in _INE_RUNGS)),
            ("Graph within 1.3x of the best rung",
             lambda m: m.by_k.mean("Graph") < 1.3 * min(m.by_k.mean(x) for x in _INE_RUNGS)),
            ("1st Cut > 1.3x Graph", lambda m: m.by_k.mean("1st Cut") > 1.3 * m.by_k.mean("Graph")),
            ("1st Cut > 1.3x PQueue (the decrease-key cost)",
             lambda m: m.by_k.mean("1st Cut") > 1.3 * m.by_k.mean("PQueue")),
            ("Graph < 1st Cut at every density",
             lambda m: all(m.by_d.at("Graph", d) < m.by_d.at("1st Cut", d)
                           for d in (0.003, 0.05))),
            ("Production beats Graph on average",
             lambda m: m.by_k.mean("Production") < m.by_k.mean("Graph")),
        ),
    ),
    # Build times of store-loaded indexes are the wall-times recorded
    # when the artifact was built, so a warm run reports true builds.
    Claim(
        "fig08",
        "Road-network index preprocessing vs |V|: INE (the raw graph) is the "
        "space lower bound; DisBrw/SILC has by far the largest index and "
        "slowest build and cannot be built beyond the smaller networks; PHL "
        "next largest; G-tree and ROAD comparable, growing roughly linearly.",
        lambda n: _named("size build", figures.fig08_preprocessing(n.suite)),
        (
            ("INE <= Gtree in size at every |V|",
             lambda m: all(m.size.at("INE", v) <= m.size.at("Gtree", v)
                           for v in _sizes(m.size, "INE"))),
            ("INE <= ROAD in size at every |V|",
             lambda m: all(m.size.at("INE", v) <= m.size.at("ROAD", v)
                           for v in _sizes(m.size, "INE"))),
            ("INE <= PHL in size at every |V|",
             lambda m: all(m.size.at("INE", v) <= m.size.at("PHL", v)
                           for v in _sizes(m.size, "INE"))),
            ("DisBrw >= Gtree in size wherever it exists",
             lambda m: all(m.size.at("DisBrw", v) >= m.size.at("Gtree", v)
                           for v, _ in m.size.series.get("DisBrw", []))),
            ("DisBrw >= Gtree in build time wherever it exists",
             lambda m: all(m.build.at("DisBrw", v) >= m.build.at("Gtree", v)
                           for v, _ in m.size.series.get("DisBrw", []))),
            ("Gtree, ROAD and PHL sizes grow from the smallest to the largest |V|",
             lambda m: all(
                 m.size.at(s, _sizes(m.size, "INE")[-1]) > m.size.at(s, _sizes(m.size, "INE")[0])
                 for s in ("Gtree", "ROAD", "PHL"))),
        ),
    ),
    Claim(
        "fig09",
        "Query time vs network size: IER methods win at every size; INE is "
        "roughly flat with |V|; G-tree's border-to-border path cost grows "
        "with |V| while ROAD's bypassed-vertex count stays stable (why "
        "G-tree's lead shrinks on big networks).",
        lambda n: _named("times stats", figures.fig09_network_size(n.suite, num_queries=12)),
        (
            # IER-PHL leads INE ~2x at 600/1,200 vertices but ties it within
            # ~2% at 2,500/4,000 (200 queries, three measurements each).
            ("IER-PHL beats INE at every size",
             lambda m: all(m.times.at("ier-phl", v) < m.times.at("ine", v)
                           for v in _sizes(m.times, "ine"))),
            ("IER-PHL beats ROAD at every size",
             lambda m: all(m.times.at("ier-phl", v) < m.times.at("road", v)
                           for v in _sizes(m.times, "ine"))),
            ("G-tree path cost grows from the smallest to the largest |V|",
             lambda m: m.stats.at("Gtree path cost", _sizes(m.times, "ine")[-1])
             > m.stats.at("Gtree path cost", _sizes(m.times, "ine")[0])),
            ("ROAD bypasses vertices on the largest network",
             lambda m: m.stats.at("ROAD bypassed", _sizes(m.times, "ine")[-1]) > 0),
        ),
    ),
    # INE is nearly flat in k here (~150-900 us) and ties IER-PHL at k=5
    # on NW, so IER-PHL is checked against the index methods, and against
    # INE only where the margin is outside run-to-run noise.
    Claim(
        "fig10",
        "Varying k (NW, US): IER with the best oracle is fastest across k "
        "(~5x ahead of the field on NW); G-tree scales better with k than "
        "ROAD/DisBrw/INE; INE is slowest at large k.",
        lambda n: SimpleNamespace(
            nw=figures.fig10_vary_k(n.nw, ks=_KS, density=0.003, num_queries=12),
            us=figures.fig10_vary_k(n.us, ks=_KS, density=0.003, num_queries=10),
        ),
        (
            ("NW: IER-PHL fastest index method at k >= 5",
             lambda m: all(m.nw.at("ier-phl", k) == _min_at(m.nw, k, exclude=("ine",))
                           for k in (5, 10, 25))),
            ("NW: IER-PHL within 1.25x of the fastest method at k >= 5",
             lambda m: all(m.nw.at("ier-phl", k) < 1.25 * _min_at(m.nw, k)
                           for k in (5, 10, 25))),
            ("NW: G-tree's k=25/k=1 growth below ROAD's",
             lambda m: _growth(m.nw, "gtree", 1, 25) < _growth(m.nw, "road", 1, 25)),
            ("NW: G-tree's k=25/k=1 growth below DisBrw's",
             lambda m: _growth(m.nw, "gtree", 1, 25) < _growth(m.nw, "disbrw", 1, 25)),
            ("US: IER-PHL beats INE at k = 10, 25",
             lambda m: all(m.us.at("ier-phl", k) < m.us.at("ine", k) for k in (10, 25))),
            ("US: G-tree beats ROAD at k = 10, 25",
             lambda m: all(m.us.at("gtree", k) < m.us.at("road", k) for k in (10, 25))),
        ),
    ),
    # INE's fixed kernel cost (~100 us) is a floor, so it improves 2-4.5x
    # with density where ROAD's interpreter-bound expansion shows >5x.
    Claim(
        "fig11",
        "Varying density: all methods get faster; expansion methods (INE, "
        "ROAD) improve fastest and overtake the heuristics at high density; "
        "ROAD falls behind INE beyond ~0.01; IER's lead is largest at low "
        "density.",
        lambda n: SimpleNamespace(
            nw=figures.fig11_vary_density(n.nw, densities=(0.003, 0.03, 0.3), num_queries=12),
            us=figures.fig11_vary_density(n.us, densities=(0.003, 0.1), num_queries=8),
        ),
        (
            ("NW: ROAD > 5x faster at density 0.3 than at 0.003",
             lambda m: m.nw.at("road", 0.3) < m.nw.at("road", 0.003) / 5),
            ("NW: INE > 1.5x faster at density 0.3 than at 0.003",
             lambda m: m.nw.at("ine", 0.3) < m.nw.at("ine", 0.003) / 1.5),
            ("NW: INE beats IER-PHL at density 0.3 (the crossover)",
             lambda m: m.nw.at("ine", 0.3) < m.nw.at("ier-phl", 0.3)),
            ("NW: INE beats G-tree at density 0.3",
             lambda m: m.nw.at("ine", 0.3) < m.nw.at("gtree", 0.3)),
            ("NW: IER-PHL fastest of all at density 0.003",
             lambda m: m.nw.at("ier-phl", 0.003) == _min_at(m.nw, 0.003)),
            ("NW: IER-PHL's low/high-density ratio below INE's",
             lambda m: m.nw.at("ier-phl", 0.003) / max(m.nw.at("ier-phl", 0.3), 1e-9)
             < m.nw.at("ine", 0.003) / m.nw.at("ine", 0.3)),
            ("US: IER-PHL beats INE at density 0.003",
             lambda m: m.us.at("ier-phl", 0.003) < m.us.at("ine", 0.003)),
        ),
    ),
    # INE is nearly flat in k and cluster count here, so IER-PHL's lead
    # over it shows only with few clusters, and G-tree's growth with k is
    # compared with ROAD's, the other interpreter-bound expansion.
    Claim(
        "fig12",
        "Clustered objects: more clusters behave like higher density; IER "
        "keeps a lead, but a smaller one (Euclidean distance separates "
        "cluster members poorly); G-tree is nearly flat in k thanks to "
        "materialization.",
        lambda n: _named("by_c by_k", figures.fig12_clusters(
            n.nw, cluster_counts=(4, 16, 64), ks=(1, 10, 25), num_queries=12)),
        (
            ("INE faster with 64 clusters than with 4",
             lambda m: m.by_c.at("ine", 64) < m.by_c.at("ine", 4)),
            ("IER-PHL beats INE with 4 clusters",
             lambda m: m.by_c.at("ier-phl", 4) < m.by_c.at("ine", 4)),
            ("IER-PHL's mean over cluster counts below ROAD's",
             lambda m: m.by_c.mean("ier-phl") < m.by_c.mean("road")),
            ("G-tree's k=25/k=1 growth below ROAD's",
             lambda m: _growth(m.by_k, "gtree", 1, 25) < _growth(m.by_k, "road", 1, 25)),
        ),
    ),
    Claim(
        "fig13",
        "Real-world object sets: ordered by decreasing size, i.e. "
        "decreasing density, every method slows; INE degrades most on the "
        "sparse sets; IER variants win on most sets.",
        lambda n: SimpleNamespace(
            nw=figures.fig13_real_pois(n.nw, num_queries=12),
            us=figures.fig13_real_pois(
                n.us, num_queries=8, methods=("ine", "road", "gtree", "ier-gt")),
        ),
        (
            ("NW: INE slower on courthouses than on schools",
             lambda m: m.nw.at("ine", "courthouses") > m.nw.at("ine", "schools")),
            ("NW: IER-PHL beats INE on courthouses, universities, hospitals",
             lambda m: all(m.nw.at("ier-phl", poi) < m.nw.at("ine", poi)
                           for poi in ("courthouses", "universities", "hospitals"))),
            ("US: IER-Gt beats INE on courthouses",
             lambda m: m.us.at("ier-gt", "courthouses") < m.us.at("ine", "courthouses")),
        ),
    ),
    # INE's growth with remoteness is tens of percent here, not the
    # paper's exponential, and INE stays ahead of G-tree in absolute time.
    Claim(
        "fig14",
        "Minimum object distance: INE deteriorates exponentially as objects "
        "move away; the Euclidean bound loosens so IER degrades too; G-tree "
        "scales best thanks to materialized hierarchy paths.",
        lambda n: SimpleNamespace(
            result=figures.fig14_min_distance(n.nw, num_sets=4, num_queries=10)),
        (
            ("INE > 1.1x slower on R4 than on R1",
             lambda m: m.result.at("ine", "R4") > 1.1 * m.result.at("ine", "R1")),
            ("G-tree's R4/R1 ratio below INE's",
             lambda m: _growth(m.result, "gtree", "R1", "R4")
             < _growth(m.result, "ine", "R1", "R4")),
            ("G-tree beats ROAD on R4",
             lambda m: m.result.at("gtree", "R4") < m.result.at("road", "R4")),
        ),
    ),
    # INE ties IER-PHL from k=10 on this network, so IER-PHL's lead is
    # checked over the index methods at every k and over INE at k=1.
    Claim(
        "fig15",
        "Varying k on real POIs: sparse hospitals behave like uniform "
        "objects (IER-PHL well ahead); on clustered fast food IER's lead "
        "narrows.",
        lambda n: SimpleNamespace(**figures.fig15_real_k(n.nw, ks=(1, 10, 25), num_queries=12)),
        (
            ("hospitals: IER-PHL fastest index method at every k",
             lambda m: all(m.hospitals.at("ier-phl", k)
                           == _min_at(m.hospitals, k, exclude=("ine",))
                           for k in (1, 10, 25))),
            ("hospitals: IER-PHL beats INE at k=1",
             lambda m: m.hospitals.at("ier-phl", 1) < m.hospitals.at("ine", 1)),
            ("IER-PHL's lead over INE at k=25 on fast food < 1.5x its lead on hospitals",
             lambda m: m.fast_food.at("ine", 25) / m.fast_food.at("ier-phl", 25)
             < m.hospitals.at("ine", 25) / m.hospitals.at("ier-phl", 25) * 1.5),
        ),
    ),
    Claim(
        "fig16",
        "Original settings: at the earlier studies' 10x-higher density all "
        "methods answer fast and bunch together, explaining older "
        "contradictory comparisons (the paper uses the small CO network).",
        lambda n: SimpleNamespace(
            high=figures.fig10_vary_k(
                n.suite["S-CO"], ks=(1, 10, 25), density=0.1, num_queries=12),
            low=figures.fig10_vary_k(
                n.suite["S-CO"], ks=(1, 10, 25), density=0.003, num_queries=12),
        ),
        (
            ("best/worst spread at k=25 smaller at density 0.1 than at 0.003",
             lambda m: _spread(m.high, 25) < _spread(m.low, 25)),
            ("every method under 4,000 us at density 0.1, k=10",
             lambda m: max(m.high.at(x, 10) for x in m.high.series) < 4000),
        ),
    ),
    Claim(
        "fig17",
        "Travel-time graphs (US): the Euclidean bound is looser (scaled by "
        "the max speed), so IER takes more false hits and IER-Gt loses to "
        "plain G-tree, yet IER-PHL usually stays fastest; the distance-weight "
        "trends carry over.",
        _fig17,
        (
            ("IER-PHL beats INE at k = 10, 25",
             lambda m: all(m.vary_k.at("ier-phl", k) < m.vary_k.at("ine", k) for k in (10, 25))),
            ("INE faster at density 0.1 than at 0.003",
             lambda m: m.vary_density.at("ine", 0.1) < m.vary_density.at("ine", 0.003)),
            ("IER-PHL verifies at least as many candidates on travel time",
             lambda m: m.verify_travel_time >= m.verify_distance),
        ),
    ),
    Claim(
        "fig18",
        "Object-index cost: object indexes are far smaller and faster to "
        "build than road indexes; the raw object list (INE) is the size "
        "floor; object storage dominates as density grows; R-trees build "
        "fastest at scale.",
        lambda n: _named(
            "size build",
            figures.fig18_object_indexes(n.us, densities=(0.003, 0.03, 0.3)),
            gtree_bytes=n.us.gtree.size_bytes(),
        ),
        (
            ("INE <= IER/DB in size at every density",
             lambda m: all(m.size.at("INE", d) <= m.size.at("IER/DB", d)
                           for d in (0.003, 0.03, 0.3))),
            ("INE <= G-tree's occurrence list at every density",
             lambda m: all(m.size.at("INE", d) <= m.size.at("G-tree", d)
                           for d in (0.003, 0.03, 0.3))),
            ("every object index grows from density 0.003 to 0.3",
             lambda m: all(m.size.at(x, 0.3) > m.size.at(x, 0.003)
                           for x in ("INE", "IER/DB", "G-tree", "ROAD"))),
            ("G-tree's object index at density 0.3 is < 1/1024 of the G-tree",
             lambda m: m.size.at("G-tree", 0.3) * 1024 < m.gtree_bytes),
        ),
    ),
    # Python's R-tree cursor costs more than C++'s, so DB-ENN only draws
    # level with the Object Hierarchy here.
    Claim(
        "fig19",
        "Object Hierarchy vs DB-ENN: DB-ENN (R-tree Euclidean candidates) "
        "wins, peaking at ~1 order of magnitude at high density / low k, "
        "where the Object Hierarchy's intersection overhead dominates.",
        lambda n: _named("by_k by_d", figures.fig19_db_enn(
            n.nw, ks=(1, 5, 10), densities=(0.003, 0.05), num_queries=12)),
        (
            # At k=1 the two tie within ~4% (200 queries, three measurements).
            ("DB-ENN beats DisBrw at k=1",
             lambda m: m.by_k.at("DB-ENN", 1) < m.by_k.at("DisBrw", 1)),
            ("DB-ENN's mean within 1.3x of DisBrw's",
             lambda m: m.by_k.mean("DB-ENN") < 1.3 * m.by_k.mean("DisBrw")),
        ),
    ),
    Claim(
        "fig20_21",
        "Degree-2 chain optimisation for Distance Browsing: ~30% "
        "improvement on ordinary networks (matching their degree-2 share), "
        "up to 10x on the 95%-degree-2 highway network.",
        lambda n: _named("chain_k chain_d normal_k normal_d", (
            *figures.fig20_21_deg2(
                n.highway, ks=(1, 10), densities=(0.01, 0.05), num_queries=10),
            *figures.fig20_21_deg2(
                n.nw, ks=(1, 10), densities=(0.003, 0.05), num_queries=10),
        )),
        (
            ("normal network: OptDisBrw's mean < 1.15x DisBrw's",
             lambda m: m.normal_k.mean("OptDisBrw") < 1.15 * m.normal_k.mean("DisBrw")),
            ("chain-heavy network: OptDisBrw beats DisBrw on average",
             lambda m: m.chain_k.mean("OptDisBrw") < m.chain_k.mean("DisBrw")),
        ),
    ),
    Claim(
        "fig22",
        "Improved G-tree leaf search: largest gains at high density and "
        "small k (>10x at k=1 on the densest sets in C++), because the "
        "original search scans the whole leaf regardless of k.",
        lambda n: SimpleNamespace(result=figures.fig22_leaf_search(
            n.nw, densities=(0.003, 0.05, 0.3), ks=(1, 10), num_queries=15)),
        (
            ("k=1: improved search faster at density 0.3",
             lambda m: m.result.at("k=1 (Aft)", 0.3) < m.result.at("k=1 (Bef)", 0.3)),
            ("k=10: improved search within 1.1x at density 0.3",
             lambda m: m.result.at("k=10 (Aft)", 0.3) < 1.1 * m.result.at("k=10 (Bef)", 0.3)),
            ("k=1 gain > 1.2x at density 0.3",
             lambda m: m.result.at("k=1 (Bef)", 0.3) / m.result.at("k=1 (Aft)", 0.3) > 1.2),
        ),
    ),
    Claim(
        "fig23",
        "IER oracles on travel time (NW): PHL remains well ahead of TNR/CH; "
        "all oracles suffer more false hits at high density; Dijkstra stays "
        "orders of magnitude behind.",
        lambda n: _named("by_k by_d", figures.fig04_ier_variants(
            n.nw_tt, ks=(1, 10, 25), densities=(0.003, 0.05), num_queries=10)),
        (
            ("PHL beats TNR at every k",
             lambda m: all(m.by_k.at("PHL", k) < m.by_k.at("TNR", k) for k in (1, 10, 25))),
            ("PHL beats CH at every k",
             lambda m: all(m.by_k.at("PHL", k) < m.by_k.at("CH", k) for k in (1, 10, 25))),
            ("PHL > 5x ahead of Dijk at every k",
             lambda m: all(m.by_k.at("PHL", k) < m.by_k.at("Dijk", k) / 5
                           for k in (1, 10, 25))),
        ),
    ),
    Claim(
        "fig24_27",
        "Travel-time parameters and real POIs (NW): IER-PHL is generally "
        "best except at the highest densities, where false hits hand the win "
        "to the expansion methods; hospital and fast-food trends carry over.",
        lambda n: SimpleNamespace(
            vary_k=figures.fig10_vary_k(
                n.nw_tt, ks=(1, 10, 25), density=0.003, num_queries=10,
                methods=("ine", "road", "gtree", "ier-gt", "ier-phl")),
            vary_density=figures.fig11_vary_density(
                n.nw_tt, densities=(0.003, 0.3), num_queries=10,
                methods=("ine", "gtree", "ier-phl")),
            **figures.fig15_real_k(
                n.nw_tt, ks=(1, 10), num_queries=10, methods=("ine", "gtree", "ier-phl")),
        ),
        (
            ("IER-PHL beats INE at k = 10, 25",
             lambda m: all(m.vary_k.at("ier-phl", k) < m.vary_k.at("ine", k) for k in (10, 25))),
            ("IER-PHL beats INE at density 0.003",
             lambda m: m.vary_density.at("ier-phl", 0.003) < m.vary_density.at("ine", 0.003)),
            ("INE beats IER-PHL at density 0.3 (the crossover)",
             lambda m: m.vary_density.at("ine", 0.3) < m.vary_density.at("ier-phl", 0.3)),
            ("hospitals: IER-PHL beats INE at k=10",
             lambda m: m.hospitals.at("ier-phl", 10) < m.hospitals.at("ine", 10)),
        ),
    ),
    Claim(
        "fig25",
        "Real POI sets on travel time: IER-PHL dominates nearly every set "
        "(labels shrink on time weights, offsetting false hits); INE again "
        "degrades as sets shrink; IER-Gt loses ground.",
        lambda n: SimpleNamespace(
            nw=figures.fig13_real_pois(
                n.nw_tt, num_queries=10,
                methods=("ine", "road", "gtree", "ier-gt", "ier-phl")),
            us=figures.fig13_real_pois(
                n.us_tt, num_queries=6, methods=("ine", "gtree", "ier-phl")),
        ),
        (
            ("NW: INE slower on courthouses than on schools",
             lambda m: m.nw.at("ine", "courthouses") > m.nw.at("ine", "schools")),
            ("NW: IER-PHL beats INE on courthouses",
             lambda m: m.nw.at("ier-phl", "courthouses") < m.nw.at("ine", "courthouses")),
            ("US: IER-PHL beats INE on courthouses",
             lambda m: m.us.at("ier-phl", "courthouses") < m.us.at("ine", "courthouses")),
        ),
    ),
    Claim(
        "fig26",
        "Preprocessing on travel time: travel times have stronger "
        "hierarchies, so labels shrink and PHL becomes buildable on every "
        "dataset (it could not be built for the two largest travel-distance "
        "networks).",
        _fig26,
        (
            ("PHL on the largest network no larger than 1.05x its travel-distance size",
             lambda m: m.size_tt.at("PHL", _sizes(m.size_tt, "PHL")[-1])
             < m.size_d.at("PHL", _sizes(m.size_tt, "PHL")[-1]) * 1.05),
            ("PHL size grows from the smallest to the largest network",
             lambda m: m.size_tt.at("PHL", _sizes(m.size_tt, "PHL")[-1])
             > m.size_tt.at("PHL", _sizes(m.size_tt, "PHL")[0])),
            ("NW: average label < 1.2x its travel-distance size",
             lambda m: m.label_size_travel_time < m.label_size_distance * 1.2),
        ),
    ),
]
