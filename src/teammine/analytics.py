"""Aggregate tables behind the study figures, one machine-readable CSV each.

Each CSV row holds its keys, then ``value,n,flag``: the value, its population
N, and why a value is missing. A value derived from a count gives the count
back as value * N, divided by 100 in a table of percentages. Team age is
1-based: a team's first duration year is age 1, and duration is measured on
the duration span (end - start + 1) even when the underlying intervals are
disconnected.

Every table is built from integer sums over the teams kept at the margin,
and a margin keeps or drops a team by its duration span alone. So the
overlaps stage tallies those integers per span (``figure_tallies``), and the
stats stage sums the tallies of the spans kept (``filter_margin``) and
renders the tables from the sums (``compute_all_figures``).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add
from pathlib import Path

from teammine.csvio import read_csv, write_csv
from teammine.ingest import PublicationTable
from teammine.intervals import Interval, format_intervals, parse_intervals
from teammine.overlaps import Impulse, ImpulseSummary
from teammine.success import SuccessTagTable
from teammine.teams import CompositionMetrics, SuccessProfile, TeamPubFacts


@dataclass(frozen=True, slots=True)
class SeriesRow:
    keys: tuple
    value: float | None
    n: int
    count: int | None = None
    flag: str = ""


@dataclass
class SeriesTable:
    key_names: tuple[str, ...]
    percent: bool  # whether add_fraction gives percentages rather than shares
    rows: list[SeriesRow] = field(default_factory=list)

    def add_fraction(self, keys: tuple, count: int, n: int):
        if n == 0:
            self.rows.append(SeriesRow(keys, None, 0, None, "no_population"))
            return
        scale = 100 if self.percent else 1
        self.rows.append(SeriesRow(keys, scale * count / n, n, count))

    def to_csv(self, path: str | Path):
        write_csv(path, [*self.key_names, "value", "n", "flag"],
                  ([*row.keys, "" if row.value is None else repr(row.value), row.n, row.flag]
                   for row in self.rows))


# --- prevalence ----------------------------------------------------------------

POPULATIONS = ("all", "top10", "top1")


@dataclass
class PrevalenceTotals:
    """The populations of the prevalence tables, which no team choice moves:
    multi-author publications per (population, year), and per country, where
    a publication counts toward every country present in any author
    affiliation."""
    by_year: dict[tuple[str, int], int]
    by_country: dict[str, int]


def prevalence_totals(pubs: PublicationTable, tags: SuccessTagTable) -> PrevalenceTotals:
    """The prevalence populations of a corpus and its success tags."""
    by_year = {}
    for name, ids in (("all", None), ("top10", tags.top10), ("top1", tags.top1)):
        years = Counter(rec.year for rec in pubs
                        if len(rec.authors) >= 2 and (ids is None or rec.pub_id in ids))
        for year, n in years.items():
            by_year[(name, year)] = n
    # a corpus holds few distinct country sets: count those, then their countries
    country_sets = Counter(frozenset({aff.country for entry in rec.authors
                                      for aff in entry.affiliations})
                           for rec in pubs if len(rec.authors) >= 2)
    by_country: dict[str, int] = {}
    for countries, n in country_sets.items():
        for country in countries - {None}:
            by_country[country] = by_country.get(country, 0) + n
    return PrevalenceTotals(by_year, by_country)


def write_prevalence_totals_csv(totals: PrevalenceTotals, path: str | Path):
    """One ``group,key,n`` row per (population, year), keyed by the year, in
    population then year order; then one per country, keyed by the country
    in sorted order, with the group ``country``."""
    year_rows = sorted(totals.by_year.items(),
                       key=lambda item: (POPULATIONS.index(item[0][0]), item[0][1]))
    write_csv(path, ["group", "key", "n"],
              [*((name, year, n) for (name, year), n in year_rows),
               *(("country", country, n) for country, n in sorted(totals.by_country.items()))])


def read_prevalence_totals_csv(path: str | Path) -> PrevalenceTotals:
    totals = PrevalenceTotals({}, {})
    for group, key, n in read_csv(path):
        if group == "country":
            totals.by_country[key] = int(n)
        else:
            totals.by_year[(group, int(key))] = int(n)
    return totals


# --- tallies ------------------------------------------------------------------

LEVELS = ("top1", "top10")  # success levels, in the order a tally row holds them
_SUFFIX = {"top1": "", "top10": "_top10"}  # a level's figure file stem suffix

# tally table -> the types of its key fields; the fields after the key are
# counts, those of a success level in ``LEVELS`` order
TALLY_KEYS = {
    "teams": (int,),            # duration: teams
    "fig1a": (str, int),        # population, year: publications
    "fig1b": (str,),            # country: publications
    "fig2a": (int, int),        # duration, age: publications; per level highly cited ones
    "first": (str, int, int),   # level, duration, age of first success: teams
    "fig3": (str, float),       # metric, bin: publications; per level highly cited ones
    "fig5": (str, str, int),    # impulse, stratum, count: teams, publications; per level
                                # successful teams, highly cited publications
    "fig5c": (str, float),      # group, bin: teams; per level teams with >= 1, >= 2
                                # highly cited publications
    "fig5d": (str, int, str),   # level, duration, condition: teams, sum of their
                                # first-success ages
}

# sorted duration spans -> (table, key) -> counts
FigureTallies = dict[tuple[Interval, ...], dict[tuple[str, tuple], list[int]]]
# table -> key -> counts, summed over the spans kept
FigureSums = dict[str, dict[tuple, list[int]]]

_IMPULSES = tuple(impulse.value for impulse in Impulse if impulse is not Impulse.NONE)
_CONDITIONS = ("closed", "persistence", "freshness", "early_persistence")


def _quarter_bin(value: float) -> float:
    return math.floor(value * 4) / 4


def _composition_bins(metrics: CompositionMetrics) -> tuple[tuple[str, float], ...]:
    """Counts per member round down to 0.25 increments; mean city distance
    rounds down to 10 km increments."""
    return (("orgs_pm", _quarter_bin(metrics.orgs_per_member)),
            ("cities_pm", _quarter_bin(metrics.cities_per_member)),
            ("countries_pm", _quarter_bin(metrics.countries_per_member)),
            ("dist_km", float(int(metrics.mean_city_distance_km // 10) * 10)))


def _conditions(summary: ImpulseSummary, level: str) -> list[str]:
    """The first-success conditions a team's impulses put it in."""
    conditions = []
    if summary.total == 0:
        conditions.append("closed")
    if summary.persistence >= 1:
        conditions.append("persistence")
    if summary.freshness >= 1:
        conditions.append("freshness")
    if getattr(summary, f"persistence_early_{level}") >= 1:
        conditions.append("early_persistence")
    return conditions


def _add(cells: dict, key: tuple, counts):
    """Add ``counts`` to the cell of ``key``, field by field."""
    cell = cells.get(key)
    if cell is None:
        cells[key] = [int(count) for count in counts]
    else:
        cell[:] = map(add, cell, counts)


def figure_tallies(teams, facts: dict[str, TeamPubFacts],
                   profiles: dict[int, SuccessProfile],
                   summaries: dict[int, ImpulseSummary]) -> FigureTallies:
    """Every count the figure tables sum, by span: a team's counts under its
    duration span, and a team publication's prevalence counts once, under
    the sorted distinct spans of the teams carrying it. ``facts`` hold each
    team publication's year, tiers and countries."""
    tallies: FigureTallies = {}
    carriers: dict[str, set[Interval]] = {}  # pub_id -> spans of the teams carrying it
    # publications are many and repeat few keys, so they are counted first
    team_pubs: Counter = Counter()  # (span, duration, age, top1, top10) -> publications
    for team in teams:
        span = (team.duration_start, team.duration_end)
        rows = tallies.setdefault((span,), {})
        duration = team.duration
        profile = profiles[team.team_id]
        summary = summaries[team.team_id]
        _add(rows, ("teams", (duration,)), (1,))
        for pub_id in team.pubs:
            carriers.setdefault(pub_id, set()).add(span)
        team_pubs.update((span, duration, year - team.duration_start + 1, top1, top10)
                         for year, top1, top10 in zip(profile.years, profile.top1.flags,
                                                      profile.top10.flags))
        n_pubs, n_top1, n_top10 = len(team.pubs), profile.top1.count, profile.top10.count
        if team.pubs and team.metrics is not None:
            for metric_bin in _composition_bins(team.metrics):
                _add(rows, ("fig3", metric_bin), (n_pubs, n_top1, n_top10))
        if summary.total == 0:
            impulse_keys = [("closed", "any", 0)]
            rate_key = ("closed", 0.0)
        else:
            impulse_keys = [(impulse, stratum, count) for impulse in _IMPULSES
                            for stratum in ("any", "top10", "top1")
                            if (count := getattr(summary, impulse if stratum == "any"
                                                 else f"{impulse}_{stratum}")) >= 1]
            rate_key = ("open", _quarter_bin(summary.impulses_per_year))
        for key in impulse_keys:
            _add(rows, ("fig5", key), (1, n_pubs, n_top1 > 0, n_top1, n_top10 > 0, n_top10))
        _add(rows, ("fig5c", rate_key),
             (1, n_top1 >= 1, n_top1 >= 2, n_top10 >= 1, n_top10 >= 2))
        for level in LEVELS:
            first = getattr(profile, level).first_year
            if first is None:
                continue
            age = first - team.duration_start + 1
            _add(rows, ("first", (level, duration, age)), (1,))
            for condition in _conditions(summary, level):
                _add(rows, ("fig5d", (level, duration, condition)), (1, age))
    for (span, duration, age, top1, top10), n in team_pubs.items():
        _add(tallies[(span,)], ("fig2a", (duration, age)), (n, top1 * n, top10 * n))
    carried = Counter((tuple(sorted(spans)), facts[pub_id])
                      for pub_id, spans in carriers.items())
    for (spans, pub), n in carried.items():
        rows = tallies.setdefault(spans, {})
        for name, member in (("all", True), ("top10", pub.top10), ("top1", pub.top1)):
            if member:
                _add(rows, ("fig1a", (name, pub.year)), (n,))
        for country in pub.countries:
            _add(rows, ("fig1b", (country,)), (n,))
    return tallies


def write_figure_tallies_csv(tallies: FigureTallies, path: str | Path):
    """One ``spans,table,key,counts`` row per span set, table and key, in
    that order: the spans as ``s-e;s-e``, then as many key fields as
    ``TALLY_KEYS`` names for the table, then its counts."""
    write_csv(path, ["spans", "table", "key", "counts"],
              ((format_intervals(spans), table, *key, *counts)
               for spans in sorted(tallies)
               for (table, key), counts in sorted(tallies[spans].items())))


def read_figure_tallies_csv(path: str | Path) -> FigureTallies:
    tallies: FigureTallies = {}
    rows_of: dict[str, dict] = {}  # spans text -> its rows
    for text, table, *fields in read_csv(path):
        rows = rows_of.get(text)
        if rows is None:
            rows = rows_of[text] = tallies[tuple(parse_intervals(text))] = {}
        types = TALLY_KEYS[table]
        key = tuple(kind(value) for kind, value in zip(types, fields))
        rows[(table, key)] = [int(count) for count in fields[len(types):]]
    return tallies


def filter_margin(tallies: FigureTallies, year_min: int, year_max: int,
                  margin: int) -> FigureSums:
    """The tallies of the teams kept at ``margin``, summed by table and key.
    A team is dropped when its duration span touches the first or last
    ``margin`` years; a publication counts when any team carrying it is
    kept."""
    sums: FigureSums = {}
    for spans, rows in tallies.items():
        if margin > 0 and not any(start > year_min + margin - 1 and end < year_max - margin + 1
                                  for start, end in spans):
            continue
        for (table, key), counts in rows.items():
            _add(sums.setdefault(table, {}), key, counts)
    return sums


# --- prevalence ---------------------------------------------------------------

def team_prevalence(totals: PrevalenceTotals, sums: FigureSums, year_min: int,
                    year_max: int) -> tuple[SeriesTable, SeriesTable]:
    """Share of multi-author publications carried by at least one kept team:
    per year for the whole corpus and its top cited subsets (first table),
    and per country (second table). ``totals`` are the populations."""
    by_year = sums.get("fig1a", {})
    by_country = sums.get("fig1b", {})
    by_year_table = SeriesTable(("population", "year"), percent=True)
    for name in POPULATIONS:
        for year in range(year_min, year_max + 1):
            by_year_table.add_fraction((name, year), by_year.get((name, year), [0])[0],
                                       totals.by_year.get((name, year), 0))
    by_country_table = SeriesTable(("country",), percent=True)
    for country in sorted(totals.by_country):
        by_country_table.add_fraction((country,), by_country.get((country,), [0])[0],
                                      totals.by_country[country])
    return by_year_table, by_country_table


# --- freshness -----------------------------------------------------------------

def _first_ages(sums: FigureSums, which: str) -> dict[int, dict[int, int]]:
    """Kept teams with success at level ``which``: duration -> age of first
    success -> teams."""
    cohorts: dict[int, dict[int, int]] = {}
    for (level, duration, age), (n,) in sums.get("first", {}).items():
        if level == which:
            cohorts.setdefault(duration, {})[age] = n
    return cohorts


def success_prob_by_age(sums: FigureSums, which: str) -> SeriesTable:
    """P(publication is highly cited) by team duration cohort and team age."""
    i = 1 + LEVELS.index(which)
    table = SeriesTable(("duration", "age"), percent=False)
    for key, counts in sorted(sums.get("fig2a", {}).items()):
        table.add_fraction(key, counts[i], counts[0])
    return table


def first_success_distribution(sums: FigureSums, which: str) -> SeriesTable:
    """Among successful teams of each duration: % with first success per age."""
    cohorts = _first_ages(sums, which)
    table = SeriesTable(("duration", "age"), percent=True)
    for duration in sorted(cohorts):
        total = sum(cohorts[duration].values())
        for age in range(1, duration + 1):
            table.add_fraction((duration, age), cohorts[duration].get(age, 0), total)
    return table


def newly_successful_rate(sums: FigureSums, which: str) -> SeriesTable:
    """Per age: % of not yet successful teams whose first success lands there.

    The population at age a holds teams of duration >= a without success
    before a; ages whose population is empty yield a flagged row.
    """
    teams = {duration: n for (duration,), (n,) in sums.get("teams", {}).items()}
    firsts = [(duration, age, n) for duration, ages in _first_ages(sums, which).items()
              for age, n in ages.items()]
    table = SeriesTable(("q", "age"), percent=True)
    label = "0.01" if which == "top1" else "0.10"
    for age in range(1, max(teams, default=0) + 1):
        at_risk = (sum(n for duration, n in teams.items() if duration >= age)
                   - sum(n for duration, first, n in firsts if duration >= age and first < age))
        newly = sum(n for _, first, n in firsts if first == age)
        table.add_fraction((label, age), newly, at_risk)
    return table


# --- composition -----------------------------------------------------------------

def success_by_composition(sums: FigureSums, which: str) -> SeriesTable:
    """P(publication is highly cited) by binned composition metrics, over the
    teams with publications."""
    i = 1 + LEVELS.index(which)
    table = SeriesTable(("metric", "bin"), percent=False)
    for key, counts in sorted(sums.get("fig3", {}).items()):
        table.add_fraction(key, counts[i], counts[0])
    return table


# --- openness -----------------------------------------------------------------

def success_by_impulse_count(sums: FigureSums, which: str) -> tuple[SeriesTable, SeriesTable]:
    """Success odds by impulse count: per team (first table) and per
    publication (second table), with a closed-team baseline row."""
    i = 2 + 2 * LEVELS.index(which)
    table_a = SeriesTable(("impulse", "stratum", "count"), percent=False)
    table_b = SeriesTable(("impulse", "stratum", "count"), percent=False)
    for key, counts in sorted(sums.get("fig5", {}).items()):
        table_a.add_fraction(key, counts[i], counts[0])
        table_b.add_fraction(key, counts[i + 1], counts[1])
    return table_a, table_b


def success_by_impulse_rate(sums: FigureSums, which: str) -> SeriesTable:
    """P(at least one / at least two highly cited publications) by the average
    number of new impulses per year (floor 0.25), closed teams kept as their
    own group."""
    i = 1 + 2 * LEVELS.index(which)
    table = SeriesTable(("group", "bin", "measure"), percent=False)
    for (group, bin_value), counts in sorted(sums.get("fig5c", {}).items()):
        table.add_fraction((group, bin_value, "ge1"), counts[i], counts[0])
        table.add_fraction((group, bin_value, "ge2"), counts[i + 1], counts[0])
    return table


def first_success_shift(sums: FigureSums, which: str) -> SeriesTable:
    """Mean decrease in first-success age versus closed teams, per duration
    cohort, for teams holding persistence / freshness / early-success
    persistence impulses. Synchronous impulses carry no timing information and
    are deliberately absent."""
    cells = {(duration, condition): counts
             for (level, duration, condition), counts in sums.get("fig5d", {}).items()
             if level == which}
    table = SeriesTable(("duration", "condition"), percent=False)
    for duration in sorted(_first_ages(sums, which)):
        closed = cells.get((duration, "closed"))
        closed_mean = Fraction(closed[1], closed[0]) if closed else None
        for condition in _CONDITIONS:
            n, age_sum = cells.get((duration, condition), (0, 0))
            if closed_mean is None:
                table.rows.append(SeriesRow((duration, condition), None, n,
                                            None, "no_closed_baseline"))
            elif not n:
                table.rows.append(SeriesRow((duration, condition), None, 0,
                                            None, "no_population"))
            else:
                decrease = closed_mean - Fraction(age_sum, n)
                table.rows.append(SeriesRow((duration, condition), float(decrease), n))
    return table


# --- one-call bundle ------------------------------------------------------------

def compute_all_figures(totals: PrevalenceTotals, sums: FigureSums,
                        year_min: int, year_max: int) -> dict[str, SeriesTable]:
    """Every figure table, keyed by output file stem, from the prevalence
    populations and the tallies ``filter_margin`` summed."""
    out: dict[str, SeriesTable] = {}
    out["fig1a"], out["fig1b"] = team_prevalence(totals, sums, year_min, year_max)
    for which in LEVELS:
        suffix = _SUFFIX[which]
        out["fig2a" + suffix] = success_prob_by_age(sums, which)
        out["fig2b" + suffix] = first_success_distribution(sums, which)
        out["fig3" + suffix] = success_by_composition(sums, which)
        out["fig5a" + suffix], out["fig5b" + suffix] = success_by_impulse_count(sums, which)
        out["fig5c" + suffix] = success_by_impulse_rate(sums, which)
        out["fig5d" + suffix] = first_success_shift(sums, which)
    add_table = newly_successful_rate(sums, "top10")
    add_table.rows.extend(newly_successful_rate(sums, "top1").rows)
    out["figs2add"] = add_table
    return out
