"""The figure tables as the stats stage computed them before the overlaps
stage tallied them per duration span: each table counted team by team over
the teams kept at the margin. ``team_prevalence`` takes the populations of
the tag stage and the facts of the teams stage; the other tables take the
teams, their success profiles and their impulse summaries.
"""

import math
from fractions import Fraction

from teammine.analytics import POPULATIONS, PrevalenceTotals, SeriesRow, SeriesTable
from teammine.overlaps import Impulse, ImpulseSummary
from teammine.teams import SuccessProfile, Team, TeamPubFacts


def filter_margin(teams: list[Team], year_min: int, year_max: int, margin: int) -> list[Team]:
    """Drop teams whose duration span touches the first or last margin years."""
    if margin <= 0:
        return list(teams)
    return [t for t in teams
            if t.duration_start > year_min + margin - 1
            and t.duration_end < year_max - margin + 1]


def team_prevalence(totals: PrevalenceTotals, facts: dict[str, TeamPubFacts],
                    teams: list[Team], year_min: int,
                    year_max: int) -> tuple[SeriesTable, SeriesTable]:
    """Share of multi-author publications carried by at least one of
    ``teams``: per year for the whole corpus and its top cited subsets (first
    table), and per country (second table). ``totals`` are the populations,
    ``facts`` hold each team publication's year, tiers and countries."""
    by_year: dict[tuple[str, int], int] = {}
    by_country: dict[str, int] = {}
    for pub_id in {pub_id for team in teams for pub_id in team.pubs}:
        pub = facts[pub_id]
        for name, member in (("all", True), ("top10", pub.top10), ("top1", pub.top1)):
            if member:
                by_year[(name, pub.year)] = by_year.get((name, pub.year), 0) + 1
        for country in pub.countries:
            by_country[country] = by_country.get(country, 0) + 1
    by_year_table = SeriesTable(("population", "year"), percent=True)
    for name in POPULATIONS:
        for year in range(year_min, year_max + 1):
            by_year_table.add_fraction((name, year), by_year.get((name, year), 0),
                                       totals.by_year.get((name, year), 0))
    by_country_table = SeriesTable(("country",), percent=True)
    for country in sorted(totals.by_country):
        by_country_table.add_fraction((country,), by_country.get(country, 0),
                                      totals.by_country[country])
    return by_year_table, by_country_table


# --- freshness -----------------------------------------------------------------

def success_prob_by_age(teams: list[Team], profiles: dict[int, SuccessProfile],
                        which: str) -> SeriesTable:
    """P(publication is highly cited) by team duration cohort and team age."""
    cells: dict[tuple[int, int], list[int]] = {}
    for team in teams:
        profile = profiles[team.team_id]
        for year, hit in zip(profile.years, getattr(profile, which).flags):
            cell = cells.setdefault((team.duration, year - team.duration_start + 1), [0, 0])
            cell[0] += 1
            cell[1] += hit
    table = SeriesTable(("duration", "age"), percent=False)
    for cohort, age in sorted(cells):
        n, count = cells[(cohort, age)]
        table.add_fraction((cohort, age), count, n)
    return table


def first_success_distribution(teams: list[Team], profiles: dict[int, SuccessProfile],
                               which: str) -> SeriesTable:
    """Among successful teams of each duration: % with first success per age."""
    cohorts: dict[int, dict[int, int]] = {}
    totals: dict[int, int] = {}
    for team in teams:
        first = getattr(profiles[team.team_id], which).first_year
        if first is None:
            continue
        age = first - team.duration_start + 1
        cohorts.setdefault(team.duration, {})
        cohorts[team.duration][age] = cohorts[team.duration].get(age, 0) + 1
        totals[team.duration] = totals.get(team.duration, 0) + 1
    table = SeriesTable(("duration", "age"), percent=True)
    for duration in sorted(cohorts):
        for age in range(1, duration + 1):
            table.add_fraction((duration, age), cohorts[duration].get(age, 0), totals[duration])
    return table


def newly_successful_rate(teams: list[Team], profiles: dict[int, SuccessProfile],
                          which: str) -> SeriesTable:
    """Per age: % of not yet successful teams whose first success lands there.

    The population at age a holds teams of duration >= a without success
    before a; ages whose population is empty yield a flagged row.
    """
    max_duration = max((t.duration for t in teams), default=0)
    first_ages = []
    for team in teams:
        first = getattr(profiles[team.team_id], which).first_year
        first_ages.append((None if first is None else first - team.duration_start + 1,
                           team.duration))
    table = SeriesTable(("q", "age"), percent=True)
    label = "0.01" if which == "top1" else "0.10"
    for age in range(1, max_duration + 1):
        at_risk = sum(1 for first, duration in first_ages
                      if duration >= age and (first is None or first >= age))
        newly = sum(1 for first, duration in first_ages if first == age)
        table.add_fraction((label, age), newly, at_risk)
    return table


# --- composition -----------------------------------------------------------------

def _quarter_bin(value: float) -> float:
    return math.floor(value * 4) / 4


def success_by_composition(teams: list[Team], profiles: dict[int, SuccessProfile],
                           which: str) -> SeriesTable:
    """P(publication is highly cited) by binned composition metrics.

    Counts per member round down to 0.25 increments; mean city distance rounds
    down to 10 km increments.
    """
    bins: dict[tuple[str, float], list[int]] = {}
    for team in teams:
        if not team.pubs or team.metrics is None:
            continue
        n_top = getattr(profiles[team.team_id], which).count
        metric_bins = (
            ("orgs_pm", _quarter_bin(team.metrics.orgs_per_member)),
            ("cities_pm", _quarter_bin(team.metrics.cities_per_member)),
            ("countries_pm", _quarter_bin(team.metrics.countries_per_member)),
            ("dist_km", float(int(team.metrics.mean_city_distance_km // 10) * 10)),
        )
        for metric, bin_value in metric_bins:
            cell = bins.setdefault((metric, bin_value), [0, 0])
            cell[0] += len(team.pubs)
            cell[1] += n_top
    table = SeriesTable(("metric", "bin"), percent=False)
    for metric, bin_value in sorted(bins):
        n, count = bins[(metric, bin_value)]
        table.add_fraction((metric, bin_value), count, n)
    return table


# --- openness -----------------------------------------------------------------

_IMPULSES = tuple(impulse.value for impulse in Impulse if impulse is not Impulse.NONE)


def success_by_impulse_count(teams: list[Team], summaries: dict[int, ImpulseSummary],
                             profiles: dict[int, SuccessProfile],
                             which: str) -> tuple[SeriesTable, SeriesTable]:
    """Success odds by impulse count: per team (first table) and per
    publication (second table), with a closed-team baseline row."""
    team_cells: dict[tuple[str, str, int], list[int]] = {}
    pub_cells: dict[tuple[str, str, int], list[int]] = {}

    def tally(key, team, successful, n_top):
        tc = team_cells.setdefault(key, [0, 0])
        tc[0] += 1
        tc[1] += successful
        pc = pub_cells.setdefault(key, [0, 0])
        pc[0] += len(team.pubs)
        pc[1] += n_top

    for team in teams:
        summary = summaries[team.team_id]
        n_top = getattr(profiles[team.team_id], which).count
        successful = n_top > 0
        if summary.total == 0:
            tally(("closed", "any", 0), team, successful, n_top)
            continue
        for impulse in _IMPULSES:
            for stratum in ("any", "top10", "top1"):
                count = getattr(summary, impulse if stratum == "any" else f"{impulse}_{stratum}")
                if count >= 1:
                    tally((impulse, stratum, count), team, successful, n_top)
    table_a = SeriesTable(("impulse", "stratum", "count"), percent=False)
    table_b = SeriesTable(("impulse", "stratum", "count"), percent=False)
    for key in sorted(team_cells):
        n, count = team_cells[key]
        table_a.add_fraction(key, count, n)
        n, count = pub_cells[key]
        table_b.add_fraction(key, count, n)
    return table_a, table_b


def success_by_impulse_rate(teams: list[Team], summaries: dict[int, ImpulseSummary],
                            profiles: dict[int, SuccessProfile], which: str) -> SeriesTable:
    """P(at least one / at least two highly cited publications) by the average
    number of new impulses per year, closed teams kept as their own group."""
    cells: dict[tuple[str, float], list[int]] = {}
    for team in teams:
        summary = summaries[team.team_id]
        if summary.total == 0:
            key = ("closed", 0.0)
        else:
            key = ("open", _quarter_bin(summary.impulses_per_year))
        cell = cells.setdefault(key, [0, 0, 0])
        n_top = getattr(profiles[team.team_id], which).count
        cell[0] += 1
        cell[1] += n_top >= 1
        cell[2] += n_top >= 2
    table = SeriesTable(("group", "bin", "measure"), percent=False)
    for group, bin_value in sorted(cells):
        n, ge1, ge2 = cells[(group, bin_value)]
        table.add_fraction((group, bin_value, "ge1"), ge1, n)
        table.add_fraction((group, bin_value, "ge2"), ge2, n)
    return table


def first_success_shift(teams: list[Team], summaries: dict[int, ImpulseSummary],
                        profiles: dict[int, SuccessProfile], which: str) -> SeriesTable:
    """Mean decrease in first-success age versus closed teams, per duration
    cohort, for teams holding persistence / freshness / early-success
    persistence impulses. Synchronous impulses carry no timing information and
    are deliberately absent."""
    cohort_ages: dict[int, dict[str, list[int]]] = {}
    for team in teams:
        first = getattr(profiles[team.team_id], which).first_year
        if first is None:
            continue
        age = first - team.duration_start + 1
        summary = summaries[team.team_id]
        conditions = []
        if summary.total == 0:
            conditions.append("closed")
        if summary.persistence >= 1:
            conditions.append("persistence")
        if summary.freshness >= 1:
            conditions.append("freshness")
        if getattr(summary, f"persistence_early_{which}") >= 1:
            conditions.append("early_persistence")
        buckets = cohort_ages.setdefault(team.duration, {})
        for condition in conditions:
            buckets.setdefault(condition, []).append(age)
    table = SeriesTable(("duration", "condition"), percent=False)
    for duration in sorted(cohort_ages):
        buckets = cohort_ages[duration]
        closed = buckets.get("closed", [])
        closed_mean = Fraction(sum(closed), len(closed)) if closed else None
        for condition in ("closed", "persistence", "freshness", "early_persistence"):
            ages = buckets.get(condition, [])
            if closed_mean is None:
                table.rows.append(SeriesRow((duration, condition), None, len(ages),
                                            None, "no_closed_baseline"))
            elif not ages:
                table.rows.append(SeriesRow((duration, condition), None, 0,
                                            None, "no_population"))
            else:
                decrease = closed_mean - Fraction(sum(ages), len(ages))
                table.rows.append(SeriesRow((duration, condition), float(decrease),
                                            len(ages)))
    return table


# --- one-call bundle ------------------------------------------------------------

def compute_all_figures(totals: PrevalenceTotals, facts: dict[str, TeamPubFacts],
                        teams: list[Team], summaries: dict[int, ImpulseSummary],
                        profiles: dict[int, SuccessProfile],
                        year_min: int, year_max: int) -> dict[str, SeriesTable]:
    """Every figure table, keyed by output file stem."""
    out: dict[str, SeriesTable] = {}
    out["fig1a"], out["fig1b"] = team_prevalence(totals, facts, teams, year_min, year_max)
    for which, suffix in (("top1", ""), ("top10", "_top10")):
        out["fig2a" + suffix] = success_prob_by_age(teams, profiles, which)
        out["fig2b" + suffix] = first_success_distribution(teams, profiles, which)
        out["fig3" + suffix] = success_by_composition(teams, profiles, which)
        fig5a, fig5b = success_by_impulse_count(teams, summaries, profiles, which)
        out["fig5a" + suffix] = fig5a
        out["fig5b" + suffix] = fig5b
        out["fig5c" + suffix] = success_by_impulse_rate(teams, summaries, profiles, which)
        out["fig5d" + suffix] = first_success_shift(teams, summaries, profiles, which)
    add = newly_successful_rate(teams, profiles, "top10")
    add.rows.extend(newly_successful_rate(teams, profiles, "top1").rows)
    out["figs2add"] = add
    return out
