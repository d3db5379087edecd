"""Assemble teams from cliques, associate publications, compute composition.

Cliques with the same member set merge into one team whose duration spans all
of its (possibly disconnected) intervals. A publication belongs to a team when
its year falls inside one of the team's intervals (never in a gap) and at
least half of the team's members, but no fewer than two, appear among its
authors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

from teammine.cliques import TemporalClique
from teammine.csvio import read_csv, write_csv
from teammine.geo import great_circle_km
from teammine.intervals import Interval, contains_year, format_intervals, parse_intervals
from teammine.ingest import PublicationTable


@dataclass(frozen=True, slots=True)
class CompositionMetrics:
    orgs_per_member: float
    cities_per_member: float
    countries_per_member: float
    mean_city_distance_km: float  # mean pairwise city distance / member count


@dataclass
class Team:
    team_id: int
    members: tuple[str, ...]
    intervals: tuple[Interval, ...]
    duration_start: int
    duration_end: int
    pubs: tuple[str, ...] = ()
    metrics: CompositionMetrics | None = None

    @property
    def duration(self) -> int:
        return self.duration_end - self.duration_start + 1

    def min_overlap(self) -> int:
        """Smallest author overlap that associates a publication."""
        return max(2, -(-len(self.members) // 2))


@dataclass
class TeamTable:
    teams: list[Team] = field(default_factory=list)

    def __post_init__(self):
        self._by_id = {t.team_id: t for t in self.teams}

    def __len__(self):
        return len(self.teams)

    def __iter__(self):
        return iter(self.teams)

    def get(self, team_id: int) -> Team | None:
        return self._by_id.get(team_id)


def assemble_teams(cliques: list[TemporalClique]) -> TeamTable:
    """Group cliques by exact member set; ids follow the canonical sort."""
    grouped: dict[tuple[str, ...], list[Interval]] = {}
    for clique in cliques:
        grouped.setdefault(clique.members, []).append((clique.start, clique.end))
    teams = []
    for team_id, members in enumerate(sorted(grouped)):
        intervals = tuple(sorted(grouped[members]))
        teams.append(Team(
            team_id=team_id,
            members=members,
            intervals=intervals,
            duration_start=intervals[0][0],
            duration_end=intervals[-1][1],
        ))
    return TeamTable(teams)


def build_author_pub_index(pubs: PublicationTable) -> dict[str, list[str]]:
    index: dict[str, list[str]] = {}
    for rec in pubs:
        for entry in rec.authors:
            index.setdefault(entry.author_id, []).append(rec.pub_id)
    return index


def associate_publications(team: Team, pubs: PublicationTable,
                           index: dict[str, list[str]]) -> list[str]:
    """Publication ids associated with the team, sorted by (year, pub_id)."""
    overlap: dict[str, int] = {}
    for member in team.members:
        for pub_id in index.get(member, ()):
            overlap[pub_id] = overlap.get(pub_id, 0) + 1
    need = team.min_overlap()
    chosen = []
    for pub_id, count in overlap.items():
        if count < need:
            continue
        rec = pubs.get(pub_id)
        if contains_year(list(team.intervals), rec.year):
            chosen.append((rec.year, pub_id))
    chosen.sort()
    return [pub_id for _, pub_id in chosen]


def associate_all(teams: TeamTable, pubs: PublicationTable):
    """Fill team.pubs for every team using one shared author index."""
    index = build_author_pub_index(pubs)
    for team in teams:
        team.pubs = tuple(associate_publications(team, pubs, index))


def city_coordinates(pubs: PublicationTable) -> dict[str, tuple[float, float]]:
    """Canonical representative point per city: smallest (lat, lon) observed,
    the first seen on ties (``0.0 == -0.0``).

    Each entry of ``pubs.entries``, distinct by identity as it says, is
    visited once, in first-use order: a repeat of an entry repeats its
    points, which can only tie."""
    coords: dict[str, tuple[float, float]] = {}
    for entry in pubs.entries:
        for aff in entry.affiliations:
            if aff.city_id is None or not aff.has_geo():
                continue
            point = (aff.lat, aff.lon)
            if aff.city_id not in coords or point < coords[aff.city_id]:
                coords[aff.city_id] = point
    return coords


def composition_metrics(team: Team, pubs: PublicationTable,
                        city_coords: dict[str, tuple[float, float]]) -> CompositionMetrics:
    """Distinct orgs / cities / countries of team members on team publications,
    normalized by team size; plus the mean pairwise city distance per member.

    Affiliations of co-authors outside the team are ignored.
    """
    members = set(team.members)
    affs = {aff for pub_id in team.pubs for author in pubs.get(pub_id).authors
            if author.author_id in members for aff in author.affiliations}
    orgs = {aff.org_id for aff in affs} - {None}
    cities = {aff.city_id for aff in affs} - {None}
    countries = {aff.country for aff in affs} - {None}
    size = len(team.members)
    located = sorted(c for c in cities if c in city_coords)
    mean_distance = 0.0
    if len(located) >= 2:
        total = 0.0
        pairs = 0
        for i in range(len(located)):
            lat1, lon1 = city_coords[located[i]]
            for j in range(i + 1, len(located)):
                lat2, lon2 = city_coords[located[j]]
                total += great_circle_km(lat1, lon1, lat2, lon2)
                pairs += 1
        mean_distance = total / pairs / size
    return CompositionMetrics(
        orgs_per_member=len(orgs) / size,
        cities_per_member=len(cities) / size,
        countries_per_member=len(countries) / size,
        mean_city_distance_km=mean_distance,
    )


def compute_all_metrics(teams: TeamTable, pubs: PublicationTable):
    coords = city_coordinates(pubs)
    for team in teams:
        team.metrics = composition_metrics(team, pubs, coords)


# --- success profiles ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Success:
    """One success level, top-10% or top-1%, over a team's publications."""
    flags: tuple[bool, ...]  # one per publication, in team.pubs order
    count: int
    first_year: int | None


@dataclass(frozen=True, slots=True)
class SuccessProfile:
    """A team's publication years, in team.pubs order, and its success at
    each level."""
    years: tuple[int, ...]
    top10: Success
    top1: Success


def _success(years: list[int], flags: list[bool]) -> Success:
    first = next((year for year, hit in zip(years, flags) if hit), None)
    return Success(tuple(flags), sum(flags), first)


class TeamPubFacts(NamedTuple):
    """What the figure tables need of one team publication."""
    year: int
    top10: bool
    top1: bool
    countries: tuple[str, ...]  # of every author's affiliations, sorted


def team_pub_facts(teams, pubs: PublicationTable, tags) -> dict[str, TeamPubFacts]:
    """The facts of each distinct publication of ``teams``, by pub_id in the
    order the teams first list them: the one place that reads team
    publications against the corpus and the success tags (``tags.top10``,
    ``tags.top1``). A team's publications mostly repeat one tuple of author
    entries, so the countries are collected once per distinct tuple."""
    top10, top1 = tags.top10, tags.top1
    countries_of: dict[tuple, tuple[str, ...]] = {}
    facts = {}
    for team in teams:
        for pub_id in team.pubs:
            if pub_id in facts:
                continue
            rec = pubs.get(pub_id)
            countries = countries_of.get(rec.authors)
            if countries is None:
                countries = countries_of[rec.authors] = tuple(sorted(
                    {aff.country for entry in rec.authors for aff in entry.affiliations}
                    - {None}))
            facts[pub_id] = TeamPubFacts(rec.year, pub_id in top10, pub_id in top1, countries)
    return facts


def success_profiles(teams, facts: dict[str, TeamPubFacts]) -> dict[int, SuccessProfile]:
    """Each team's success profile, keyed by team id, from the facts of its
    publications."""
    profiles = {}
    for team in teams:
        team_facts = list(map(facts.__getitem__, team.pubs))  # sorted by (year, pub_id)
        years = [pub.year for pub in team_facts]
        profiles[team.team_id] = SuccessProfile(
            tuple(years), _success(years, [pub.top10 for pub in team_facts]),
            _success(years, [pub.top1 for pub in team_facts]))
    return profiles


# --- artifacts ----------------------------------------------------------------

def _team_row(team: Team, profile: SuccessProfile) -> list:
    m = team.metrics
    return [team.team_id, ";".join(team.members), format_intervals(team.intervals),
            team.duration_start, team.duration_end, len(team.pubs),
            profile.top10.count, profile.top1.count,
            repr(m.orgs_per_member), repr(m.cities_per_member),
            repr(m.countries_per_member), repr(m.mean_city_distance_km)]


def write_teams_csv(teams: TeamTable, profiles: dict[int, SuccessProfile],
                    teams_path: str | Path, team_pubs_path: str | Path):
    write_csv(teams_path, ["team_id", "members", "intervals", "duration_start",
                           "duration_end", "n_pubs", "n_top10", "n_top1",
                           "orgs_pm", "cities_pm", "countries_pm", "dist_pm"],
              (_team_row(team, profiles[team.team_id]) for team in teams))
    write_csv(team_pubs_path, ["team_id", "pub_id"],
              ((team.team_id, pub_id) for team in teams for pub_id in team.pubs))


def write_team_pub_facts_csv(facts: dict[str, TeamPubFacts], path: str | Path):
    """One row per team publication; its countries fill the columns from
    ``countries`` on, one each, so a row without a country ends at ``top1``."""
    write_csv(path, ["pub_id", "year", "top10", "top1", "countries"],
              ((pub_id, pub.year, int(pub.top10), int(pub.top1), *pub.countries)
               for pub_id, pub in facts.items()))


def read_team_pub_facts_csv(path: str | Path) -> dict[str, TeamPubFacts]:
    return {pub_id: TeamPubFacts(int(year), top10 == "1", top1 == "1", tuple(countries))
            for pub_id, year, top10, top1, *countries in read_csv(path)}


def read_teams_csv(teams_path: str | Path, team_pubs_path: str | Path) -> TeamTable:
    pubs_by_team: dict[int, list[str]] = {}
    for team_id, pub_id in read_csv(team_pubs_path):
        pubs_by_team.setdefault(int(team_id), []).append(pub_id)
    teams = []
    for row in read_csv(teams_path):
        team_id = int(row[0])
        teams.append(Team(
            team_id=team_id,
            members=tuple(row[1].split(";")),
            intervals=tuple(parse_intervals(row[2])),
            duration_start=int(row[3]),
            duration_end=int(row[4]),
            pubs=tuple(pubs_by_team.get(team_id, ())),
            metrics=CompositionMetrics(*map(float, row[8:12])),
        ))
    return TeamTable(teams)
