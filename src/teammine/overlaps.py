"""Team overlap taxonomy: kind x relative timing -> impulse for the focal team.

Two teams form a candidate pair when their member overlap reaches half of the
larger member set. The member-set relation decides the kind: a proper subset
of the focal team is a core, a proper superset an extension, anything else an
offshoot (split by whether a preceding core of the focal team sits inside the
shared members). Relative timing compares duration starts.

Impulses per cell:

    kind \\ timing          preceding     simultaneous   succeeding
    core                    persistence   (none)         impossible
    extension               impossible    synchronous    freshness
    offshoot, shared core   (none)        synchronous    freshness
    offshoot, no shared     persistence   synchronous    freshness

A simultaneous core's first-year output is almost surely shared with the focal
team, and a preceding offshoot with a shared core would double-count the
core's persistence impulse; both are recorded with impulse "none". Clique
structure forces a core's span to contain the focal span (and an extension's
to sit inside it), and two teams never share one member set. A pair breaking
such a lemma is classified as the lemma's name instead of a relation, and the
batch classifier counts those names as anomalies.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

from teammine.csvio import read_csv, write_csv
from teammine.teams import SuccessProfile, Team, TeamTable


class OverlapKind(Enum):
    CORE = "core"
    EXTENSION = "extension"
    OFFSHOOT_SHARED_CORE = "offshoot_shared_core"
    OFFSHOOT_NO_SHARED_CORE = "offshoot_no_shared_core"


class Timing(Enum):
    PRECEDING = "preceding"
    SIMULTANEOUS = "simultaneous"
    SUCCEEDING = "succeeding"


class Impulse(Enum):
    PERSISTENCE = "persistence"
    SYNCHRONOUS = "synchronous"
    FRESHNESS = "freshness"
    NONE = "none"


_IMPULSE_TABLE = {
    (OverlapKind.CORE, Timing.PRECEDING): Impulse.PERSISTENCE,
    (OverlapKind.CORE, Timing.SIMULTANEOUS): Impulse.NONE,
    (OverlapKind.EXTENSION, Timing.SIMULTANEOUS): Impulse.SYNCHRONOUS,
    (OverlapKind.EXTENSION, Timing.SUCCEEDING): Impulse.FRESHNESS,
    (OverlapKind.OFFSHOOT_SHARED_CORE, Timing.PRECEDING): Impulse.NONE,
    (OverlapKind.OFFSHOOT_SHARED_CORE, Timing.SIMULTANEOUS): Impulse.SYNCHRONOUS,
    (OverlapKind.OFFSHOOT_SHARED_CORE, Timing.SUCCEEDING): Impulse.FRESHNESS,
    (OverlapKind.OFFSHOOT_NO_SHARED_CORE, Timing.PRECEDING): Impulse.PERSISTENCE,
    (OverlapKind.OFFSHOOT_NO_SHARED_CORE, Timing.SIMULTANEOUS): Impulse.SYNCHRONOUS,
    (OverlapKind.OFFSHOOT_NO_SHARED_CORE, Timing.SUCCEEDING): Impulse.FRESHNESS,
}


@dataclass(frozen=True, slots=True)
class OverlapRelation:
    focal_team_id: int
    other_team_id: int
    kind: OverlapKind
    timing: Timing
    impulse: Impulse


def build_member_index(teams: TeamTable) -> dict[str, list[int]]:
    index: dict[str, list[int]] = {}
    for team in teams:
        for member in team.members:
            index.setdefault(member, []).append(team.team_id)
    return index


def overlap_candidates_for(focal: Team, teams: TeamTable,
                           index: dict[str, list[int]]) -> list[int]:
    """Other team ids whose member overlap reaches half of the larger set."""
    shared: dict[int, int] = {}
    for member in focal.members:
        for team_id in index.get(member, ()):
            if team_id != focal.team_id:
                shared[team_id] = shared.get(team_id, 0) + 1
    out = []
    for team_id in sorted(shared):
        other = teams.get(team_id)
        if 2 * shared[team_id] >= max(len(other.members), len(focal.members)):
            out.append(team_id)
    return out


def _timing(focal: Team, other: Team) -> Timing:
    if other.duration_start < focal.duration_start:
        return Timing.PRECEDING
    if other.duration_start == focal.duration_start:
        return Timing.SIMULTANEOUS
    return Timing.SUCCEEDING


def shared_core_test(focal: Team, offshoot: Team, teams: TeamTable,
                     index: dict[str, list[int]]) -> bool:
    """True when a preceding core of the focal team lies inside the overlap."""
    overlap = set(focal.members) & set(offshoot.members)
    checked: set[int] = set()
    for member in sorted(overlap):
        for team_id in index.get(member, ()):
            if team_id in checked or team_id == focal.team_id:
                continue
            checked.add(team_id)
            core = teams.get(team_id)
            if not set(core.members) <= overlap:
                continue
            if 2 * len(core.members) < len(focal.members):
                continue  # too small to count as an overlapping core
            if core.duration_start < focal.duration_start:
                return True
    return False


def classify_overlap(focal: Team, other: Team, teams: TeamTable,
                     index: dict[str, list[int]]) -> OverlapRelation | str:
    """Classify one candidate pair, or name the clique-structure lemma it
    breaks: ``core_span``, ``extension_span``, ``duplicate_member_set`` or
    ``infeasible_cell``."""
    members_f = set(focal.members)
    members_o = set(other.members)
    timing = _timing(focal, other)
    if members_o < members_f:
        kind = OverlapKind.CORE
        spans_ok = (other.duration_start <= focal.duration_start
                    and other.duration_end >= focal.duration_end
                    and (other.duration_start < focal.duration_start
                         or other.duration_end > focal.duration_end))
        if not spans_ok:
            return "core_span"
    elif members_f < members_o:
        kind = OverlapKind.EXTENSION
        spans_ok = (focal.duration_start <= other.duration_start
                    and other.duration_end <= focal.duration_end
                    and (focal.duration_start < other.duration_start
                         or other.duration_end < focal.duration_end))
        if not spans_ok:
            return "extension_span"
    elif members_f == members_o:
        return "duplicate_member_set"
    elif shared_core_test(focal, other, teams, index):
        kind = OverlapKind.OFFSHOOT_SHARED_CORE
    else:
        kind = OverlapKind.OFFSHOOT_NO_SHARED_CORE
    impulse = _IMPULSE_TABLE.get((kind, timing))
    if impulse is None:
        return "infeasible_cell"
    return OverlapRelation(focal.team_id, other.team_id, kind, timing, impulse)


def classify_all(teams: TeamTable) -> tuple[list[OverlapRelation], dict[str, int]]:
    """Relations for every candidate pair, plus anomaly counts.

    Pairs that break a structural lemma are excluded from the relation list
    and tallied by lemma; noise-free corpora must produce zero anomalies.
    """
    index = build_member_index(teams)
    relations: list[OverlapRelation] = []
    anomalies: dict[str, int] = {}
    for focal in teams:
        for other_id in overlap_candidates_for(focal, teams, index):
            result = classify_overlap(focal, teams.get(other_id), teams, index)
            if isinstance(result, str):
                anomalies[result] = anomalies.get(result, 0) + 1
            else:
                relations.append(result)
    return relations, anomalies


# --- impulse summaries --------------------------------------------------------

@dataclass
class ImpulseSummary:
    """A team's impulse counters: ``<impulse>`` counts the relations giving
    it, ``<impulse>_<level>`` those whose source team has success at that
    level, and ``persistence_early_<level>`` those whose source succeeded
    before the focal team started. The fields, in order, are the columns of
    ``impulses.csv``."""
    team_id: int
    persistence: int = 0
    synchronous: int = 0
    freshness: int = 0
    persistence_top10: int = 0
    persistence_top1: int = 0
    synchronous_top10: int = 0
    synchronous_top1: int = 0
    freshness_top10: int = 0
    freshness_top1: int = 0
    persistence_early_top10: int = 0
    persistence_early_top1: int = 0
    impulses_per_year: float = 0.0

    @property
    def total(self) -> int:
        return self.persistence + self.synchronous + self.freshness


def impulse_summary(focal: Team, relations: list[OverlapRelation],
                    profiles: dict[int, SuccessProfile]) -> ImpulseSummary:
    """Impulse counters for one focal team over the relations it is focal in."""
    summary = ImpulseSummary(team_id=focal.team_id)
    counts = vars(summary)  # the counters, by field name
    for rel in relations:
        if rel.impulse is Impulse.NONE:
            continue
        impulse = rel.impulse.value
        source = profiles[rel.other_team_id]
        counts[impulse] += 1
        for level in ("top10", "top1"):
            success = getattr(source, level)
            if success.count:
                counts[f"{impulse}_{level}"] += 1
                if (rel.impulse is Impulse.PERSISTENCE
                        and success.first_year < focal.duration_start):
                    counts[f"persistence_early_{level}"] += 1
    summary.impulses_per_year = summary.total / focal.duration
    return summary


def summarize_all(teams: TeamTable, relations: list[OverlapRelation],
                  profiles: dict[int, SuccessProfile]) -> dict[int, ImpulseSummary]:
    """One summary per team, closed teams included (all-zero counters)."""
    by_focal: dict[int, list[OverlapRelation]] = {}
    for rel in relations:
        by_focal.setdefault(rel.focal_team_id, []).append(rel)
    return {
        team.team_id: impulse_summary(team, by_focal.get(team.team_id, []), profiles)
        for team in teams
    }


# --- artifacts ----------------------------------------------------------------

def write_overlaps_csv(relations: list[OverlapRelation], path: str | Path):
    write_csv(path, ["focal_id", "other_id", "kind", "timing", "impulse"],
              ((rel.focal_team_id, rel.other_team_id, rel.kind.value, rel.timing.value,
                rel.impulse.value) for rel in relations))


def read_overlaps_csv(path: str | Path) -> list[OverlapRelation]:
    return [OverlapRelation(int(focal), int(other), OverlapKind(kind), Timing(timing),
                            Impulse(impulse))
            for focal, other, kind, timing, impulse in read_csv(path)]


def write_overlap_anomalies_csv(anomalies: dict[str, int], path: str | Path):
    write_csv(path, ["lemma", "count"], sorted(anomalies.items()))


IMPULSE_COLUMNS = [f.name for f in fields(ImpulseSummary)]
_COUNT_COLUMNS = IMPULSE_COLUMNS[:-1]


def write_impulses_csv(summaries: dict[int, ImpulseSummary], path: str | Path):
    write_csv(path, IMPULSE_COLUMNS,
              ([*(getattr(s, col) for col in _COUNT_COLUMNS), repr(s.impulses_per_year)]
               for _, s in sorted(summaries.items())))


def read_impulses_csv(path: str | Path) -> dict[int, ImpulseSummary]:
    summaries = {}
    for row in read_csv(path):
        summary = ImpulseSummary(**{col: int(value) for col, value in zip(_COUNT_COLUMNS, row)},
                                 impulses_per_year=float(row[-1]))
        summaries[summary.team_id] = summary
    return summaries
