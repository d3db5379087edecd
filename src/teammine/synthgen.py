"""Synthetic corpora with planted teams, overlaps, and citation outcomes.

The generator writes the same publication/citation formats the ingest stage
reads, plus a ground-truth file listing every planted team, the overlap
relations implied by the planted geometry, and the success tag each
publication must receive.

Construction guarantees (checked up front, violations raise):

* every planted pair co-publishes in every year of each team interval, often
  enough that the persistence rule reproduces the interval exactly;
* when several teams share a pair, their intervals either nest (one contains
  the others it touches) or sit at least a full persistence window apart, so
  periods never bridge between intervals;
* the interval intersection over a team's pairs equals the team's intervals,
  and no outside author is connected to all members across a whole interval,
  so each planted team is a temporal maximal clique with exactly its spans;
* background pairs stay below the persistence minimum, so with a disjoint
  background author pool the planted teams are the only teams.

Every generated publication is an Article in field ``F0``, so a (field,
year) cell of the percentile rule is one publication year. Success planting
controls citation counts per cell: intended successes receive distinct counts
descending from the top, everything else zero, and single-author filler
publications pad each cell so the intended set is exactly what the percentile
rule tags. All randomness flows from one seed through a Mersenne Twister
(``random.Random``), so corpora are byte-for-byte reproducible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from teammine.errors import InfeasibleConfigError
from teammine.intervals import Interval, covers, intersect, merge_union
from teammine.pairs import canonical_pair
from teammine.persistence import MIN_PUBS, WINDOW_LEN

_COUNTRIES = ("US", "CN", "NL", "DE", "GB", "FR", "JP", "BR", "IN", "AU")
_FIELD = "F0"


@dataclass(frozen=True)
class PlantedTeam:
    members: tuple[str, ...]
    intervals: tuple[Interval, ...]
    pubs_per_year: int = 1
    success_ages: tuple[int, ...] = ()  # ages (1-based on the duration span) given a success


@dataclass
class SynthConfig:
    seed: int = 0
    year_min: int = 1
    year_max: int = 13
    teams: tuple[PlantedTeam, ...] = ()
    n_background_authors: int = 0
    background_pubs: int = 0
    background_multi_frac: float = 0.5
    background_max_authors: int = 3
    success_hazard: float | None = None  # per-age success draw for teams without a plan
    success_q: str = "0.10"              # percentile the planted successes target


@dataclass
class GroundTruth:
    year_min: int
    year_max: int
    seed: int
    teams: list[dict]
    overlaps: list[dict]
    tags: dict[str, tuple[bool, bool]]  # pub_id -> (top10, top1); absent = untagged
    n_publications: int = 0
    n_authors: int = 0

    def to_json(self, path: str | Path):
        payload = {
            "year_min": self.year_min,
            "year_max": self.year_max,
            "seed": self.seed,
            "teams": self.teams,
            "overlaps": self.overlaps,
            "tags": {k: [int(v[0]), int(v[1])] for k, v in sorted(self.tags.items())},
            "n_publications": self.n_publications,
            "n_authors": self.n_authors,
        }
        with open(path, "w", encoding="utf-8", newline="") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")

    @classmethod
    def from_json(cls, path: str | Path) -> "GroundTruth":
        """The truth written by ``to_json``; a file of another shape raises
        ValueError, KeyError, TypeError or AttributeError."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        teams, overlaps, tags = payload["teams"], payload["overlaps"], payload["tags"]
        if not (type(teams) is list and all(map(_is_truth_team, teams))
                and type(overlaps) is list and all(map(_is_truth_overlap, overlaps))
                and all(type(v) is list and len(v) == 2 for v in tags.values())):
            raise ValueError("malformed team, overlap or tag entry")
        return cls(
            year_min=payload["year_min"],
            year_max=payload["year_max"],
            seed=payload["seed"],
            teams=teams,
            overlaps=overlaps,
            tags={k: (bool(v[0]), bool(v[1])) for k, v in tags.items()},
            n_publications=payload["n_publications"],
            n_authors=payload["n_authors"],
        )


def _is_text_list(value: object) -> bool:
    return type(value) is list and all(type(item) is str for item in value)


def _is_truth_team(team: object) -> bool:
    """Whether a truth.json team holds the members and [start, end] year
    intervals that ``verify_against_truth`` reads."""
    return (type(team) is dict and _is_text_list(team.get("members")) and team["members"] != []
            and type(team.get("intervals")) is list
            and all(type(iv) is list and [type(y) for y in iv] == [int, int]
                    for iv in team["intervals"]))


def _is_truth_overlap(rel: object) -> bool:
    return (type(rel) is dict and _is_text_list(rel.get("focal")) and _is_text_list(rel.get("other"))
            and all(type(rel.get(key)) is str for key in ("kind", "timing", "impulse")))


# --- configuration validation ---------------------------------------------------

def _pair_interval_map(teams: tuple[PlantedTeam, ...]) -> dict[tuple[str, str], list[Interval]]:
    pair_intervals: dict[tuple[str, str], list[Interval]] = {}
    for team in teams:
        for i in range(len(team.members)):
            for j in range(i + 1, len(team.members)):
                pair = canonical_pair(team.members[i], team.members[j])
                pair_intervals.setdefault(pair, []).extend(team.intervals)
    return pair_intervals


def validate_config(config: SynthConfig):
    """Check the construction guarantees; raise InfeasibleConfigError if one fails."""
    def fail(rule: str, detail: str):
        raise InfeasibleConfigError(f"{rule}: {detail}")

    for idx, team in enumerate(config.teams):
        if len(team.members) < 2:
            fail("team_size", f"team {idx} needs at least two members")
        if len(set(team.members)) != len(team.members):
            fail("team_size", f"team {idx} repeats a member")
        if not team.intervals:
            fail("team_intervals", f"team {idx} has no intervals")
        merged = merge_union(list(team.intervals))
        if merged != sorted(team.intervals):
            fail("team_intervals", f"team {idx} intervals overlap or touch")
        for start, end in team.intervals:
            if start < config.year_min or end > config.year_max:
                fail("team_intervals", f"team {idx} interval [{start},{end}] "
                                       f"outside the year window")
            length = end - start + 1
            if team.pubs_per_year * min(WINDOW_LEN, length) < MIN_PUBS:
                fail("pubs_per_year", f"team {idx} interval [{start},{end}] cannot "
                                      f"satisfy persistence with "
                                      f"{team.pubs_per_year} publications per year")
        duration = team.intervals[-1][1] - team.intervals[0][0] + 1
        for age in team.success_ages:
            year = team.intervals[0][0] + age - 1
            if not 1 <= age <= duration or not any(s <= year <= e for s, e in team.intervals):
                fail("success_ages", f"team {idx} success age {age} falls outside "
                                     f"its intervals")

    pair_intervals = _pair_interval_map(config.teams)
    pair_periods: dict[tuple[str, str], list[Interval]] = {}
    for pair, intervals in pair_intervals.items():
        merged = merge_union(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            if s2 - e1 < WINDOW_LEN:
                fail("pair_gap", f"pair {pair} intervals [{s1},{e1}] and [{s2},{e2}] "
                                 f"are close enough to bridge")
        for period in merged:
            if period not in intervals:
                fail("pair_nesting", f"pair {pair} merged period {period} matches no "
                                     f"single planted interval")
        pair_periods[pair] = merged

    adjacency: dict[str, dict[str, list[Interval]]] = {}
    for (a, b), periods in pair_periods.items():
        adjacency.setdefault(a, {})[b] = periods
        adjacency.setdefault(b, {})[a] = periods

    for idx, team in enumerate(config.teams):
        support = None
        for i in range(len(team.members)):
            for j in range(i + 1, len(team.members)):
                periods = pair_periods[canonical_pair(team.members[i], team.members[j])]
                support = list(periods) if support is None else intersect(support, periods)
        if support != sorted(team.intervals):
            fail("team_support", f"team {idx} pair periods imply spans {support}, "
                                 f"not the planted {sorted(team.intervals)}")
        members = set(team.members)
        outsiders: set[str] = set()
        for member in team.members:
            outsiders.update(adjacency.get(member, ()))
        for v in sorted(outsiders - members):
            cover: list[Interval] | None = None
            for member in team.members:
                periods = adjacency.get(v, {}).get(member)
                if not periods:
                    cover = []
                    break
                cover = list(periods) if cover is None else intersect(cover, periods)
                if not cover:
                    break
            if cover:
                for interval in team.intervals:
                    if covers(cover, interval):
                        fail("team_maximality", f"author {v} is connected to all of "
                                                f"team {idx} across {interval}")

    if config.background_pubs and config.n_background_authors < config.background_max_authors:
        fail("background_pool", "background author pool smaller than the largest "
                                "background publication")
    if config.success_q not in ("0.01", "0.10"):
        fail("success_q", "must be '0.01' or '0.10'")


# --- ground-truth derivation ------------------------------------------------------

def derive_truth_overlaps(teams: list[tuple[frozenset[str], list[Interval]]]) -> list[dict]:
    """Overlap relations implied by a team list, by direct rule arithmetic.

    Half of the larger team's members must be shared, so with non-empty teams
    every related team, and every shared core, shares a member with the focal
    team: candidates come from a member -> team index map, in list order.
    """
    teams_of: dict[str, list[int]] = {}
    for index, (members, _) in enumerate(teams):
        for member in members:
            teams_of.setdefault(member, []).append(index)

    def sharing(members: frozenset[str]) -> list[int]:
        return sorted({index for member in members for index in teams_of[member]})

    relations = []
    for fi, (members_f, intervals_f) in enumerate(teams):
        x_f = intervals_f[0][0]
        for oi in sharing(members_f):
            if fi == oi:
                continue
            members_o, intervals_o = teams[oi]
            shared = len(members_f & members_o)
            if 2 * shared < max(len(members_f), len(members_o)):
                continue
            x_o = intervals_o[0][0]
            timing = ("preceding" if x_o < x_f
                      else "simultaneous" if x_o == x_f else "succeeding")
            if members_o < members_f:
                kind = "core"
            elif members_f < members_o:
                kind = "extension"
            else:
                overlap = members_f & members_o
                shared_core = any(
                    ci not in (fi, oi)
                    and members_c <= overlap
                    and 2 * len(members_c) >= len(members_f)
                    and intervals_c[0][0] < x_f
                    for ci in sharing(overlap)
                    for members_c, intervals_c in [teams[ci]]
                )
                kind = "offshoot_shared_core" if shared_core else "offshoot_no_shared_core"
            impulse = {
                ("core", "preceding"): "persistence",
                ("core", "simultaneous"): "none",
                ("extension", "simultaneous"): "synchronous",
                ("extension", "succeeding"): "freshness",
                ("offshoot_shared_core", "preceding"): "none",
                ("offshoot_shared_core", "simultaneous"): "synchronous",
                ("offshoot_shared_core", "succeeding"): "freshness",
                ("offshoot_no_shared_core", "preceding"): "persistence",
                ("offshoot_no_shared_core", "simultaneous"): "synchronous",
                ("offshoot_no_shared_core", "succeeding"): "freshness",
            }[(kind, timing)]
            relations.append({
                "focal": sorted(members_f),
                "other": sorted(members_o),
                "kind": kind,
                "timing": timing,
                "impulse": impulse,
            })
    return relations


def _cell_truth_tags(cell: list[tuple[str, int]], q: Fraction) -> set[str]:
    """Tagged pub ids for one (field, year) cell, by the ranking rule."""
    n = len(cell)
    counts = sorted((c for _, c in cell), reverse=True)
    k = -((-q.numerator * n) // q.denominator)
    threshold = max(counts[k - 1], 1)
    return {pub_id for pub_id, c in cell if c >= threshold}


# --- corpus generation -------------------------------------------------------------

@dataclass
class _Pub:
    pub_id: str
    year: int
    authors: tuple[str, ...]


class _AuthorBook:
    """Deterministic affiliation per author, assigned at first sight."""

    def __init__(self):
        self.profiles: dict[str, dict] = {}

    def affiliation(self, author_id: str) -> dict:
        profile = self.profiles.get(author_id)
        if profile is None:
            i = len(self.profiles)
            profile = {
                "org_id": f"o{i}",
                "city_id": f"c{i}",
                "country": _COUNTRIES[i % len(_COUNTRIES)],
                "lat": float(((i * 37) % 140) - 70) + 0.25,
                "lon": float(((i * 73) % 340) - 170) + 0.25,
            }
            self.profiles[author_id] = profile
        return profile


def generate_corpus(config: SynthConfig, out_dir: str | Path) -> GroundTruth:
    """Write publications.jsonl, citations.csv, and truth.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    validate_config(config)
    rng = random.Random(config.seed)
    book = _AuthorBook()
    pubs: list[_Pub] = []
    intended: set[str] = set()  # pub ids planted as successes for success_q
    team_rows: list[dict] = []

    # planted teams publish with all members in every interval year
    for idx, team in enumerate(config.teams):
        duration_start = team.intervals[0][0]
        success_years: set[int] = set()
        if team.success_ages:
            success_years = {duration_start + age - 1 for age in team.success_ages}
        elif config.success_hazard is not None:
            for start, end in team.intervals:
                for year in range(start, end + 1):
                    if rng.random() < config.success_hazard:
                        success_years.add(year)
        for start, end in team.intervals:
            for year in range(start, end + 1):
                for k in range(team.pubs_per_year):
                    pub_id = f"t{idx}_y{year}_{k}"
                    pubs.append(_Pub(pub_id, year, team.members))
                    if k == 0 and year in success_years:
                        intended.add(pub_id)
        team_rows.append({
            "members": sorted(team.members),
            "intervals": [list(iv) for iv in team.intervals],
            "success_years": sorted(success_years),
        })

    # background noise, capped so no background pair can turn persistent
    pair_cap = MIN_PUBS - 1
    pool = [f"bg{i}" for i in range(config.n_background_authors)]
    pair_budget: dict[tuple[str, str], int] = {}
    for bi in range(config.background_pubs):
        year = rng.randrange(config.year_min, config.year_max + 1)
        rng.random()  # unused draw, kept: every seeded corpus depends on the stream
        size = 1
        if pool and rng.random() < config.background_multi_frac:
            size = rng.randint(2, config.background_max_authors)
        authors: tuple[str, ...] = ()
        if size == 1:
            authors = (pool[rng.randrange(len(pool))],) if pool else (f"solo{bi}",)
        else:
            for _ in range(20):  # rejection-sample author sets under the pair cap
                chosen = tuple(sorted(rng.sample(pool, size)))
                pairs = [canonical_pair(a, b)
                         for i, a in enumerate(chosen) for b in chosen[i + 1:]]
                if all(pair_budget.get(p, 0) < pair_cap for p in pairs):
                    for p in pairs:
                        pair_budget[p] = pair_budget.get(p, 0) + 1
                    authors = chosen
                    break
            else:
                authors = (pool[rng.randrange(len(pool))],)
        pubs.append(_Pub(f"b{bi}", year, authors))

    # pad year cells so the intended successes are exactly what the percentile tags
    q_target = Fraction(config.success_q)
    if intended:
        cells: dict[int, int] = {}
        success_per_cell: dict[int, int] = {}
        for pub in pubs:
            cells[pub.year] = cells.get(pub.year, 0) + 1
            if pub.pub_id in intended:
                success_per_cell[pub.year] = success_per_cell.get(pub.year, 0) + 1
        filler = 0
        for year in sorted(success_per_cell):
            s = success_per_cell[year]
            need = (s - 1) * q_target.denominator // q_target.numerator + 1
            for _ in range(max(0, need - cells[year])):
                pub_id = f"f{filler}"
                filler += 1
                pubs.append(_Pub(pub_id, year, (f"fill{filler % 97}",)))

    # citation counts: distinct descending for intended successes, zero elsewhere
    by_cell: dict[int, list[str]] = {}
    for pub in pubs:
        by_cell.setdefault(pub.year, []).append(pub.pub_id)
    counts: dict[str, int] = {}
    for key in sorted(by_cell):
        rank = 0
        cell_intended = [p for p in by_cell[key] if p in intended]
        for pub_id in sorted(cell_intended):
            counts[pub_id] = 10 + len(cell_intended) - rank
            rank += 1

    truth_tags: dict[str, tuple[bool, bool]] = {}
    for key in sorted(by_cell):
        cell = [(p, counts.get(p, 0)) for p in by_cell[key]]
        if not any(c for _, c in cell):
            continue
        top10 = _cell_truth_tags(cell, Fraction(1, 10))
        top1 = _cell_truth_tags(cell, Fraction(1, 100))
        for pub_id, c in cell:
            if pub_id in top10 or pub_id in top1:
                truth_tags[pub_id] = (pub_id in top10, pub_id in top1)

    lines = [_pub_line(pub, book) for pub in pubs]
    rng.shuffle(lines)
    with open(out_dir / "publications.jsonl", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(lines)

    with open(out_dir / "citations.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("citing_pub_id,cited_pub_id,citing_year\n")
        n_cite = 0
        for pub in pubs:
            c = counts.get(pub.pub_id, 0)
            for j in range(c):
                fh.write(f"x{n_cite},{pub.pub_id},{pub.year + j % 3}\n")
                n_cite += 1

    authors_seen = {a for pub in pubs for a in pub.authors}
    truth = GroundTruth(
        year_min=config.year_min,
        year_max=config.year_max,
        seed=config.seed,
        teams=team_rows,
        overlaps=derive_truth_overlaps(
            [(frozenset(t.members), sorted(t.intervals)) for t in config.teams]),
        tags=truth_tags,
        n_publications=len(pubs),
        n_authors=len(authors_seen),
    )
    truth.to_json(out_dir / "truth.json")
    return truth


def _pub_line(pub: _Pub, book: _AuthorBook) -> str:
    record = {
        "pub_id": pub.pub_id,
        "year": pub.year,
        "doc_type": "Article",
        "fields": [_FIELD],
        "authors": [{"author_id": a, "affiliations": [book.affiliation(a)]}
                    for a in pub.authors],
    }
    return json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"


# --- verification against ground truth ------------------------------------------

@dataclass
class VerifyReport:
    n_planted: int = 0
    exact_matches: int = 0
    superset_matches: int = 0
    team_recall: float | None = None
    team_precision: float | None = None
    n_mined: int = 0
    n_truth_overlaps: int = 0
    overlap_matches: int = 0
    overlap_match_rate: float | None = None
    n_pubs_checked: int = 0
    tag_matches: int = 0
    tag_match_rate: float | None = None
    empty: bool = False

    def to_dict(self) -> dict:
        return dict(self.__dict__)


def verify_against_truth(teams, relations, tags, truth: GroundTruth) -> VerifyReport:
    """Recall/precision of planted teams plus overlap and tag match rates.

    A planted team matches exactly when a mined team has the same member set
    and the same intervals; it matches as a superset when a mined team's
    members contain it and every planted interval lies inside a mined one.
    """
    report = VerifyReport()
    report.n_planted = len(truth.teams)
    report.n_mined = len(teams)
    by_members = {team.members: team for team in teams}
    member_index: dict[str, list] = {}
    for team in teams:
        for member in team.members:
            member_index.setdefault(member, []).append(team)

    for planted in truth.teams:
        members = tuple(sorted(planted["members"]))
        intervals = [tuple(iv) for iv in planted["intervals"]]
        mined = by_members.get(members)
        if mined is not None and list(mined.intervals) == intervals:
            report.exact_matches += 1
            continue
        for candidate in member_index.get(members[0], ()):
            if not set(members) <= set(candidate.members):
                continue
            if all(covers(list(candidate.intervals), iv) for iv in intervals):
                report.superset_matches += 1
                break
    if report.n_planted:
        report.team_recall = (report.exact_matches + report.superset_matches) / report.n_planted
    if report.n_mined:
        report.team_precision = report.exact_matches / report.n_mined

    id_to_members = {team.team_id: team.members for team in teams}
    mined_relations = {
        (id_to_members[rel.focal_team_id], id_to_members[rel.other_team_id],
         rel.kind.value, rel.timing.value, rel.impulse.value)
        for rel in relations
    }
    truth_relations = {
        (tuple(sorted(rel["focal"])), tuple(sorted(rel["other"])),
         rel["kind"], rel["timing"], rel["impulse"])
        for rel in truth.overlaps
    }
    report.n_truth_overlaps = len(truth_relations)
    report.overlap_matches = len(truth_relations & mined_relations)
    if report.n_truth_overlaps:
        report.overlap_match_rate = report.overlap_matches / report.n_truth_overlaps

    report.n_pubs_checked = len(tags.counts)
    for pub_id in tags.counts:
        if tags.flags(pub_id) == tuple(truth.tags.get(pub_id, (False, False))):
            report.tag_matches += 1
    if report.n_pubs_checked:
        report.tag_match_rate = report.tag_matches / report.n_pubs_checked

    report.empty = report.n_planted == 0 and report.n_mined == 0 and report.n_pubs_checked == 0
    return report


# --- worked example corpus -----------------------------------------------------

FIG_S1_PAIR_YEARS = {
    ("A", "B"): [2, 4, 6],
    ("B", "C"): [1, 2, 3, 5, 6, 7],
    ("A", "C"): [2, 3, 5],
    ("C", "D"): [1, 4, 6],
    ("E", "F"): [7, 7, 8],
}

FIG_S1_TEAMS = [
    {"members": ["A", "B"], "intervals": [[2, 6]], "success_years": []},
    {"members": ["A", "B", "C"], "intervals": [[2, 5]], "success_years": []},
    {"members": ["B", "C"], "intervals": [[1, 7]], "success_years": []},
    {"members": ["E", "F"], "intervals": [[7, 8]], "success_years": []},
]


def fig_s1_corpus(out_dir: str | Path) -> GroundTruth:
    """Six-author worked-example corpus: two-author publications whose pair
    timelines produce persistent periods [2,6] for (A,B), none for (C,D), an
    over-five-year period [1,7] for (B,C), and the three-member team over
    [2,5] once mined."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    book = _AuthorBook()
    pubs = []
    i = 0
    for (a, b), years in FIG_S1_PAIR_YEARS.items():
        for year in years:
            pubs.append(_Pub(f"s{i}", year, (a, b)))
            i += 1
    with open(out_dir / "publications.jsonl", "w", encoding="utf-8", newline="") as fh:
        fh.writelines(_pub_line(pub, book) for pub in pubs)
    with open(out_dir / "citations.csv", "w", encoding="utf-8", newline="") as fh:
        fh.write("citing_pub_id,cited_pub_id,citing_year\n")
    truth = GroundTruth(
        year_min=1, year_max=8, seed=0,
        teams=FIG_S1_TEAMS,
        overlaps=derive_truth_overlaps(
            [(frozenset(t["members"]), [tuple(iv) for iv in t["intervals"]])
             for t in FIG_S1_TEAMS]),
        tags={},
        n_publications=len(pubs),
        n_authors=6,
    )
    truth.to_json(out_dir / "truth.json")
    return truth
