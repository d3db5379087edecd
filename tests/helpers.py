"""Shared builders for test corpora and tables."""

from __future__ import annotations

from pathlib import Path

from teammine.ingest import Affiliation, AuthorEntry, PublicationRecord, PublicationTable
from teammine.pipeline import Pipeline, PipelineConfig
from teammine.success import SuccessTagTable
from teammine.teams import Team, success_profiles, team_pub_facts

DEFAULT_AFF = {"org": "org0", "city": "city0", "country": "NL",
               "lat": 52.0, "lon": 4.5}


def affiliation(org="org0", city="city0", country="NL", lat=52.0, lon=4.5) -> Affiliation:
    return Affiliation(org_id=org, city_id=city, country=country, lat=lat, lon=lon)


def author(author_id: str, affs=None) -> AuthorEntry:
    if affs is None:
        affs = (affiliation(org=f"org_{author_id}", city=f"city_{author_id}"),)
    return AuthorEntry(author_id=author_id, affiliations=tuple(affs))


def pub(pub_id: str, year: int, author_ids, doc_type="Article",
        fields=("F0",), authors=None) -> PublicationRecord:
    if authors is None:
        authors = tuple(author(a) for a in author_ids)
    return PublicationRecord(pub_id=pub_id, year=year, doc_type=doc_type,
                             fields=tuple(sorted(fields)), authors=tuple(authors))


def table(records) -> PublicationTable:
    return PublicationTable(records=list(records))


def tag_table(entries: dict[str, tuple[int, bool, bool]]) -> SuccessTagTable:
    return SuccessTagTable({pub_id: c for pub_id, (c, _, _) in entries.items()},
                           {pub_id for pub_id, (_, t10, _) in entries.items() if t10},
                           {pub_id for pub_id, (_, _, t1) in entries.items() if t1})


def build_profiles(teams, pubs, tags) -> dict:
    """The success profiles the teams stage builds from the corpus and the tags."""
    return success_profiles(teams, team_pub_facts(teams, pubs, tags))


def team(team_id: int, members, intervals, pubs=(), metrics=None) -> Team:
    intervals = tuple(tuple(iv) for iv in intervals)
    return Team(team_id=team_id, members=tuple(sorted(members)), intervals=intervals,
                duration_start=intervals[0][0], duration_end=intervals[-1][1],
                pubs=tuple(pubs), metrics=metrics)


def pub_json(pub_id: str, year: int, author_ids, doc_type="Article", fields=("F0",),
             affs=None) -> dict:
    """A raw publication record; each author gets its own copy of each
    affiliation dict, so editing one author's affiliation leaves the others."""
    if affs is None:
        affs = [{"org_id": DEFAULT_AFF["org"], "city_id": DEFAULT_AFF["city"],
                 "country": DEFAULT_AFF["country"], "lat": DEFAULT_AFF["lat"],
                 "lon": DEFAULT_AFF["lon"]}]
    return {"pub_id": pub_id, "year": year, "doc_type": doc_type,
            "fields": list(fields),
            "authors": [{"author_id": a, "affiliations": [dict(aff) for aff in affs]}
                        for a in author_ids]}


def flat_timelines(timelines) -> dict[tuple[str, str], tuple[int, ...]]:
    """Nested ``{a: {b: years}}`` timelines as one ``{(a, b): years}`` dict."""
    return {(a, b): years for a, inner in timelines.items() for b, years in inner.items()}


def half_overlap_pairs(teams) -> list[tuple[int, int]]:
    """Ordered (focal, other) team id pairs whose shared members reach half
    of the larger member set, found by testing every pair of teams."""
    members = {t.team_id: set(t.members) for t in teams}
    return sorted((a, b) for a, set_a in members.items() for b, set_b in members.items()
                  if a != b and 2 * len(set_a & set_b) >= max(len(set_a), len(set_b)))


def write_jsonl(path: Path, records: list[dict]):
    import json
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for record in records:
            fh.write(json.dumps(record, sort_keys=True) + "\n")


def write_citations(path: Path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("citing_pub_id,cited_pub_id,citing_year\n")
        for row in rows:
            fh.write(",".join(str(x) for x in row) + "\n")


def run_pipeline(corpus_dir: Path, out_dir: Path, year_min: int, year_max: int,
                 stage: str = "all", **overrides) -> Pipeline:
    config = PipelineConfig(
        pubs_path=str(Path(corpus_dir) / "publications.jsonl"),
        citations_path=str(Path(corpus_dir) / "citations.csv"),
        out_dir=str(out_dir),
        year_min=year_min,
        year_max=year_max,
        margin_years=0,
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    pipeline = Pipeline(config)
    pipeline.run(stage)
    return pipeline
