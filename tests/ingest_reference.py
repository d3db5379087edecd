"""The reference record checks: one plain rule after another, in the order
whose first broken rule ``teammine.ingest`` must report.

``reference_parser`` stands in for ``ingest._record_parser``, so a load can be
repeated with every record decided here and compared with the real one.
``reference_citations`` and ``reference_three_year_citations`` keep every
kept citation row as a (citing, cited, year) event and count from the list.
"""

import sys

from teammine.errors import IngestError
from teammine.ingest import (_INTEGER, Affiliation, AuthorEntry, _affiliations_reject_reason,
                             _coordinate, _csv_rows, _record_reject_reason)
from teammine.success import WINDOW_INCLUSIVE


def _require(cond: bool, message: str, line: int):
    if not cond:
        raise IngestError(message, line=line)


def _parse_affiliation(raw: object, line: int) -> Affiliation:
    _require(isinstance(raw, dict), "affiliation is not an object", line)
    assert isinstance(raw, dict)
    for key in ("org_id", "city_id", "country"):
        val = raw.get(key)
        _require(val is None or isinstance(val, str), f"{key} must be a string", line)
    for key in ("lat", "lon"):
        val = raw.get(key)
        _require(
            val is None or isinstance(val, (int, float)) and not isinstance(val, bool),
            f"{key} must be a number",
            line,
        )
    return Affiliation(
        org_id=raw.get("org_id"),
        city_id=raw.get("city_id"),
        country=raw.get("country"),
        lat=None if raw.get("lat") is None else _coordinate(raw["lat"]),
        lon=None if raw.get("lon") is None else _coordinate(raw["lon"]),
    )


def _parse_record(raw: object, line: int) -> tuple[str, int, str, tuple[str, ...], tuple[AuthorEntry, ...]]:
    _require(isinstance(raw, dict), "record is not an object", line)
    assert isinstance(raw, dict)
    for key in ("pub_id", "year", "doc_type", "fields", "authors"):
        _require(key in raw, f"missing key {key!r}", line)
    _require(isinstance(raw["pub_id"], str) and raw["pub_id"] != "", "pub_id must be a non-empty string", line)
    _require(isinstance(raw["year"], int) and not isinstance(raw["year"], bool), "year must be an integer", line)
    _require(isinstance(raw["doc_type"], str), "doc_type must be a string", line)
    _require(
        isinstance(raw["fields"], list) and all(isinstance(f, str) for f in raw["fields"]),
        "fields must be a list of strings",
        line,
    )
    _require(isinstance(raw["authors"], list), "authors must be a list", line)
    authors = []
    for entry in raw["authors"]:
        _require(isinstance(entry, dict), "author entry is not an object", line)
        _require(isinstance(entry.get("author_id"), str) and entry["author_id"] != "",
                 "author_id must be a non-empty string", line)
        # ';' separates the members in cliques.csv and teams.csv
        _require(";" not in entry["author_id"], "author_id must not contain ';'", line)
        affs = entry.get("affiliations")
        _require(isinstance(affs, list), "affiliations must be a list", line)
        authors.append(AuthorEntry(
            author_id=sys.intern(entry["author_id"]),
            affiliations=tuple(_parse_affiliation(a, line) for a in affs),
        ))
    fields = tuple(sorted(set(raw["fields"])))
    return raw["pub_id"], raw["year"], raw["doc_type"], fields, tuple(authors)


def _domain_reject_reason(year: int, doc_type_raw: str, fields: tuple[str, ...],
                          authors: tuple[AuthorEntry, ...], year_min: int,
                          year_max: int) -> str | None:
    """First violated domain rule, or None when the record is acceptable."""
    reason = _record_reject_reason(year, doc_type_raw, fields, authors, year_min, year_max)
    if reason is None:
        for author in authors:
            reason = _affiliations_reject_reason(author.affiliations)
            if reason is not None:
                break
    return reason


def reference_parser(year_min: int, year_max: int):
    """A ``parse(raw, line)`` like the one ``ingest._record_parser`` returns,
    deciding each record with ``_parse_record`` and ``_domain_reject_reason``
    alone."""
    def parse(raw: object, line: int):
        pub_id, year, doc_type, fields, authors = _parse_record(raw, line)
        return (pub_id, year, doc_type, fields, authors,
                _domain_reject_reason(year, doc_type, fields, authors, year_min, year_max))

    return parse


def reference_citations(path, pubs) -> tuple[list[tuple[str, str, int]], dict[str, int]]:
    """The (citing_pub_id, cited_pub_id, citing_year) events of the rows
    ``ingest.load_citations`` keeps, in row order, and its drop counts."""
    events = []
    drops: dict[str, int] = {}

    def drop(reason: str):
        drops[reason] = drops.get(reason, 0) + 1

    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        rows = _csv_rows(fh)
        _, header = next(rows, (1, None))
        if header != ["citing_pub_id", "cited_pub_id", "citing_year"]:
            raise IngestError("citation file must start with header "
                              "'citing_pub_id,cited_pub_id,citing_year'", line=1)
        for line_no, row in rows:
            if not row:
                continue
            if len(row) != 3:
                raise IngestError(f"expected 3 columns, got {len(row)}", line=line_no)
            citing_id, cited_id, year_raw = row
            cited = pubs.get(cited_id)
            if cited is None:
                drop("unknown_cited")
                continue
            if year_raw == "":
                citing = pubs.get(citing_id)
                if citing is None:
                    drop("missing_year")
                    continue
                citing_year = citing.year
            elif _INTEGER.fullmatch(year_raw):
                try:
                    citing_year = int(year_raw)
                except ValueError:  # more digits than int() converts
                    raise IngestError(f"citing_year of {len(year_raw)} characters is too long",
                                      line=line_no) from None
            else:
                raise IngestError(f"citing_year {year_raw!r} is not an integer", line=line_no)
            if citing_year < cited.year:
                drop("year_before_cited")
                continue
            events.append((citing_id, cited_id, citing_year))
    return events, drops


def reference_three_year_citations(pubs, events, mode: str) -> dict[str, int]:
    """Citation count per pub_id in record order, one event at a time."""
    offset = 0 if mode == WINDOW_INCLUSIVE else 1
    counts = {rec.pub_id: 0 for rec in pubs}
    years = {rec.pub_id: rec.year for rec in pubs}
    for _, cited_id, citing_year in events:
        base = years.get(cited_id)
        if base is not None and base + offset <= citing_year <= base + offset + 2:
            counts[cited_id] += 1
    return counts
