"""The reference record checks: one plain rule after another, in the order
whose first broken rule ``teammine.ingest`` must report.

``reference_parser`` stands in for ``ingest._record_parser``, so a load can be
repeated with every record decided here and compared with the real one.
"""

import sys

from teammine.errors import IngestError
from teammine.ingest import (Affiliation, AuthorEntry, _affiliations_reject_reason,
                             _coordinate, _record_reject_reason)


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
