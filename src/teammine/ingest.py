"""Load, validate, and filter raw publication and citation records.

Input formats
-------------
Publications arrive as line-delimited JSON, one record per line::

    {"pub_id": "p1", "year": 2009, "doc_type": "Article", "fields": ["F0"],
     "authors": [{"author_id": "a1",
                  "affiliations": [{"org_id": "o1", "city_id": "c1",
                                    "country": "NL", "lat": 52.2, "lon": 4.5}]}]}

Citations arrive as CSV with header ``citing_pub_id,cited_pub_id,citing_year``.
A UTF-8 byte order mark at the start of either file is skipped.

Structurally broken lines (invalid UTF-8 or JSON, missing keys, wrong types,
an author id containing the member separator ``;``) abort the load with the
offending line number. Records that parse but violate a domain rule (filtered
document type, year outside the window, author without a usable affiliation,
...) are rejected and counted per reason, never stored. Unusable citation rows
are dropped and counted per reason; of a kept row, only the citing year is
held, per cited publication, as success tagging needs nothing else.
"""

from __future__ import annotations

import csv
import json
import math
import re
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple

from teammine.csvio import read_csv, write_csv
from teammine.errors import IngestError


# accepted spelling -> the canonical document type a record holds; the
# canonical types, in first-listed order, are the rows of table_s1.csv
_DOC_TYPE_ALIASES = {
    "Article": "Article",
    "Review": "Review",
    "Letter": "Letter",
    "Proceedings Paper": "Proceedings Paper",
    "Proceeding Paper": "Proceedings Paper",
    "ProceedingsPaper": "Proceedings Paper",
}


# Affiliation and AuthorEntry are tuples, so the tuple of raw values one was
# built from compares equal to it and finds it in a memo (see _record_parser).

class Affiliation(NamedTuple):
    org_id: str | None = None
    city_id: str | None = None
    country: str | None = None
    lat: float | None = None
    lon: float | None = None

    def has_geo(self) -> bool:
        return self.lat is not None and self.lon is not None


class AuthorEntry(NamedTuple):
    author_id: str
    affiliations: tuple[Affiliation, ...]


@dataclass(frozen=True, slots=True)
class PublicationRecord:
    pub_id: str
    year: int
    doc_type: str  # a value of _DOC_TYPE_ALIASES
    fields: tuple[str, ...]
    authors: tuple[AuthorEntry, ...]


@dataclass
class PublicationTable:
    """Validated records in input order, plus the reject report for the load."""

    records: list[PublicationRecord] = field(default_factory=list)
    rejects: list[tuple[int, str]] = field(default_factory=list)  # (line, reason)
    input_lines: int = 0

    def __post_init__(self):
        self._by_id = {r.pub_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def get(self, pub_id: str) -> PublicationRecord | None:
        return self._by_id.get(pub_id)

    @cached_property
    def entries(self) -> list[AuthorEntry]:
        """Each author entry of the records once, in the order the records
        first use it. Entries and affiliations are distinct by identity, not
        equality: an affiliation at ``lat=0.0`` equals one at ``lat=-0.0``, yet
        each keeps its own line in the canonical affiliation table."""
        # the records keep every entry alive, so no id() is reused
        return list({id(entry): entry for rec in self.records for entry in rec.authors}.values())


@dataclass
class CitationTable:
    citing_years: dict[str, list[int]] = field(default_factory=dict)  # in row order
    drop_counts: dict[str, int] = field(default_factory=dict)


def _utf8_lines(fh):
    """The lines of a file opened with ``errors="surrogateescape"``, refusing
    the first that holds bytes which are not UTF-8.

    Strict UTF-8 never decodes to a lone surrogate, so a line that cannot be
    encoded back is one whose bytes were escaped.
    """
    for line_no, line in enumerate(fh, start=1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError:
                raise IngestError("invalid UTF-8", line=line_no) from None
        yield line


def _csv_rows(fh):
    """(line, row) for each row of a CSV file opened like ``_utf8_lines`` wants;
    a row the csv module cannot split is an IngestError on its line."""
    reader = csv.reader(_utf8_lines(fh))
    try:
        for row in reader:
            yield reader.line_num, row
    except csv.Error as exc:
        raise IngestError(f"malformed CSV ({exc})", line=reader.line_num) from None


def _coordinate(value: int | float) -> float:
    """A JSON number as a float; an integer too large for one becomes an
    infinity, which the coordinates rule rejects like ``1e400``."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _record_reject_reason(year: int, doc_type_raw: str, fields: tuple[str, ...],
                          authors: tuple[AuthorEntry, ...], year_min: int,
                          year_max: int) -> str | None:
    """First violated rule that is not about one author's affiliations."""
    if doc_type_raw not in _DOC_TYPE_ALIASES:
        return "doc_type"
    if not (year_min <= year <= year_max):
        return "year_window"
    if not fields:
        return "fields"
    if not authors:
        return "no_authors"
    ids = [a.author_id for a in authors]
    if len(set(ids)) != len(ids):
        return "duplicate_author"
    return None


def _affiliations_reject_reason(affiliations: tuple[Affiliation, ...]) -> str | None:
    """First rule one author's affiliations violate, or None."""
    if not affiliations:
        return "affiliation"
    for aff in affiliations:
        # exactly one of lat/lon present is treated as no geolocation at all
        if (aff.lat is None) != (aff.lon is None):
            return "coordinates"
        if aff.has_geo() and not (-90.0 <= aff.lat <= 90.0 and -180.0 <= aff.lon <= 180.0):
            return "coordinates"
        if aff.org_id is None and not aff.has_geo():
            return "affiliation"
    return None


# a coordinate equal to one of these also equals a bool or a zero of the other sign
_AMBIGUOUS_COORDINATES = (0, 1)
_AFFILIATION_KEYS = ("org_id", "city_id", "country", "lat", "lon")
_TEXT = frozenset({str, type(None)})
_FLOAT = frozenset({float, type(None)})


def _affiliation_key(raw: object) -> tuple | None:
    """The values ``Affiliation`` takes from an affiliation object, absent
    keys as None; None for a non-object."""
    if type(raw) is not dict:
        return None
    return tuple([raw.get(key) for key in _AFFILIATION_KEYS])


def _affiliation(key: tuple | None, line: int) -> Affiliation:
    """The affiliation of an object's ``_affiliation_key``; raises for a
    non-object or the first value of the wrong type."""
    if key is None:
        raise IngestError("affiliation is not an object", line=line)
    org_id, city_id, country, lat, lon = key
    if (type(org_id) in _TEXT and type(city_id) in _TEXT and type(country) in _TEXT
            and type(lat) in _FLOAT and type(lon) in _FLOAT):
        return Affiliation._make(key)
    for name, value in zip(_AFFILIATION_KEYS[:3], key):
        if type(value) not in _TEXT:
            raise IngestError(f"{name} must be a string", line=line)
    for name, value in zip(_AFFILIATION_KEYS[3:], key[3:]):
        if type(value) not in _FLOAT and type(value) is not int:  # a bool is not a number
            raise IngestError(f"{name} must be a number", line=line)
    return Affiliation(org_id, city_id, country,  # an integer coordinate
                       None if lat is None else _coordinate(lat),
                       None if lon is None else _coordinate(lon))


def _record_parser():
    """``parse(raw, line)`` for a decoded publication line, building one
    object per distinct affiliation, author entry and field list.

    It returns ``(pub_id, year, doc_type, fields, authors, reason)``, where
    ``reason`` is the first rule the authors' affiliations break or None, or
    raises the IngestError of the first structural rule the record breaks, in
    this order: the record is an object; its five keys are present; pub_id,
    year, doc_type, fields, the authors list; then per author entry: it is an
    object, its author_id, the ';' rule, its affiliations list, and per
    affiliation: it is an object, org_id, city_id, country, lat, lon. The
    memos live in this closure, so two loads share no objects.

    An affiliation is looked up by the tuple of its raw values, an author
    entry by its author id and that tuple per affiliation; each memo holds
    the objects themselves, which equal those tuples. A hit skips every check,
    as only entries that break no rule are memoized. Neither is an object
    with a coordinate equal to 0 or 1, as a bool or a zero of the other sign
    would find it; any other number equal to a memoized coordinate converts
    to the same float.
    """
    affiliations: dict[Affiliation, Affiliation] = {}
    entries: dict[AuthorEntry, AuthorEntry] = {}
    field_lists: dict[tuple, tuple[str, ...]] = {}
    record_values = itemgetter("pub_id", "year", "doc_type", "fields", "authors")
    entry_values = itemgetter("author_id", "affiliations")
    affiliation_values = itemgetter(*_AFFILIATION_KEYS)

    def new_entry(raw_entry: object, keys: tuple | None, line: int):
        """The entry and its reason for an author entry no memoized one
        equals; ``keys`` are its affiliations' ``_affiliation_key``s, or None."""
        if type(raw_entry) is not dict:
            raise IngestError("author entry is not an object", line=line)
        author_id = raw_entry.get("author_id")
        if type(author_id) is not str or not author_id:
            raise IngestError("author_id must be a non-empty string", line=line)
        if ";" in author_id:  # ';' separates the members in cliques.csv and teams.csv
            raise IngestError("author_id must not contain ';'", line=line)
        raw_affs = raw_entry.get("affiliations")
        if type(raw_affs) is not list:
            raise IngestError("affiliations must be a list", line=line)
        affs = []
        memoize = True
        for key in keys or map(_affiliation_key, raw_affs):
            try:
                aff = affiliations.get(key)
            except TypeError:  # a list or object among the values
                aff = None
            if aff is None:
                aff = _affiliation(key, line)
                if aff.lat in _AMBIGUOUS_COORDINATES or aff.lon in _AMBIGUOUS_COORDINATES:
                    memoize = False
                else:
                    affiliations[aff] = aff
            affs.append(aff)
        entry = AuthorEntry(sys.intern(author_id), tuple(affs))
        reason = _affiliations_reject_reason(entry.affiliations)
        if memoize and reason is None:
            entries[entry] = entry
        return entry, reason

    def parse(raw: object, line: int):
        if type(raw) is not dict:
            raise IngestError("record is not an object", line=line)
        try:
            pub_id, year, doc_type, raw_fields, raw_authors = record_values(raw)
        except KeyError as exc:
            raise IngestError(f"missing key {exc.args[0]!r}", line=line) from None
        if type(pub_id) is not str or not pub_id:
            raise IngestError("pub_id must be a non-empty string", line=line)
        if type(year) is not int:  # a bool is not an integer
            raise IngestError("year must be an integer", line=line)
        if type(doc_type) is not str:
            raise IngestError("doc_type must be a string", line=line)
        try:
            fields = field_lists.get(tuple(raw_fields)) if type(raw_fields) is list else None
        except TypeError:  # a list or object among them
            fields = None
        if fields is None:
            if type(raw_fields) is not list or not all(type(f) is str for f in raw_fields):
                raise IngestError("fields must be a list of strings", line=line)
            fields = tuple(sorted(set(raw_fields)))
            fields = field_lists[tuple(raw_fields)] = field_lists.setdefault(fields, fields)
        if type(raw_authors) is not list:
            raise IngestError("authors must be a list", line=line)
        authors = []
        reason = None
        for raw_entry in raw_authors:
            try:  # a key missing, a non-object, or a list or object as a memo key
                author_id, raw_affs = entry_values(raw_entry)
                try:
                    keys = tuple(map(affiliation_values, raw_affs))
                except KeyError:  # an affiliation without all five keys
                    keys = tuple(map(_affiliation_key, raw_affs))
                entry = entries.get((author_id, keys))
            except (KeyError, TypeError):
                keys = entry = None
            if entry is None:
                entry, entry_reason = new_entry(raw_entry, keys, line)
                reason = reason or entry_reason
            authors.append(entry)
        return pub_id, year, doc_type, fields, tuple(authors), reason

    return parse


def load_publications(path: str | Path, year_min: int, year_max: int) -> PublicationTable:
    """Read a publications file, keeping only records that pass every rule;
    a record outside the years ``year_min..year_max`` is a ``year_window`` reject.

    Raises IngestError (with the line number) for structurally malformed lines
    and for duplicate pub_ids; domain violations become reject rows instead.
    Each record goes through ``_record_parser``'s ``parse``, which raises the
    first structural error and builds one object per distinct affiliation,
    author entry and field list.
    """
    records: list[PublicationRecord] = []
    rejects: list[tuple[int, str]] = []
    seen_ids: set[str] = set()
    lines = 0
    parse = _record_parser()
    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape") as fh:
        for line_no, line in enumerate(_utf8_lines(fh), start=1):
            if not line.strip():
                continue
            lines += 1
            try:
                raw = json.loads(line)
                if "\\ud" in line or "\\uD" in line:
                    # a \uD800-\uDFFF escape without its pair decodes to a
                    # string that no UTF-8 artifact can hold
                    json.dumps(raw, ensure_ascii=False).encode("utf-8")
            except json.JSONDecodeError as exc:
                raise IngestError(f"invalid JSON ({exc.msg})", line=line_no) from exc
            except UnicodeEncodeError:
                raise IngestError("unpaired surrogate escape", line=line_no) from None
            except (ValueError, RecursionError) as exc:  # too many digits, too deep
                raise IngestError(f"invalid JSON ({exc})", line=line_no) from None
            pub_id, year, doc_type_raw, fields, authors, reason = parse(raw, line_no)
            reason = _record_reject_reason(year, doc_type_raw, fields, authors,
                                           year_min, year_max) or reason
            if pub_id in seen_ids:
                raise IngestError(f"duplicate pub_id {pub_id!r}", line=line_no)
            seen_ids.add(pub_id)
            if reason is not None:
                rejects.append((line_no, reason))
                continue
            records.append(PublicationRecord(
                pub_id=pub_id,
                year=year,
                doc_type=_DOC_TYPE_ALIASES[doc_type_raw],
                fields=fields,
                authors=authors,
            ))
    return PublicationTable(records=records, rejects=rejects, input_lines=lines)


_INTEGER = re.compile("-?[0-9]+")  # not int()'s spaces, '+', '_' or non-ASCII digits


def load_citations(path: str | Path, pubs: PublicationTable,
                   canonical_path: str | Path) -> CitationTable:
    """Read citation rows, dropping those that cannot be used downstream, and
    write each kept row to ``canonical_path`` as it is read.

    A kept row always references a known cited publication. The citing side
    may live outside the corpus; its year is then required on the row.
    """
    citing_years: dict[str, list[int]] = {}
    drops: dict[str, int] = {}

    def drop(reason: str):
        drops[reason] = drops.get(reason, 0) + 1

    def kept(rows):
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
            citing_years.setdefault(cited.pub_id, []).append(citing_year)
            yield citing_id, cited_id, citing_year

    with open(path, "r", encoding="utf-8-sig", errors="surrogateescape", newline="") as fh:
        rows = _csv_rows(fh)
        _, header = next(rows, (1, None))
        if header != ["citing_pub_id", "cited_pub_id", "citing_year"]:
            raise IngestError("citation file must start with header "
                              "'citing_pub_id,cited_pub_id,citing_year'", line=1)
        write_csv(canonical_path, header, kept(rows))
    return CitationTable(citing_years=citing_years, drop_counts=drops)


# --- canonical artifacts ----------------------------------------------------

def _affiliation_dict(aff: Affiliation) -> dict:
    out: dict = {}
    if aff.org_id is not None:
        out["org_id"] = aff.org_id
    if aff.city_id is not None:
        out["city_id"] = aff.city_id
    if aff.country is not None:
        out["country"] = aff.country
    if aff.lat is not None:
        out["lat"] = aff.lat
        out["lon"] = aff.lon
    return out


def write_publications_jsonl(pubs: PublicationTable, path: str | Path,
                             affiliations_path: str | Path):
    """Write the canonical corpus as two files.

    ``affiliations_path`` gets each distinct affiliation object once, in the
    order the records first use it, which is the order of ``pubs.entries``:
    one ``_affiliation_dict`` per line, whose line number minus 1 is its
    index. ``path`` gets one line per record,
    ``[pub_id, year, doc_type, fields, [[author_id, [index, ...]], ...]]``.
    Every line is the bytes of ``json.dumps(value, sort_keys=True,
    separators=(",", ":"))``; a record line is spliced from fragments encoded
    once per entry of ``pubs.entries`` and (doc_type, fields) pair.
    Affiliations and entries are told apart by identity, as
    ``PublicationTable.entries`` says.
    """
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    indices: dict[int, str] = {}      # id(affiliation) -> its index, as text
    entry_texts: dict[int, str] = {}  # id(entry) -> its JSON array
    # (doc_type, fields) -> the text from the year's "," to the authors' "[":
    middles: dict[tuple, str] = {}

    with open(path, "w", encoding="utf-8", newline="") as fh, \
            open(affiliations_path, "w", encoding="utf-8", newline="") as aff_fh:
        for entry in pubs.entries:
            for aff in entry.affiliations:
                if id(aff) not in indices:
                    indices[id(aff)] = str(len(indices))
                    aff_fh.write(encode(_affiliation_dict(aff)) + "\n")
            affs = ",".join([indices[id(aff)] for aff in entry.affiliations])
            entry_texts[id(entry)] = f"[{encode_basestring_ascii(entry.author_id)},[{affs}]]"

        write = fh.write
        for rec in pubs:
            authors = ",".join([entry_texts[id(entry)] for entry in rec.authors])
            middle = middles.get((rec.doc_type, rec.fields))
            if middle is None:
                middle = middles[rec.doc_type, rec.fields] = (
                    f",{encode(rec.doc_type)},{encode(list(rec.fields))},[")
            write(f"[{encode_basestring_ascii(rec.pub_id)},{rec.year}{middle}{authors}]]\n")


def read_publications_jsonl(path: str | Path, affiliations_path: str | Path) -> PublicationTable:
    """Read back a canonical corpus written by ``write_publications_jsonl``.

    Gives back the records the writer was given, down to the sign of a zero
    coordinate, building one ``Affiliation`` per line of the affiliation
    table, one ``AuthorEntry`` per distinct (author_id, indices) and one field
    tuple per distinct field list, and interning author ids. No domain rule,
    year window or duplicate id is checked: the pipeline reads the canonical
    corpus back only after matching its digests with the manifest. External
    input goes through ``load_publications``.
    """
    # each line is one value the writer wrote: raw_decode skips the
    # whitespace scans json.loads makes around it
    decode = json.JSONDecoder().raw_decode
    with open(affiliations_path, "r", encoding="utf-8") as fh:
        affiliations = [Affiliation._make(map(decode(line)[0].get, _AFFILIATION_KEYS))
                        for line in fh]
    doc_types = _DOC_TYPE_ALIASES  # so records share one string per type
    entries: dict[tuple, AuthorEntry] = {}
    field_lists: dict[tuple, tuple[str, ...]] = {}
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            pub_id, year, doc_type, fields, raw_authors = decode(line)[0]
            fields = tuple(fields)
            authors = []
            for author_id, indices in raw_authors:
                key = (author_id, *indices)
                entry = entries.get(key)
                if entry is None:
                    entry = entries[key] = AuthorEntry(
                        sys.intern(author_id), tuple([affiliations[i] for i in indices]))
                authors.append(entry)
            records.append(PublicationRecord(pub_id, year, doc_types[doc_type],
                                             field_lists.setdefault(fields, fields),
                                             tuple(authors)))
    return PublicationTable(records=records, input_lines=len(records))


def read_citations_csv(path: str | Path) -> CitationTable:
    """Read back the citing years of a canonical citation file written by
    ``load_citations``, checking nothing, as ``read_publications_jsonl``
    does. Its drop counts are empty."""
    citing_years: dict[str, list[int]] = {}
    for _, cited_id, year in read_csv(path):
        citing_years.setdefault(cited_id, []).append(int(year))
    return CitationTable(citing_years=citing_years)


def write_rejects_csv(rejects: Iterable[tuple[int, str]], path: str | Path):
    write_csv(path, ["line", "reason"], rejects)


def write_citation_drops_csv(drop_counts: dict[str, int], path: str | Path):
    write_csv(path, ["reason", "count"], sorted(drop_counts.items()))


# --- document type prevalence ------------------------------------------------

@dataclass
class CorpusStats:
    """Per document type: counts and percentages in the whole corpus and in the
    top cited subsets. Percentages per column sum to 100 unless the column's
    population is empty."""

    rows: list[tuple[str, int, float, int, float, int, float]]
    empty: bool

    HEADER = ("doc_type", "count_all", "pct_all", "count_top10", "pct_top10",
              "count_top1", "pct_top1")


def corpus_stats(pubs: PublicationTable, tags) -> CorpusStats:
    """Document type prevalence over all / top-10% / top-1% publications;
    ``tags`` holds the ids of each top subset in ``top10`` and ``top1``."""
    counts = {doc_type: [0, 0, 0] for doc_type in _DOC_TYPE_ALIASES.values()}
    top10, top1 = tags.top10, tags.top1
    for rec in pubs:
        row = counts[rec.doc_type]
        row[0] += 1
        row[1] += rec.pub_id in top10
        row[2] += rec.pub_id in top1
    totals = [sum(row[i] for row in counts.values()) for i in range(3)]

    def pct(part: int, whole: int) -> float:
        return float(Fraction(100 * part, whole)) if whole else 0.0

    rows = []
    for value, (c_all, c10, c1) in counts.items():
        rows.append((value, c_all, pct(c_all, totals[0]),
                     c10, pct(c10, totals[1]), c1, pct(c1, totals[2])))
    return CorpusStats(rows=rows, empty=totals[0] == 0)


def write_corpus_stats_csv(stats: CorpusStats, path: str | Path):
    write_csv(path, [*CorpusStats.HEADER, "empty_corpus"],
              ((row[0], row[1], repr(row[2]), row[3], repr(row[4]), row[5], repr(row[6]),
                int(stats.empty)) for row in stats.rows))
