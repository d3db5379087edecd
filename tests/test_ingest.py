import codecs
import csv
import io
import json
import re
import shutil
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from teammine import ingest
from teammine.csvio import read_csv
from teammine.errors import IngestError
from teammine.cli import main
from teammine.ingest import (corpus_stats, load_citations, load_publications,
                             read_publications_jsonl, write_publications_jsonl)
from teammine.pipeline import Pipeline, PipelineConfig
from teammine.presets import random_planted_config, wired_overlap_config
from teammine.synthgen import SynthConfig, generate_corpus

from helpers import (pub, pub_json, run_pipeline, table, tag_table, write_citations,
                     write_jsonl)
from ingest_reference import reference_citations, reference_parser

YEARS = (2008, 2020)
DOC_TYPES = ("Article", "Review", "Letter", "Proceedings Paper")


def canonical_values(records) -> tuple[list, list, list]:
    """The reference form of the canonical corpus: one
    ``[pub_id, year, doc_type, fields, [[author_id, [index, ...]], ...]]`` per
    record, and the affiliation table, which lists each affiliation object
    once (by identity, so 0.0 and -0.0 stay apart) in the order the records
    first use it, absent values left out; then the author entries, each
    object once in the order the records first use it."""
    table: list[dict] = []
    index: dict[int, int] = {}
    entries: dict[int, object] = {}
    lines = []
    for rec in records:
        authors = []
        for entry in rec.authors:
            entries.setdefault(id(entry), entry)
            positions = []
            for aff in entry.affiliations:
                if id(aff) not in index:
                    index[id(aff)] = len(table)
                    values = {"org_id": aff.org_id, "city_id": aff.city_id,
                              "country": aff.country, "lat": aff.lat, "lon": aff.lon}
                    table.append({key: value for key, value in values.items()
                                  if value is not None})
                positions.append(index[id(aff)])
            authors.append([entry.author_id, positions])
        lines.append([rec.pub_id, rec.year, rec.doc_type, list(rec.fields), authors])
    return lines, table, list(entries.values())


def reference_canonical(records) -> tuple[bytes, bytes]:
    """The bytes of both canonical files: each of the first two values of
    ``canonical_values`` as ``json.dumps(..., sort_keys=True,
    separators=(",", ":"))``, one a line."""
    return tuple("".join(json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n"
                         for value in values).encode()
                 for values in canonical_values(records)[:2])


def write_canonical(pubs, directory) -> tuple:
    """Write ``pubs`` as the two canonical files in ``directory``; their paths."""
    paths = (directory / "canonical.jsonl", directory / "affiliations.jsonl")
    write_publications_jsonl(pubs, *paths)
    return paths


def _assert_canonical(pubs, paths, tmp_path):
    """The canonical files at ``paths`` hold ``reference_canonical(pubs)``,
    read back as ``pubs`` (by ``repr``, so -0.0 stays apart from 0.0 and a
    float from an int) with the same author id objects, and writing what was
    read reproduces both files byte for byte. Both tables list as their
    ``entries`` the entry objects ``canonical_values`` finds, those of
    rejected records left out."""
    assert tuple(path.read_bytes() for path in paths) == reference_canonical(pubs)
    read = read_publications_jsonl(*paths)
    assert repr(read.records) == repr(pubs.records)
    for loaded in (pubs, read):
        assert list(map(id, loaded.entries)) == list(map(id, canonical_values(loaded)[2]))
    assert repr(read.entries) == repr(pubs.entries)
    assert read.rejects == [] and read.input_lines == len(read)
    assert all(a.author_id is b.author_id
               for x, y in zip(read, pubs) for a, b in zip(x.authors, y.authors))
    rewritten = tmp_path / "rewritten"
    rewritten.mkdir(exist_ok=True)
    for path, again in zip(paths, write_canonical(read, rewritten)):
        assert again.read_bytes() == path.read_bytes()


def test_hundred_valid_articles(tmp_path):
    records = [pub_json(f"p{i}", 2010, ["a1", "a2"]) for i in range(100)]
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, records)
    pubs = load_publications(path, *YEARS)
    assert len(pubs) == 100
    assert pubs.rejects == []
    assert pubs.input_lines == 100


def test_editorial_rejected(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1"], doc_type="Editorial")])
    pubs = load_publications(path, *YEARS)
    assert len(pubs) == 0
    assert pubs.rejects == [(1, "doc_type")]


def test_reject_reasons(tmp_path):
    records = [
        pub_json("p1", 1999, ["a1"]),                       # year_window
        pub_json("p2", 2010, []),                           # no_authors
        pub_json("p3", 2010, ["a1", "a1"]),                 # duplicate_author
        pub_json("p4", 2010, ["a1"], fields=()),            # fields
        pub_json("p5", 2010, ["a1"], affs=[{}]),            # affiliation
        pub_json("p6", 2010, ["a1"], affs=[{"lat": 95.0, "lon": 0.0}]),  # coordinates
        pub_json("p7", 2010, ["a1"], affs=[{"lat": 5.0}]),  # half a coordinate
        pub_json("p8", 2010, ["a1"], affs=[]),              # no affiliation at all
        pub_json("p9", 2010, ["a1"]),
    ]
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, records)
    pubs = load_publications(path, *YEARS)
    assert len(pubs) == 1
    reasons = [reason for _, reason in pubs.rejects]
    assert reasons == ["year_window", "no_authors", "duplicate_author", "fields",
                       "affiliation", "coordinates", "coordinates", "affiliation"]
    assert len(pubs) + len(pubs.rejects) == pubs.input_lines


def test_affiliation_org_only_is_fine(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1"], affs=[{"org_id": "o1"}])])
    pubs = load_publications(path, *YEARS)
    assert len(pubs) == 1
    aff = pubs.get("p1").authors[0].affiliations[0]
    assert aff.city_id is None and not aff.has_geo()


def test_geo_only_is_fine(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1"], affs=[{"lat": 1.0, "lon": 2.0}])])
    assert len(load_publications(path, *YEARS)) == 1


def test_duplicate_pub_id_fatal(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1"]), pub_json("p1", 2011, ["a2"])])
    with pytest.raises(IngestError, match="line 2.*duplicate"):
        load_publications(path, *YEARS)


def test_malformed_line_reports_number(tmp_path):
    path = tmp_path / "pubs.jsonl"
    with open(path, "w") as fh:
        fh.write(json.dumps(pub_json("p1", 2010, ["a1"])) + "\n")
        fh.write("{not json\n")
    with pytest.raises(IngestError, match="line 2"):
        load_publications(path, *YEARS)


def test_missing_key_is_malformed(tmp_path):
    path = tmp_path / "pubs.jsonl"
    record = pub_json("p1", 2010, ["a1"])
    del record["year"]
    write_jsonl(path, [record])
    with pytest.raises(IngestError, match="missing key 'year'"):
        load_publications(path, *YEARS)


def test_author_id_with_member_separator_is_malformed(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1", "a2"]), pub_json("p2", 2010, ["x;y", "z"])])
    with pytest.raises(IngestError, match="line 2: author_id must not contain ';'"):
        load_publications(path, *YEARS)


_DELETE = object()


def _replace(record: dict, path: tuple, value):
    """``record`` with the value at ``path`` set, or deleted for ``_DELETE``;
    the empty path replaces the record itself."""
    if not path:
        return value
    *parents, key = path
    target = record
    for step in parents:
        target = target[step]
    if value is _DELETE:
        del target[key]
    else:
        target[key] = value
    return record


_AFF = {"org_id": "o1", "city_id": "c1", "country": "NL", "lat": 52.5, "lon": 4.5}
_AUTHOR2 = ("authors", 1)
_AFF2 = ("authors", 1, "affiliations", 1)


def _two_author_record(pub_id: str) -> dict:
    return pub_json(pub_id, 2010, ["a1", "a2"], affs=[_AFF, {"org_id": "o2"}])


def _second_line_error(tmp_path, broken) -> str:
    """The error of a load whose line 1 is a valid record that memoizes the
    field list, both author entries and both affiliations line 2 starts from."""
    raw = tmp_path / "pubs.jsonl"
    write_jsonl(raw, [_two_author_record("p1"), broken])
    with pytest.raises(IngestError) as info:
        load_publications(raw, *YEARS)
    return str(info.value)


# one broken value per structural message of the parser, in the order the
# rules are checked; an author entry's rules come before the next entry's
_STRUCTURAL_ERRORS = [
    ((), [1], "record is not an object"),
    (("pub_id",), _DELETE, "missing key 'pub_id'"),
    (("year",), _DELETE, "missing key 'year'"),
    (("doc_type",), _DELETE, "missing key 'doc_type'"),
    (("fields",), _DELETE, "missing key 'fields'"),
    (("authors",), _DELETE, "missing key 'authors'"),
    (("pub_id",), "", "pub_id must be a non-empty string"),
    (("year",), "2010", "year must be an integer"),
    (("year",), True, "year must be an integer"),
    (("doc_type",), None, "doc_type must be a string"),
    (("fields",), ["F0", ["F1"]], "fields must be a list of strings"),
    (("authors",), {"a1": {}}, "authors must be a list"),
    (("authors", 0, "affiliations", 0, "lon"), "4.5", "lon must be a number"),
    (_AUTHOR2, "a2", "author entry is not an object"),
    ((*_AUTHOR2, "author_id"), _DELETE, "author_id must be a non-empty string"),
    ((*_AUTHOR2, "author_id"), "a;2", "author_id must not contain ';'"),
    ((*_AUTHOR2, "affiliations"), {"org_id": "o1"}, "affiliations must be a list"),
    (_AFF2, ["o2"], "affiliation is not an object"),
    ((*_AFF2, "org_id"), 5, "org_id must be a string"),
    ((*_AFF2, "city_id"), ["c2"], "city_id must be a string"),
    ((*_AFF2, "country"), False, "country must be a string"),
    ((*_AFF2, "lat"), "52.5", "lat must be a number"),
    ((*_AFF2, "lat"), True, "lat must be a number"),
    ((*_AFF2, "lon"), {}, "lon must be a number"),
]


@pytest.mark.parametrize("path,value,message", _STRUCTURAL_ERRORS)
def test_each_structural_error_names_its_line(tmp_path, path, value, message):
    broken = _replace(_two_author_record("p2"), path, value)
    assert _second_line_error(tmp_path, broken) == f"line 2: {message}"


def test_structural_rules_apply_in_order(tmp_path):
    # each break added precedes every one already made, so it is the one reported
    broken = _two_author_record("p2")
    for path, value, message in reversed(_STRUCTURAL_ERRORS):
        broken = _replace(broken, path, value)
        assert _second_line_error(tmp_path, broken) == f"line 2: {message}"


def test_planted_reject_rate(tmp_path):
    # 867 valid records plus 133 rejects: 13.3% of input lines excluded
    config = SynthConfig(seed=5, year_min=1, year_max=5,
                         teams=(), n_background_authors=30, background_pubs=867)
    generate_corpus(config, tmp_path)
    with open(tmp_path / "publications.jsonl", "a", encoding="utf-8") as fh:
        for i in range(133):  # a non-study document type, or an empty affiliation
            doc_type, affiliation = (("Editorial", {"org_id": "oR"}) if i % 2 == 0
                                     else ("Article", {}))
            fh.write(json.dumps({"pub_id": f"r{i}", "year": 1, "doc_type": doc_type,
                                 "fields": ["F0"],
                                 "authors": [{"author_id": f"rej{i}",
                                              "affiliations": [affiliation]}]}) + "\n")
    pubs = load_publications(tmp_path / "publications.jsonl", 1, 5)
    assert pubs.input_lines == 1000
    assert len(pubs.rejects) == 133
    assert len(pubs) / pubs.input_lines == pytest.approx(0.867, abs=0.0005)


def test_stored_records_satisfy_invariants(tmp_path):
    config = SynthConfig(seed=1, year_min=1, year_max=8, teams=(),
                         n_background_authors=40, background_pubs=300)
    generate_corpus(config, tmp_path)
    pubs = load_publications(tmp_path / "publications.jsonl", 1, 8)
    seen = set()
    for rec in pubs:
        assert rec.pub_id not in seen
        seen.add(rec.pub_id)
        assert 1 <= rec.year <= 8
        assert rec.fields
        assert rec.authors
        ids = [a.author_id for a in rec.authors]
        assert len(set(ids)) == len(ids)
        for entry in rec.authors:
            assert entry.affiliations
            for aff in entry.affiliations:
                assert aff.org_id is not None or aff.has_geo()
                if aff.has_geo():
                    assert -90 <= aff.lat <= 90 and -180 <= aff.lon <= 180


def test_crlf_lines_load_like_lf(tmp_path):
    records = [pub_json("p1", 2010, ["a1"]), pub_json("p2", 1999, ["a1"]),
               pub_json("p3", 2011, ["a2"])]
    lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
    write_jsonl(lf, records)
    crlf.write_bytes(lf.read_bytes().replace(b"\n", b"\r\n"))
    a, b = load_publications(lf, *YEARS), load_publications(crlf, *YEARS)
    assert a.records == b.records
    assert a.rejects == b.rejects == [(2, "year_window")]


def _with_bad_second_line(path, line: bytes):
    path.write_bytes(json.dumps(pub_json("p1", 2010, ["a1"])).encode() + b"\n" + line + b"\n")


def test_invalid_utf8_line_is_ingest_error(tmp_path):
    path = tmp_path / "pubs.jsonl"
    _with_bad_second_line(path, b'{"pub_id": "\xff"}')
    with pytest.raises(IngestError, match="line 2: invalid UTF-8"):
        load_publications(path, *YEARS)


def test_deeply_nested_line_is_ingest_error(tmp_path):
    path = tmp_path / "pubs.jsonl"
    _with_bad_second_line(path, b"[" * 200_000)
    with pytest.raises(IngestError, match="line 2: invalid JSON"):
        load_publications(path, *YEARS)


def test_integer_over_digit_limit_is_ingest_error(tmp_path):
    path = tmp_path / "pubs.jsonl"
    record = json.dumps(pub_json("p2", 2010, ["a1"])).replace("2010", "9" * 5000)
    _with_bad_second_line(path, record.encode())
    with pytest.raises(IngestError, match="line 2: invalid JSON"):
        load_publications(path, *YEARS)


@pytest.mark.parametrize("escape", ["\\ud800", "\\uDFFFx", "\\ude00\\ud83d"])
def test_unpaired_surrogate_escape_is_ingest_error(tmp_path, escape):
    path = tmp_path / "pubs.jsonl"
    record = json.dumps(pub_json("p2", 2010, ["a1"], affs=[{"org_id": "o1"}]))
    _with_bad_second_line(path, record.replace('"o1"', f'"o{escape}"').encode())
    with pytest.raises(IngestError, match="line 2: unpaired surrogate escape"):
        load_publications(path, *YEARS)


def test_paired_surrogate_escape_is_a_character(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p\U0001F600", 2010, ["a1"])])  # written as \ud83d\ude00
    assert "\\ud83d\\ude00" in path.read_text()
    assert [r.pub_id for r in load_publications(path, *YEARS)] == ["p\U0001F600"]


@pytest.mark.parametrize("key,sign", [("lat", ""), ("lon", "-")])
def test_integer_coordinate_too_large_for_float_rejected(tmp_path, key, sign):
    path = tmp_path / "pubs.jsonl"
    record = pub_json("p2", 2010, ["a1"], affs=[{"lat": 0, "lon": 0}])
    line = json.dumps(record).replace(f'"{key}": 0', f'"{key}": {sign}{"4" * 400}')
    _with_bad_second_line(path, line.encode())
    pubs = load_publications(path, *YEARS)
    assert [r.pub_id for r in pubs] == ["p1"]
    assert pubs.rejects == [(2, "coordinates")]


# --- the canonical reader ---

@pytest.mark.parametrize("preset", [wired_overlap_config, random_planted_config])
def test_reader_matches_loader_on_run_corpus(tmp_path, preset):
    config = preset()
    raw = tmp_path / "corpus" / "publications.jsonl"
    generate_corpus(config, raw.parent)
    out = tmp_path / "out"
    Pipeline(PipelineConfig(pubs_path=str(raw),
                            citations_path=str(tmp_path / "corpus" / "citations.csv"),
                            out_dir=str(out), year_min=config.year_min,
                            year_max=config.year_max)).run("ingest")
    loaded = load_publications(raw, config.year_min, config.year_max)
    paths = (out / "canonical_publications.jsonl", out / "canonical_affiliations.jsonl")
    _assert_canonical(loaded, paths, tmp_path)


@pytest.mark.parametrize("name", ["publications.jsonl", "citations.csv"])
def test_byte_order_mark_changes_no_artifact(tmp_path, name):
    config = random_planted_config()
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    generate_corpus(config, plain)
    shutil.copytree(plain, marked)
    (marked / name).write_bytes(codecs.BOM_UTF8 + (plain / name).read_bytes())
    artifacts = []
    for corpus in (plain, marked):
        out = corpus / "out"
        run_pipeline(corpus, out, config.year_min, config.year_max)
        artifacts.append({path.name: path.read_bytes()
                          for path in [*out.glob("*.csv"), *out.glob("*.jsonl")]})
    assert len(artifacts[0]) > 30
    assert artifacts[0] == artifacts[1]


@pytest.mark.parametrize("name,lines", [
    ("pubs.jsonl", [json.dumps(pub_json("p1", 2010, ["a1"])).encode(), b"{"]),
    ("cites.csv", [b"citing_pub_id,cited_pub_id,citing_year", b"x1,p1,notayear"]),
])
def test_byte_order_mark_keeps_line_numbers(tmp_path, name, lines):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / name
    path.write_bytes(codecs.BOM_UTF8 + b"\n".join(lines) + b"\n")
    with pytest.raises(IngestError, match="^line 2: "):
        if name == "pubs.jsonl":
            load_publications(path, *YEARS)
        else:
            _load_citations(path, pubs)


def test_reader_matches_loader_on_every_affiliation_shape(tmp_path):
    geo_only = {"lat": 1, "lon": -2}
    org_only = {"org_id": "o9"}
    full = {"org_id": "o1", "city_id": "c1", "country": "NL", "lat": 52.5, "lon": 4}
    records = [
        pub_json("p1", 2010, ["a1", "a2"], affs=[geo_only]),
        pub_json("p2", 2011, ["a1"], affs=[org_only]),
        pub_json("p3", 2012, ["a3", "a1"], affs=[full, org_only, geo_only]),
        pub_json("p4", 2013, ["a2"], doc_type="Proceeding Paper", fields=("F2", "F1", "F2")),
    ]
    raw = tmp_path / "pubs.jsonl"
    write_jsonl(raw, records)
    loaded = load_publications(raw, *YEARS)
    paths = write_canonical(loaded, tmp_path)
    _assert_canonical(loaded, paths, tmp_path)
    p3 = read_publications_jsonl(*paths).get("p3")
    assert [len(a.affiliations) for a in p3.authors] == [3, 3]
    assert p3.authors[0].affiliations[2].lat == 1.0
    assert isinstance(p3.authors[0].affiliations[0].lon, float)


# --- citations ---

def _pubs_for_citations(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1"]), pub_json("p2", 2012, ["a2"])])
    return load_publications(path, *YEARS)


def _load_citations(path, pubs):
    """``load_citations`` of ``path``, and the rows it wrote to the canonical
    file beside it."""
    canonical = path.with_name("canonical_citations.csv")
    cites = load_citations(path, pubs, canonical)
    return cites, list(read_csv(canonical))


def test_empty_citation_file(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [])
    assert _load_citations(path, pubs)[1] == []


def test_unknown_cited_dropped(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [("x1", "nope", 2011)])
    cites, rows = _load_citations(path, pubs)
    assert cites.citing_years == {} and rows == []
    assert cites.drop_counts == {"unknown_cited": 1}


def test_all_window_events_stored(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [("x1", "p1", 2010), ("x2", "p1", 2011), ("x3", "p1", 2015)])
    cites, rows = _load_citations(path, pubs)
    assert cites.citing_years == {"p1": [2010, 2011, 2015]}
    assert rows == [["x1", "p1", "2010"], ["x2", "p1", "2011"], ["x3", "p1", "2015"]]


def test_citing_year_defaults_to_citing_pub_year(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [("p2", "p1", "")])
    cites, rows = _load_citations(path, pubs)
    assert cites.citing_years == {"p1": [2012]}
    assert rows == [["p2", "p1", "2012"]]


def test_missing_year_unknown_citing_dropped(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [("ghost", "p1", "")])
    cites, _ = _load_citations(path, pubs)
    assert cites.drop_counts == {"missing_year": 1}


def test_year_before_cited_dropped(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [("x1", "p1", 2009)])
    cites, rows = _load_citations(path, pubs)
    assert cites.citing_years == {} and rows == []
    assert cites.drop_counts == {"year_before_cited": 1}


def test_malformed_citation_line_fatal(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    with open(path, "w") as fh:
        fh.write("citing_pub_id,cited_pub_id,citing_year\nx1,p1,notayear\n")
    with pytest.raises(IngestError, match="line 2"):
        _load_citations(path, pubs)


@pytest.mark.parametrize("text", ["", "citing,cited,year\nx1,p1,2010\n"])
def test_citation_header_required(tmp_path, text):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    path.write_text(text)
    message = ("line 1: citation file must start with header "
               "'citing_pub_id,cited_pub_id,citing_year'")
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        _load_citations(path, pubs)


@pytest.mark.parametrize("year", ["2_012", " 2012 ", "+2012", "\u0662\u0660\u0661\u0662"])
def test_citing_year_is_ascii_digits(tmp_path, year):
    """int() reads each of these as 2012; a citing year is an optional '-'
    followed by ASCII digits."""
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    write_citations(path, [("x0", "p1", "-7"), ("x1", "p1", "02012"), ("x2", "p1", year)])
    message = f"line 4: citing_year {year!r} is not an integer"
    with pytest.raises(IngestError, match=f"^{re.escape(message)}$"):
        _load_citations(path, pubs)
    write_citations(path, [("x0", "p1", "-7"), ("x1", "p1", "02012")])
    cites, rows = _load_citations(path, pubs)
    assert cites.citing_years == {"p1": [2012]}
    assert rows == [["x1", "p1", "2012"]]
    assert cites.drop_counts == {"year_before_cited": 1}


def test_overlong_citing_year_is_ingest_error(tmp_path, capsys):
    """A citing year of more digits than int() converts stops `teammine
    ingest` with one error line naming the row's line, without repeating
    the digits; the reference reader refuses it alike."""
    pubs, cites = tmp_path / "pubs.jsonl", tmp_path / "cites.csv"
    write_jsonl(pubs, [pub_json("p1", 2010, ["a1"])])
    write_citations(cites, [("x1", "p1", "9" * 5000)])
    message = "line 2: citing_year of 5000 characters is too long"
    assert main(["ingest", "--pubs", str(pubs), "--citations", str(cites),
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(IngestError, match=f"^{message}$"):
        reference_citations(cites, load_publications(pubs, *YEARS))


def test_invalid_utf8_citation_line_is_ingest_error(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    path.write_bytes(b"citing_pub_id,cited_pub_id,citing_year\nx1,p1,2010\nx2,\xff,2011\n")
    with pytest.raises(IngestError, match="line 3: invalid UTF-8"):
        _load_citations(path, pubs)


def test_oversized_citation_field_is_ingest_error(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    path.write_text("citing_pub_id,cited_pub_id,citing_year\nx0,p1,2010\n"
                    f"x1,{'p' * 140_000},2011\n")
    with pytest.raises(IngestError, match="line 3: malformed CSV"):
        _load_citations(path, pubs)


def test_crlf_citation_lines(tmp_path):
    pubs = _pubs_for_citations(tmp_path)
    path = tmp_path / "cites.csv"
    path.write_bytes(b"citing_pub_id,cited_pub_id,citing_year\r\nx1,p1,2010\r\nx2,p2,\r\n")
    cites, rows = _load_citations(path, pubs)
    assert rows == [["x1", "p1", "2010"]]
    assert cites.drop_counts == {"missing_year": 1}


# --- fuzzing: a record, a counted reject, or an IngestError naming the line ---

# lone surrogates too: json.dumps writes them as unpaired \uD800-\uDFFF escapes
_texts = st.text(max_size=8) | st.text(st.characters(categories=["Cs", "Ll"]), max_size=3)
_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _texts,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner,
                                                                max_size=3),
    max_leaves=8)


_PATHS = [("pub_id",), ("year",), ("doc_type",), ("fields",), ("authors",),
          ("authors", 0), ("authors", 0, "author_id"), ("authors", 0, "affiliations"),
          ("authors", 0, "affiliations", 0), ("authors", 0, "affiliations", 0, "lat"),
          ("authors", 0, "affiliations", 0, "lon"), ("authors", 0, "affiliations", 0, "org_id")]


@st.composite
def _pub_lines(draw) -> bytes:
    """Arbitrary bytes, an arbitrary JSON value, or a valid record with one to
    three values at any depth replaced by arbitrary ones or deleted, so that
    the order of the structural rules shows."""
    kind = draw(st.sampled_from(["bytes", "value", "record"]))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    if kind == "value":
        return json.dumps(draw(_json_values)).encode()
    record = pub_json(draw(st.sampled_from(["p1", "p2", "p3"])), 2010, ["a1", "a2"])
    paths = draw(st.lists(st.sampled_from(_PATHS), min_size=1, max_size=3, unique=True))
    for path in sorted(paths, key=len, reverse=True):  # inner values before their parents
        _replace(record, path, draw(_texts | _json_values | st.just(_DELETE)))
    return json.dumps(record).encode()


def _line_bound(data: bytes) -> int:
    return data.count(b"\n") + data.count(b"\r") + 1


def _assert_names_line(exc: IngestError, data: bytes):
    assert exc.line is not None and 1 <= exc.line <= _line_bound(data)
    assert str(exc).startswith(f"line {exc.line}: ")


_FUZZ = settings(max_examples=300, deadline=None,
                 suppress_health_check=[HealthCheck.function_scoped_fixture])


@_FUZZ
@given(lines=st.lists(_pub_lines(), max_size=4))
def test_fuzz_load_publications(tmp_path, lines):
    data = b"\n".join(lines)
    path = tmp_path / "pubs.jsonl"
    path.write_bytes(data)
    try:
        pubs = load_publications(path, *YEARS)
    except IngestError as exc:
        _assert_names_line(exc, data)
        return
    assert len(pubs) + len(pubs.rejects) == pubs.input_lines
    # every string can go into a UTF-8 artifact
    json.dumps(canonical_values(pubs.records)[:2], ensure_ascii=False).encode()
    _assert_canonical(pubs, write_canonical(pubs, tmp_path), tmp_path)


# --- the parser against the reference checks ---

def _load_outcome(path):
    """What a load of ``path`` gives, in a form that tells -0.0 from 0.0 and
    an int from a float: records, rejects and line count, or the error."""
    try:
        pubs = load_publications(path, *YEARS)
    except IngestError as exc:
        return "error", str(exc)
    return repr(pubs.records), pubs.rejects, pubs.input_lines


def _reference_outcome(path):
    """The same load with every record decided by the reference checks in
    ``ingest_reference``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_record_parser", lambda: reference_parser(*YEARS))
        return _load_outcome(path)


def _assert_matches_reference(tmp_path, data: bytes):
    path = tmp_path / "pubs.jsonl"
    path.write_bytes(data)
    assert _load_outcome(path) == _reference_outcome(path)
    try:
        pubs = load_publications(path, *YEARS)
    except IngestError:
        return
    _assert_canonical(pubs, write_canonical(pubs, tmp_path), tmp_path)


@_FUZZ
@given(lines=st.lists(_pub_lines(), min_size=2, max_size=6))
def test_fuzz_fast_pass_matches_reference(tmp_path, lines):
    _assert_matches_reference(tmp_path, b"\n".join(lines))


# JSON number texts that compare equal to others, or are no finite float
_COORDINATES = ["1", "1.0", "true", "-0.0", "0.0", "0", "NaN", "1e400", "-1e400"]


@pytest.mark.parametrize("first", _COORDINATES)
@pytest.mark.parametrize("second", _COORDINATES)
def test_coordinate_values_that_compare_equal(tmp_path, first, second):
    def line(pub_id, author_id, lat):
        record = pub_json(pub_id, 2010, [author_id],
                          affs=[{"org_id": "o1", "lat": 7.5, "lon": 7.5}])
        return json.dumps(record).replace('"lat": 7.5', f'"lat": {lat}')

    lines = [line("p1", "a1", first), line("p2", "a1", second), line("p3", "a2", second),
             line("p4", "a2", first), line("p5", "a1", first)]
    _assert_matches_reference(tmp_path, "\n".join(lines).encode())


def test_negative_zero_keeps_its_sign(tmp_path):
    lines = [pub_json(f"p{i}", 2010, ["a1"], affs=[{"org_id": "o1", "lat": lat, "lon": lat}])
             for i, lat in enumerate([0.0, -0.0, 0.0, -0.0])]
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, lines)
    pubs = load_publications(raw, *YEARS)
    assert [repr(r.authors[0].affiliations[0].lat) for r in pubs] == ["0.0", "-0.0"] * 2
    _assert_matches_reference(tmp_path, raw.read_bytes())
    assert (tmp_path / "affiliations.jsonl").read_bytes().count(b'"lat":-0.0') == 2


def test_entries_list_kept_records_only(tmp_path):
    """An entry that only a rejected record uses is not listed; equal entries
    at 0.0 and -0.0 are listed apart, in the order kept records first use them."""
    lines = [pub_json("p1", 1999, ["a9"]),  # a year_window reject
             pub_json("p2", 2010, ["a1", "a2"]),
             *(pub_json(f"p{i}", 2010, ["a2", "a1"],
                        affs=[{"org_id": "o1", "lat": lat, "lon": 1.5}])
               for i, lat in ((3, 0.0), (4, -0.0), (5, 0.0)))]
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, lines)
    pubs = load_publications(raw, *YEARS)
    assert pubs.rejects == [(1, "year_window")]
    p2, p3, p4, p5 = pubs
    assert list(map(id, pubs.entries)) == list(map(id, [*p2.authors, *p3.authors,
                                                        *p4.authors, *p5.authors]))
    assert p3.authors == p4.authors == p5.authors
    _assert_canonical(pubs, write_canonical(pubs, tmp_path), tmp_path)


@pytest.mark.parametrize("key", ingest._AFFILIATION_KEYS)
@pytest.mark.parametrize("value", [5, 2.5, True, "x", None])
def test_each_affiliation_value_type(tmp_path, key, value):
    aff = {"org_id": "o1", "city_id": "c1", "country": "NL", "lat": 5.5, "lon": 6.5}
    records = [pub_json("p1", 2010, ["a1"], affs=[aff]),
               pub_json("p2", 2011, ["a1"], affs=[{**aff, key: value}]),
               pub_json("p3", 2012, ["a2"], affs=[{**aff, key: value}])]
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, records)
    _assert_matches_reference(tmp_path, raw.read_bytes())


def test_extra_affiliation_keys_are_ignored(tmp_path):
    extra = {"org_id": "o1", "city_id": "c1", "country": "NL", "lat": 5.5, "lon": 6.5,
             "rank": [1, {"x": None}], "note": "kept nowhere"}
    plain = {key: extra[key] for key in ("org_id", "city_id", "country", "lat", "lon")}
    records = [pub_json("p1", 2010, ["a1", "a2"], affs=[extra]),
               pub_json("p2", 2011, ["a1"], affs=[plain]),
               pub_json("p3", 2012, ["a2"], affs=[extra, plain])]
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, records)
    _assert_matches_reference(tmp_path, raw.read_bytes())
    pubs = load_publications(raw, *YEARS)
    assert pubs.get("p1").authors[0] is pubs.get("p2").authors[0]
    assert b"rank" not in b"".join(reference_canonical(pubs))


# --- interning ---

def _shared_affiliation_corpus(path):
    shared = {"org_id": "o1", "city_id": "c1", "country": "NL", "lat": 52.5, "lon": 4.5}
    own = {"org_id": "o2", "lat": -3.25, "lon": 100.75}
    write_jsonl(path, [pub_json("p1", 2010, ["a1", "a2"], affs=[shared]),
                       pub_json("p2", 2011, ["a1", "a3"], affs=[shared]),
                       pub_json("p3", 2012, ["a3"], affs=[own, shared], fields=("F1", "F0")),
                       pub_json("p4", 2013, ["a2"], affs=[shared], fields=("F0", "F1")),
                       pub_json("p5", 2014, ["a3"], affs=[own, shared])])


def _assert_shares_repeated_values(pubs):
    p1, p2, p3, p4, p5 = (pubs.get(f"p{i}") for i in range(1, 6))
    aff = p1.authors[0].affiliations[0]
    assert all(a.affiliations[0] is aff for rec in (p1, p2, p4) for a in rec.authors)
    assert p3.authors[0].affiliations[1] is aff
    assert p2.authors[0] is p1.authors[0]   # a1 with the shared affiliation
    assert p4.authors[0] is p1.authors[1]   # a2 likewise
    assert p3.authors[0] is not p2.authors[1]
    assert p5.authors[0] is p3.authors[0]   # a3 with an affiliation lacking keys
    assert p1.fields is p2.fields and p3.fields is p4.fields == ("F0", "F1")


def test_loader_and_reader_share_repeated_values(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _shared_affiliation_corpus(raw)
    loaded = load_publications(raw, *YEARS)
    _assert_shares_repeated_values(loaded)
    paths = write_canonical(loaded, tmp_path)
    _assert_shares_repeated_values(read_publications_jsonl(*paths))
    _assert_canonical(loaded, paths, tmp_path)


def _interned_ids(pubs) -> set[int]:
    return {id(obj) for rec in pubs for entry in rec.authors
            for obj in (rec.fields, entry, *entry.affiliations)}


def test_two_loads_share_no_objects(tmp_path):
    raw = tmp_path / "raw.jsonl"
    _shared_affiliation_corpus(raw)
    paths = write_canonical(load_publications(raw, *YEARS), tmp_path)
    loads = [load_publications(raw, *YEARS), load_publications(raw, *YEARS),
             read_publications_jsonl(*paths), read_publications_jsonl(*paths)]
    seen: set[int] = set()
    for pubs in loads:  # so no memo outlives the load that made it
        ids = _interned_ids(pubs)
        assert not seen & ids
        seen |= ids


def _csv_line(fields) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer, lineterminator="").writerow(fields)
    return buffer.getvalue().encode()


_citation_fields = (st.sampled_from(["p1", "p2", "ghost", "", "2011", "2009", "x"])
                    | st.text(max_size=6))


@_FUZZ
@given(lines=st.lists(st.binary(max_size=30)
                      | st.lists(_citation_fields, max_size=4).map(_csv_line),
                      max_size=4))
def test_fuzz_load_citations(tmp_path, lines):
    pubs = _pubs_for_citations(tmp_path)
    data = b"\n".join([b"citing_pub_id,cited_pub_id,citing_year", *lines])
    path = tmp_path / "cites.csv"
    path.write_bytes(data)
    try:
        _, rows = _load_citations(path, pubs)
    except IngestError as exc:
        _assert_names_line(exc, data)
        return
    for _, cited_id, citing_year in rows:
        assert pubs.get(cited_id) is not None
        assert int(citing_year) >= pubs.get(cited_id).year


# --- document type prevalence ---

def test_corpus_stats_all_articles(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json(f"p{i}", 2010, ["a1"]) for i in range(5)])
    pubs = load_publications(path, *YEARS)
    tags = tag_table({f"p{i}": (0, False, False) for i in range(5)})
    stats = corpus_stats(pubs, tags)
    by_type = {row[0]: row for row in stats.rows}
    assert by_type["Article"][1] == 5
    assert by_type["Article"][2] == 100.0
    assert not stats.empty


def test_corpus_stats_review_overrepresented_in_top1(tmp_path):
    records = [pub_json(f"a{i}", 2010, ["a1"]) for i in range(90)]
    records += [pub_json(f"r{i}", 2010, ["a1"], doc_type="Review") for i in range(10)]
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, records)
    pubs = load_publications(path, *YEARS)
    # plant: every Review is top1, only 10 of 90 Articles are
    tags = {f"a{i}": (1, True, i < 10) for i in range(90)}
    tags.update({f"r{i}": (9, True, True) for i in range(10)})
    stats = corpus_stats(pubs, tag_table(tags))
    by_type = {row[0]: row for row in stats.rows}
    assert by_type["Review"][6] > by_type["Review"][2]
    assert by_type["Review"][6] == 50.0  # 10 of 20 top1 publications


def test_corpus_stats_percentages_sum_to_100(tmp_path):
    records = [pub_json(f"p{i}", 2010, ["a1"],
                        doc_type=["Article", "Review", "Letter", "Proceedings Paper"][i % 4])
               for i in range(37)]
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, records)
    pubs = load_publications(path, *YEARS)
    tags = tag_table({f"p{i}": (1, True, i % 3 == 0) for i in range(37)})
    stats = corpus_stats(pubs, tags)
    for col in (2, 4, 6):
        assert sum(row[col] for row in stats.rows) == pytest.approx(100.0, abs=0.01)


def test_corpus_stats_empty_corpus(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [])
    pubs = load_publications(path, *YEARS)
    stats = corpus_stats(pubs, tag_table({}))
    assert stats.empty
    assert all(row[1] == 0 and row[2] == 0.0 for row in stats.rows)


@settings(max_examples=100, deadline=None)
@given(rows=st.lists(st.tuples(st.sampled_from(DOC_TYPES), st.booleans(), st.booleans()),
                     max_size=20))
def test_corpus_stats_matches_counts_keyed_by_doc_type(rows):
    """Against the counts keyed by each document type, in table_s1.csv's row order."""
    pubs = table(pub(f"p{i}", 2010, ["a1"], doc_type=dt) for i, (dt, _, _) in enumerate(rows))
    tags = tag_table({f"p{i}": (0, top10, top1) for i, (_, top10, top1) in enumerate(rows)})
    counts = {dt: [0, 0, 0] for dt in DOC_TYPES}
    for dt, top10, top1 in rows:
        counts[dt][0] += 1
        counts[dt][1] += top10
        counts[dt][2] += top1
    totals = [sum(row[column] for row in counts.values()) for column in range(3)]

    def pct(part: int, whole: int) -> float:
        return float(Fraction(100 * part, whole)) if whole else 0.0

    expected = [(dt, c_all, pct(c_all, totals[0]), c10, pct(c10, totals[1]),
                 c1, pct(c1, totals[2])) for dt, (c_all, c10, c1) in counts.items()]
    stats = corpus_stats(pubs, tags)
    assert repr(stats.rows) == repr(expected) and stats.empty == (not rows)


def test_proceedings_paper_aliases(tmp_path):
    path = tmp_path / "pubs.jsonl"
    write_jsonl(path, [pub_json("p1", 2010, ["a1"], doc_type="Proceeding Paper"),
                       pub_json("p2", 2010, ["a1"], doc_type="Proceedings Paper"),
                       pub_json("p3", 2010, ["a1"], doc_type="ProceedingsPaper")])
    pubs = load_publications(path, *YEARS)
    assert [rec.doc_type for rec in pubs] == ["Proceedings Paper"] * 3
