import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from teammine.csvio import read_csv, write_csv
from teammine.errors import IngestError
from teammine.ingest import CitationTable, load_citations
from teammine.success import (TOP1, TOP10, WINDOW_AFTER, WINDOWS, SuccessTagTable,
                              compute_tags, read_success_tags_csv, tag_success,
                              three_year_citations, write_success_tags_csv)

from helpers import pub, table, write_citations
from ingest_reference import reference_citations, reference_three_year_citations


def cite_table(rows):
    """The citations of (cited pub_id, citing year) rows."""
    citing_years = {}
    for cited, year in rows:
        citing_years.setdefault(cited, []).append(year)
    return CitationTable(citing_years=citing_years)


def test_three_year_window_inclusive():
    pubs = table([pub("p1", 2010, ["a1"])])
    cites = cite_table([("p1", 2010), ("p1", 2011), ("p1", 2012), ("p1", 2013)])
    assert three_year_citations(pubs, cites)["p1"] == 3


def test_no_citations_is_zero():
    pubs = table([pub("p1", 2010, ["a1"])])
    assert three_year_citations(pubs, cite_table([]))["p1"] == 0


def test_window_mode_after():
    pubs = table([pub("p1", 2010, ["a1"])])
    cites = cite_table([("p1", 2010), ("p1", 2011), ("p1", 2013), ("p1", 2014)])
    assert three_year_citations(pubs, cites, mode=WINDOW_AFTER)["p1"] == 2


def _cell(countmap):
    pubs = table([pub(p, 2010, ["a1"]) for p in countmap])
    return pubs, dict(countmap)


def _thresholds(pubs, counts):
    """The (population, top-10%, top-1%) thresholds of each cell."""
    return tag_success(pubs, counts)[1]


def test_threshold_thousand_distinct():
    pubs, counts = _cell({f"p{i}": 1000 - i for i in range(1000)})
    population, _, th = _thresholds(pubs, counts)[("F0", 2010)]
    assert th == 991
    assert population == 1000


def test_threshold_all_zero_cell():
    pubs, counts = _cell({f"p{i}": 0 for i in range(5)})
    th = _thresholds(pubs, counts)[("F0", 2010)][2]
    assert th == 1
    assert sum(1 for c in counts.values() if c >= th) == 0


def test_threshold_tie_at_cutoff():
    # ranks 1..5 distinct, ranks 6..20 tied at 50: threshold 50, 20 qualify
    counts = {f"h{i}": 100 - i for i in range(5)}
    counts.update({f"t{i}": 50 for i in range(15)})
    counts.update({f"z{i}": 0 for i in range(80)})
    pubs, counts = _cell(counts)
    th = _thresholds(pubs, counts)[("F0", 2010)][1]
    assert th == 50
    assert sum(1 for c in counts.values() if c >= th) == 20


def test_threshold_exact_rank_no_float_drift():
    # ceil(0.01 * 300) must be exactly 3, not 4
    pubs, counts = _cell({f"p{i}": 300 - i for i in range(300)})
    assert _thresholds(pubs, counts)[("F0", 2010)][2] == 298


def test_tag_any_field_rule():
    # two cells: in F_a the pub is below threshold, in F_b above
    records = [pub("p", 2010, ["a1"], fields=("Fa", "Fb"))]
    records += [pub(f"a{i}", 2010, ["a1"], fields=("Fa",)) for i in range(99)]
    records += [pub(f"b{i}", 2010, ["a1"], fields=("Fb",)) for i in range(9)]
    pubs = table(records)
    counts = {f"a{i}": 500 - i for i in range(99)}
    counts.update({f"b{i}": 1 for i in range(9)})
    counts["p"] = 100  # rank 81 of 100 in Fa; rank 1 of 10 in Fb
    tags, _ = tag_success(pubs, counts)
    assert tags.flags("p") == (True, True)


def test_all_zero_cell_tags_nothing():
    pubs, counts = _cell({f"p{i}": 0 for i in range(50)})
    tags, _ = tag_success(pubs, counts)
    assert tags.top1 == tags.top10 == set()


@st.composite
def cell_corpora(draw):
    n_cells = draw(st.integers(1, 3))
    records, counts = [], {}
    pid = 0
    for cell in range(n_cells):
        year = 2010 + cell
        for _ in range(draw(st.integers(1, 40))):
            records.append(pub(f"p{pid}", year, ["a1"]))
            counts[f"p{pid}"] = draw(st.integers(0, 30))
            pid += 1
    return table(records), counts


@given(cell_corpora())
@settings(max_examples=60, deadline=None)
def test_top1_subset_of_top10(corpus):
    pubs, counts = corpus
    tags, _ = tag_success(pubs, counts)
    assert tags.top1 <= tags.top10


@given(cell_corpora(), st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_scaling_counts_keeps_tags(corpus, factor):
    pubs, counts = corpus
    scaled = {p: c * factor for p, c in counts.items()}

    def tagset(cs):
        tags, _ = tag_success(pubs, cs)
        return tags.top10, tags.top1

    assert tagset(counts) == tagset(scaled)


@given(cell_corpora(), st.sampled_from([TOP1, TOP10]))
@settings(max_examples=60, deadline=None)
def test_per_cell_qualifier_bounds(corpus, q):
    pubs, counts = corpus
    index = 1 + (TOP10, TOP1).index(q)
    for (field_id, year), cell_thresholds in _thresholds(pubs, counts).items():
        th = cell_thresholds[index]
        cell = [counts[rec.pub_id] for rec in pubs
                if field_id in rec.fields and rec.year == year]
        assert cell_thresholds[0] == len(cell)
        qualifiers = sum(1 for c in cell if c >= th)
        k = -((-q.numerator * len(cell)) // q.denominator)
        if all(c == 0 for c in cell):
            assert qualifiers == 0
            continue
        tie_excess = sum(1 for c in cell if c == th) - 1
        ranked = sorted(cell, reverse=True)
        if ranked[k - 1] == 0:
            # zero-floored threshold: only the cited qualify, possibly under quota
            assert qualifiers <= k
        else:
            assert k <= qualifiers <= k + max(0, tie_excess)


def test_compute_tags_bundle():
    pubs = table([pub(f"p{i}", 2010, ["a1"]) for i in range(100)])
    cites = cite_table([(f"p{i}", 2010) for i in range(10) for _ in range(10 - i)])
    tags, thresholds = compute_tags(pubs, cites)
    assert tags.counts["p0"] == 10
    assert "p0" in tags.top1
    assert len(tags.top10) == 10
    assert thresholds == {("F0", 2010): (100, 1, 10)}


@st.composite
def cited_corpora(draw):
    """Records over two fields and five years, and citation rows naming them,
    unknown ids, blank, early, late and, rarely, non-integer citing years."""
    years = draw(st.lists(st.integers(2010, 2014), min_size=1, max_size=12))
    records = [pub(f"p{i}", year, ["a1"],
                   fields=draw(st.sampled_from([("F0",), ("F1",), ("F0", "F1")])))
               for i, year in enumerate(years)]
    ids = st.sampled_from([rec.pub_id for rec in records] + ["ghost", "x1"])
    year_raw = st.integers(2008, 2019).map(str) | st.sampled_from(["", "02012", "-3"])
    rows = draw(st.lists(st.tuples(ids, ids, year_raw), max_size=60))
    if rows and draw(st.integers(0, 9)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.tuples(ids, ids, st.just("1e3"))))
    return table(records), rows


@given(cited_corpora())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_citing_years_match_event_list_oracle(tmp_path, corpus):
    """The canonical rows and drop counts of ``load_citations``, and the
    counts and tiers of ``compute_tags`` under both windows, are those of the
    event-list oracle."""
    pubs, rows = corpus
    path, canonical = tmp_path / "cites.csv", tmp_path / "canonical.csv"
    write_citations(path, rows)
    try:
        events, drops = reference_citations(path, pubs)
    except IngestError as exc:
        with pytest.raises(IngestError, match=f"^{re.escape(str(exc))}$"):
            load_citations(path, pubs, canonical)
        return
    cites = load_citations(path, pubs, canonical)
    assert list(read_csv(canonical)) == [[a, b, str(year)] for a, b, year in events]
    assert cites.drop_counts == drops
    for mode in WINDOWS:
        counts = reference_three_year_citations(pubs, events, mode)
        thresholds = _thresholds(pubs, counts)
        tiers = [{rec.pub_id for rec in pubs
                  if any(counts[rec.pub_id] >= thresholds[f, rec.year][i]
                         for f in rec.fields)} for i in (1, 2)]
        tags, _ = compute_tags(pubs, cites, mode)
        assert list(tags.counts.items()) == list(counts.items())
        assert [tags.top10, tags.top1] == tiers


@pytest.fixture(scope="module")
def tags_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tags")


@given(ids=st.lists(st.text() | st.sampled_from(["a,b", 'q"x', "c\rr", "l\nf", "\r\n", ""]),
                    unique=True, max_size=8),
       counts=st.lists(st.integers(0, 10**6), min_size=8, max_size=8),
       top10=st.sets(st.integers(0, 7)), top1=st.sets(st.integers(0, 7)))
@settings(max_examples=200, deadline=None)
def test_success_tags_writer_matches_write_csv(tags_dir, ids, counts, top10, top1):
    """success_tags.csv has the bytes ``write_csv`` gives the same rows, also
    for ids holding a comma, a quote, a CR or an LF, and reads back."""
    tags = SuccessTagTable(dict(zip(ids, counts)), {ids[i] for i in top10 if i < len(ids)},
                           {ids[i] for i in top1 if i < len(ids)})
    write_success_tags_csv(tags, tags_dir / "tags.csv")
    write_csv(tags_dir / "expected.csv", ["pub_id", "citations_3y", "top10", "top1"],
              ((pub_id, c, int(pub_id in tags.top10), int(pub_id in tags.top1))
               for pub_id, c in tags.counts.items()))
    assert (tags_dir / "tags.csv").read_bytes() == (tags_dir / "expected.csv").read_bytes()
    assert read_success_tags_csv(tags_dir / "tags.csv") == tags
