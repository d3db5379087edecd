from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from teammine.ingest import CitationEvent, CitationTable
from teammine.success import (TOP1, TOP10, WINDOW_AFTER, compute_tags,
                              percentile_thresholds, tag_success,
                              three_year_citations)

from helpers import pub, table


def cite_table(rows):
    return CitationTable(events=[CitationEvent(f"x{i}", cited, year)
                                 for i, (cited, year) in enumerate(rows)])


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


def test_threshold_thousand_distinct():
    pubs, counts = _cell({f"p{i}": 1000 - i for i in range(1000)})
    th = percentile_thresholds(pubs, counts)[("F0", 2010)][1]
    assert th.threshold == 991
    assert th.population == 1000


def test_threshold_all_zero_cell():
    pubs, counts = _cell({f"p{i}": 0 for i in range(5)})
    th = percentile_thresholds(pubs, counts)[("F0", 2010)][1]
    assert th.threshold == 1
    assert sum(1 for c in counts.values() if c >= th.threshold) == 0


def test_threshold_tie_at_cutoff():
    # ranks 1..5 distinct, ranks 6..20 tied at 50: threshold 50, 20 qualify
    counts = {f"h{i}": 100 - i for i in range(5)}
    counts.update({f"t{i}": 50 for i in range(15)})
    counts.update({f"z{i}": 0 for i in range(80)})
    pubs, counts = _cell(counts)
    th = percentile_thresholds(pubs, counts)[("F0", 2010)][0]
    assert th.threshold == 50
    assert sum(1 for c in counts.values() if c >= th.threshold) == 20


def test_threshold_exact_rank_no_float_drift():
    # ceil(0.01 * 300) must be exactly 3, not 4
    pubs, counts = _cell({f"p{i}": 300 - i for i in range(300)})
    th = percentile_thresholds(pubs, counts)[("F0", 2010)][1]
    assert th.threshold == 298


def test_tag_any_field_rule():
    # two cells: in F_a the pub is below threshold, in F_b above
    records = [pub("p", 2010, ["a1"], fields=("Fa", "Fb"))]
    records += [pub(f"a{i}", 2010, ["a1"], fields=("Fa",)) for i in range(99)]
    records += [pub(f"b{i}", 2010, ["a1"], fields=("Fb",)) for i in range(9)]
    pubs = table(records)
    counts = {f"a{i}": 500 - i for i in range(99)}
    counts.update({f"b{i}": 1 for i in range(9)})
    counts["p"] = 100  # rank 81 of 100 in Fa; rank 1 of 10 in Fb
    tags = tag_success(pubs, counts, percentile_thresholds(pubs, counts))
    assert tags.get("p").top1
    assert tags.get("p").top10


def test_all_zero_cell_tags_nothing():
    pubs, counts = _cell({f"p{i}": 0 for i in range(50)})
    tags = tag_success(pubs, counts, percentile_thresholds(pubs, counts))
    assert all(not t.top1 and not t.top10 for t in tags)


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
    tags = tag_success(pubs, counts, percentile_thresholds(pubs, counts))
    for tag in tags:
        assert not tag.top1 or tag.top10


@given(cell_corpora(), st.integers(2, 9))
@settings(max_examples=40, deadline=None)
def test_scaling_counts_keeps_tags(corpus, factor):
    pubs, counts = corpus
    scaled = {p: c * factor for p, c in counts.items()}

    def tagset(cs):
        tags = tag_success(pubs, cs, percentile_thresholds(pubs, cs))
        return {(t.pub_id, t.top10, t.top1) for t in tags}

    assert tagset(counts) == tagset(scaled)


@given(cell_corpora(), st.sampled_from([TOP1, TOP10]))
@settings(max_examples=60, deadline=None)
def test_per_cell_qualifier_bounds(corpus, q):
    pubs, counts = corpus
    index = (TOP10, TOP1).index(q)
    for (field_id, year), pair in percentile_thresholds(pubs, counts).items():
        th = pair[index]
        assert th.q == q
        cell = [counts[rec.pub_id] for rec in pubs
                if field_id in rec.fields and rec.year == year]
        qualifiers = sum(1 for c in cell if c >= th.threshold)
        k = -((-q.numerator * len(cell)) // q.denominator)
        if all(c == 0 for c in cell):
            assert qualifiers == 0
            continue
        tie_excess = sum(1 for c in cell if c == th.threshold) - 1
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
    assert tags.get("p0").citations_3y == 10
    assert tags.get("p0").top1
    assert sum(1 for t in tags if t.top10) == 10
    qs = {th.q for th in thresholds}
    assert qs == {Fraction(1, 100), Fraction(1, 10)}
