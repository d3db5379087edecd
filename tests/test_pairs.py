import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teammine.csvio import write_csv
from teammine.ingest import PublicationRecord
from teammine.pairs import (build_pair_timelines, canonical_pair, read_pair_timelines_csv,
                            write_pair_timelines_csv)

from helpers import flat_timelines, pub, table


def test_triangle():
    pubs = table([pub("p1", 5, ["A", "B", "C"])])
    timelines = flat_timelines(build_pair_timelines(pubs))
    assert timelines == {("A", "B"): (5,), ("A", "C"): (5,), ("B", "C"): (5,)}


def test_multiplicity():
    pubs = table([pub("p1", 2, ["A", "B"]), pub("p2", 2, ["B", "A"])])
    assert flat_timelines(build_pair_timelines(pubs)) == {("A", "B"): (2, 2)}


def test_single_author_pubs_contribute_nothing():
    pubs = table([pub(f"p{i}", 3, ["A"]) for i in range(4)])
    assert build_pair_timelines(pubs) == {}


def test_author_cap_excludes_large_pubs():
    pubs = table([pub("p1", 3, ["A", "B", "C", "D"]), pub("p2", 4, ["A", "B"])])
    timelines = flat_timelines(build_pair_timelines(pubs, author_cap=3))
    assert timelines == {("A", "B"): (4,)}


@st.composite
def corpora(draw):
    records = []
    for i in range(draw(st.integers(1, 12))):
        size = draw(st.integers(1, 5))
        ids = draw(st.lists(st.integers(0, 9), min_size=size, max_size=size,
                            unique=True))
        records.append(pub(f"p{i}", draw(st.integers(1, 6)),
                           [f"a{x}" for x in ids]))
    return records


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_pair_count_sum_invariant(records):
    timelines = flat_timelines(build_pair_timelines(table(records)))
    expected = sum(len(r.authors) * (len(r.authors) - 1) // 2 for r in records)
    assert sum(len(years) for years in timelines.values()) == expected


@given(corpora(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_author_order_irrelevant(records, rng):
    shuffled = []
    for rec in records:
        authors = list(rec.authors)
        rng.shuffle(authors)
        shuffled.append(PublicationRecord(rec.pub_id, rec.year, rec.doc_type,
                                          rec.fields, tuple(authors)))
    assert build_pair_timelines(table(records)) == build_pair_timelines(table(shuffled))


def test_canonical_pair_ordering():
    assert canonical_pair("b", "a") == ("a", "b") == canonical_pair("a", "b")


def nested_loop_timelines(records, author_cap=0):
    """Reference: every pair of author positions, made canonical one by one."""
    timelines = {}
    for rec in records:
        ids = [a.author_id for a in rec.authors]
        if len(ids) < 2 or 0 < author_cap < len(ids):
            continue
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                timelines.setdefault(canonical_pair(ids[i], ids[j]), []).append(rec.year)
    return {pair: tuple(sorted(years)) for pair, years in timelines.items()}


# ids that need quoting, sort before and after letters, or are not ASCII
odd_ids = st.text(st.sampled_from(["a", "b", "Z", "0", ",", '"', "\r", "\n", " ", "é"]),
                  min_size=1, max_size=3)


@st.composite
def odd_corpora(draw):
    records = []
    for i in range(draw(st.integers(0, 15))):
        ids = draw(st.lists(odd_ids, min_size=1, max_size=6, unique=True))
        records.append(pub(f"p{i}", draw(st.integers(-3, 4)), ids))
    return records


@given(odd_corpora(), st.integers(0, 5))
@settings(max_examples=150, deadline=None)
def test_matches_nested_loop_reference(records, author_cap):
    assert (flat_timelines(build_pair_timelines(table(records), author_cap))
            == nested_loop_timelines(records, author_cap))


@given(odd_corpora(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_inner_ids_sort_after_outer_and_no_inner_is_empty(records, author_cap):
    for a, inner in build_pair_timelines(table(records), author_cap).items():
        assert inner
        assert all(a < b for b in inner)


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("pair_timelines")


year_tuples = st.lists(st.integers(-5, 5), min_size=1, max_size=5).map(sorted).map(tuple)


@given(st.dictionaries(odd_ids, st.dictionaries(odd_ids, year_tuples, min_size=1, max_size=5),
                       max_size=8))
@settings(max_examples=150, deadline=None)
def test_writer_matches_write_csv_of_sorted_rows(csv_dir, timelines):
    write_pair_timelines_csv(timelines, csv_dir / "grouped.csv")
    flat = flat_timelines(timelines)
    write_csv(csv_dir / "sorted.csv", ["author_a", "author_b", "years"],
              [(a, b, ";".join(map(str, flat[a, b]))) for a, b in sorted(flat)])
    assert (csv_dir / "grouped.csv").read_bytes() == (csv_dir / "sorted.csv").read_bytes()
    assert read_pair_timelines_csv(csv_dir / "grouped.csv") == timelines


def _one_year_tuples(timelines) -> dict[int, set[int]]:
    """year -> id() of each one-year pair's tuple."""
    shared: dict[int, set[int]] = {}
    for years in flat_timelines(timelines).values():
        if len(years) == 1:
            shared.setdefault(years[0], set()).add(id(years))
    return shared


@given(odd_corpora(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_one_year_pairs_of_a_year_share_one_tuple_and_no_list_remains(records, author_cap):
    timelines = build_pair_timelines(table(records), author_cap)
    assert all(type(years) is tuple for years in flat_timelines(timelines).values())
    assert all(len(ids) == 1 for ids in _one_year_tuples(timelines).values())


@given(odd_corpora(), st.integers(0, 5))
@settings(max_examples=100, deadline=None)
def test_read_of_write_round_trips_to_equal_tuples(csv_dir, records, author_cap):
    timelines = build_pair_timelines(table(records), author_cap)
    write_pair_timelines_csv(timelines, csv_dir / "built.csv")
    read = read_pair_timelines_csv(csv_dir / "built.csv")
    assert read == timelines
    assert all(type(years) is tuple for years in flat_timelines(read).values())
    assert all(len(ids) == 1 for ids in _one_year_tuples(read).values())


def test_pair_with_2000_publications_is_one_sorted_tuple(tmp_path):
    years = [(i * 7919) % 40 - 20 for i in range(2000)]  # every year 50 times, unsorted
    records = [pub(f"p{i}", year, ["B", "A"]) for i, year in enumerate(years)]
    records.append(pub("q", 3, ["A", "C"]))
    timelines = build_pair_timelines(table(records))
    assert timelines["A"]["B"] == tuple(sorted(years))
    assert len(timelines["A"]["B"]) == 2000
    write_pair_timelines_csv(timelines, tmp_path / "pairs.csv")
    assert read_pair_timelines_csv(tmp_path / "pairs.csv") == {
        "A": {"B": tuple(sorted(years)), "C": (3,)}}
