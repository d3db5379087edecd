from hypothesis import given, settings
from hypothesis import strategies as st

from teammine.intervals import merge_union
from teammine.persistence import (MIN_PUBS, WINDOW_LEN, build_persistent_network,
                                  persistent_periods)

from helpers import flat_timelines

def literal_window_union(years, window_len=WINDOW_LEN, min_pubs=MIN_PUBS):
    """Independent oracle: inspect every integer window start literally."""
    if not years:
        return []
    marked = []
    for t in range(min(years) - window_len + 1, max(years) + 1):
        inside = [y for y in years if t <= y <= t + window_len - 1]
        if len(inside) >= min_pubs:
            marked.append((min(inside), max(inside)))
    return merge_union(marked)


def test_three_pubs_in_window():
    assert persistent_periods([2, 4, 6]) == [(2, 6)]


def test_three_pubs_over_six_years_not_persistent():
    assert persistent_periods([1, 4, 6]) == []


def test_single_year_burst():
    assert persistent_periods([5, 5, 5]) == [(5, 5)]


def test_period_can_exceed_window():
    assert persistent_periods([1, 2, 3, 5, 6, 7]) == [(1, 7)]


def test_sparse_chain_unions_across_windows():
    # consecutive windows each hold three publications and chain up
    assert persistent_periods([1, 3, 5, 7, 9]) == [(1, 9)]


def test_two_disconnected_periods():
    assert persistent_periods([1, 2, 3, 11, 12, 13]) == [(1, 3), (11, 13)]


def test_empty_and_short():
    assert persistent_periods([]) == []
    assert persistent_periods([4, 4]) == []


def test_network_drops_non_persistent_pairs():
    timelines = {"C": {"D": (1, 4, 6)}}
    assert build_persistent_network(timelines) == {}


def test_network_multiple_periods():
    timelines = {"A": {"B": (1, 2, 3, 11, 12, 13)}}
    network = build_persistent_network(timelines)
    assert network == {("A", "B"): [(1, 3), (11, 13)]}


def test_empty_timeline_table():
    assert build_persistent_network({}) == {}


year_multisets = st.lists(st.integers(0, 14), min_size=0, max_size=12).map(sorted)


@given(year_multisets)
@settings(max_examples=300, deadline=None)
def test_matches_literal_oracle(years):
    assert persistent_periods(years) == literal_window_union(years)


@given(year_multisets, st.integers(1, 3), st.integers(2, 4))
@settings(max_examples=200, deadline=None)
def test_matches_literal_oracle_other_params(years, window_len, min_pubs):
    assert (persistent_periods(years, window_len, min_pubs)
            == literal_window_union(years, window_len, min_pubs))


@given(year_multisets)
@settings(max_examples=200, deadline=None)
def test_period_bounds_are_publication_years(years):
    for start, end in persistent_periods(years):
        assert start in years and end in years


@given(year_multisets, st.integers(0, 14))
@settings(max_examples=200, deadline=None)
def test_adding_a_year_never_shrinks_periods(years, extra):
    def covered(periods):
        return {y for s, e in periods for y in range(s, e + 1)}

    before = covered(persistent_periods(years))
    after = covered(persistent_periods(sorted(years + [extra])))
    assert before <= after


@given(year_multisets)
@settings(max_examples=200, deadline=None)
def test_periods_disjoint_with_gaps(years):
    periods = persistent_periods(years)
    for (s1, e1), (s2, e2) in zip(periods, periods[1:]):
        assert s1 <= e1 and s2 <= e2
        assert s2 > e1 + 1


@given(st.dictionaries(st.sampled_from("abc"),
                       st.dictionaries(st.sampled_from("xyz"), year_multisets.map(tuple),
                                       min_size=1, max_size=3), max_size=3),
       st.integers(1, 6), st.integers(1, 4))
@settings(max_examples=200, deadline=None)
def test_network_matches_periods_of_every_pair(timelines, window_len, min_pubs):
    expected = {pair: periods for pair, years in flat_timelines(timelines).items()
                if (periods := persistent_periods(years, window_len, min_pubs))}
    assert build_persistent_network(timelines, window_len, min_pubs) == expected
