import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import figures_reference
import prevalence_reference as reference
from teammine.analytics import (PrevalenceTotals, compute_all_figures, figure_tallies,
                                filter_margin, prevalence_totals, read_figure_tallies_csv,
                                read_prevalence_totals_csv, team_prevalence,
                                write_figure_tallies_csv, write_prevalence_totals_csv,
                                _quarter_bin)
from teammine.ingest import _DOC_TYPE_ALIASES, corpus_stats
from teammine.overlaps import ImpulseSummary
from teammine.pipeline import FIGURE_STEMS
from teammine.teams import (CompositionMetrics, TeamPubFacts, associate_all,
                            read_team_pub_facts_csv, success_profiles, team_pub_facts,
                            write_team_pub_facts_csv)

from helpers import affiliation, author, pub, table, tag_table, team


def summary(team_id, **kwargs):
    s = ImpulseSummary(team_id=team_id)
    for key, value in kwargs.items():
        setattr(s, key, value)
    return s


def rows_by_key(series):
    return {row.keys: row for row in series.rows}


def closed(teams):
    """An all-zero impulse summary per team."""
    return {t.team_id: summary(t.team_id) for t in teams}


def read_back(tallies):
    """``tallies`` as the stats stage reads them from figure_tallies.csv."""
    with tempfile.TemporaryDirectory() as where:
        write_figure_tallies_csv(tallies, Path(where) / "tallies.csv")
        return read_figure_tallies_csv(Path(where) / "tallies.csv")


def figures(pubs, tags, teams, summaries=None, year_min=1, year_max=3):
    """Every figure table of ``teams`` at margin 0, as the tag, teams,
    overlaps and stats stages build them; a team without a summary is
    closed."""
    facts = team_pub_facts(teams, pubs, tags)
    tallies = figure_tallies(teams, facts, success_profiles(teams, facts),
                             summaries or closed(teams))
    return compute_all_figures(prevalence_totals(pubs, tags),
                               filter_margin(read_back(tallies), year_min, year_max, 0),
                               year_min, year_max)


def prevalence(pubs, teams, tags, year_min, year_max):
    """The prevalence tables, fig1a and fig1b."""
    tables = figures(pubs, tags, teams, year_min=year_min, year_max=year_max)
    return tables["fig1a"], tables["fig1b"]


# --- prevalence ---

def test_prevalence_all_team_pubs():
    pubs = table([pub("p1", 1, ["A", "B"]), pub("p2", 1, ["A", "B"]),
                  pub("s1", 1, ["X"])])  # single-author excluded from the base
    teams = [team(0, ["A", "B"], [(1, 3)], pubs=("p1", "p2"))]
    tags = tag_table({})
    series = prevalence(pubs, teams, tags, 1, 1)[0]
    assert rows_by_key(series)[("all", 1)].value == 100.0


def test_prevalence_no_teams():
    pubs = table([pub("p1", 1, ["A", "B"])])
    series = prevalence(pubs, [], tag_table({}), 1, 1)[0]
    row = rows_by_key(series)[("all", 1)]
    assert row.value == 0.0 and row.n == 1


def test_prevalence_planted_fraction():
    records = [pub(f"t{i}", 1, ["A", "B"]) for i in range(4)]
    records += [pub(f"n{i}", 1, ["C", "D"]) for i in range(6)]
    pubs = table(records)
    teams = [team(0, ["A", "B"], [(1, 2)], pubs=tuple(f"t{i}" for i in range(4)))]
    series = prevalence(pubs, teams, tag_table({}), 1, 1)[0]
    row = rows_by_key(series)[("all", 1)]
    assert row.value == 40.0
    assert row.n == 10 and row.count == 4


def test_prevalence_populations_and_empty_years():
    pubs = table([pub("p1", 1, ["A", "B"])])
    tags = tag_table({"p1": (9, True, False)})
    series = prevalence(pubs, [], tags, 1, 2)[0]
    rows = rows_by_key(series)
    assert rows[("top10", 1)].n == 1
    assert rows[("top1", 1)].flag == "no_population"
    assert rows[("all", 2)].flag == "no_population"


def test_prevalence_by_country_single_country_matches_global():
    pubs = table([pub("p1", 1, ["A", "B"]), pub("p2", 1, ["C", "D"])])
    teams = [team(0, ["A", "B"], [(1, 2)], pubs=("p1",))]
    series = prevalence(pubs, teams, tag_table({}), 1, 1)[1]
    assert rows_by_key(series)[("NL",)].value == 50.0


def test_prevalence_by_country_multi_country_pub_counts_twice():
    authors = [author("A", (affiliation(country="NL"),)),
               author("B", (affiliation(country="DE"),))]
    pubs = table([pub("p1", 1, ["A", "B"], authors=authors)])
    series = prevalence(pubs, [], tag_table({}), 1, 1)[1]
    rows = rows_by_key(series)
    assert rows[("NL",)].n == 1 and rows[("DE",)].n == 1


def test_prevalence_by_country_omits_single_author_only():
    pubs = table([pub("p1", 1, ["A"])])
    assert prevalence(pubs, [], tag_table({}), 1, 1)[1].rows == []


_AUTHORS = ("A", "B", "C", "D")
_YEARS = (1, 4)

# one record: (year, doc type, [(author id, the country of each affiliation)])
_records = st.lists(st.tuples(
    st.integers(*_YEARS), st.sampled_from(sorted(set(_DOC_TYPE_ALIASES.values()))),
    st.lists(st.tuples(st.sampled_from(_AUTHORS),
                       st.lists(st.none() | st.sampled_from(["NL", "DE", "", "a;b", 'q"']),
                                min_size=1, max_size=2)),
             min_size=1, max_size=4, unique_by=lambda entry: entry[0])), max_size=14)
# one team: (members, first year, last year)
_teams = st.lists(st.tuples(st.lists(st.sampled_from(_AUTHORS), min_size=2, max_size=3,
                                     unique=True),
                            st.integers(*_YEARS), st.integers(*_YEARS)), max_size=4)


@given(records=_records, top10=st.sets(st.integers(0, 13)), top1=st.sets(st.integers(0, 13)),
       teams=_teams, kept=st.lists(st.booleans(), min_size=4, max_size=4))
@example(records=[(1, "Article", [("A", ["NL"]), ("B", [None])]),
                  (1, "Review", [("A", [None]), ("B", [None, None])]),  # no country
                  (2, "Article", [("A", ["DE"]), ("B", ["NL", ""]), ("C", ["a;b"])]),
                  (2, "Letter", [("C", ["NL"])]),  # one author
                  (3, "Article", [("B", ["NL"]), ("C", ["NL"])])],
         top10={0, 2, 3}, top1={2}, teams=[(["A", "B"], 1, 3), (["A", "B", "C"], 1, 3),
                                           (["B", "C"], 2, 3)],
         kept=[True, False, True, True])
@settings(max_examples=150, deadline=None)
def test_prevalence_from_totals_and_facts_matches_corpus_walk(records, top10, top1, teams,
                                                              kept):
    """The populations from the tag stage and the facts of every team's
    publications from the teams stage, both read back from their CSVs, and
    the tallies of any subset of the teams give the fig1a and fig1b rows of a
    walk over the corpus for that subset; the document type table equals that
    walk's too."""
    pubs = table(pub(f"p{i}", year, [], doc_type=doc_type,
                     authors=[author(a, [affiliation(country=c) for c in countries])
                              for a, countries in entries])
                 for i, (year, doc_type, entries) in enumerate(records))
    tags = tag_table({f"p{i}": (0, i in top10, i in top1) for i in range(len(records))})
    every_team = [team(k, members, [sorted((first, last))])
                  for k, (members, first, last) in enumerate(teams)]
    associate_all(every_team, pubs)
    subset = [squad for squad, keep in zip(every_team, kept) if keep]
    with tempfile.TemporaryDirectory() as where:
        write_prevalence_totals_csv(prevalence_totals(pubs, tags), Path(where) / "totals.csv")
        write_team_pub_facts_csv(team_pub_facts(every_team, pubs, tags),
                                 Path(where) / "facts.csv")
        totals = read_prevalence_totals_csv(Path(where) / "totals.csv")
        facts = read_team_pub_facts_csv(Path(where) / "facts.csv")
    tallies = figure_tallies(subset, facts, success_profiles(subset, facts), closed(subset))
    sums = filter_margin(read_back(tallies), *_YEARS, 0)
    expected = reference.team_prevalence(pubs, subset, tags, *_YEARS)
    for table_now, table_then in zip(team_prevalence(totals, sums, *_YEARS), expected):
        assert repr(table_now.rows) == repr(table_then.rows)
    assert repr(corpus_stats(pubs, tags)) == repr(reference.corpus_stats(pubs, tags))


# --- freshness ---

def _freshness_fixture(success_age):
    # one duration-3 team publishing one pub per age
    pubs = table([pub(f"p{a}", a, ["A", "B"]) for a in (1, 2, 3)])
    tag_entries = {f"p{a}": (0, False, False) for a in (1, 2, 3)}
    if success_age is not None:
        tag_entries[f"p{success_age}"] = (50, True, True)
    teams = [team(0, ["A", "B"], [(1, 3)], pubs=("p1", "p2", "p3"))]
    return pubs, tag_table(tag_entries), teams


def test_success_prob_by_age_planted_at_age_one():
    pubs, tags, teams = _freshness_fixture(success_age=1)
    series = figures(pubs, tags, teams)["fig2a"]
    rows = rows_by_key(series)
    assert rows[(3, 1)].value == 1.0
    assert rows[(3, 2)].value == 0.0
    assert rows[(3, 3)].value == 0.0


def test_success_prob_by_age_empty():
    assert figures(table([]), tag_table({}), [])["fig2a"].rows == []


def test_first_success_distribution_sums_to_100():
    pubs, tags, teams = _freshness_fixture(success_age=2)
    series = figures(pubs, tags, teams)["fig2b"]
    rows = rows_by_key(series)
    assert rows[(3, 2)].value == 100.0
    total = sum(row.value for row in series.rows)
    assert total == pytest.approx(100.0, abs=0.01)


def test_newly_successful_rate_all_first_year():
    pubs, tags, teams = _freshness_fixture(success_age=1)
    series = figures(pubs, tags, teams)["figs2add"]
    rows = rows_by_key(series)
    assert rows[("0.01", 1)].value == 100.0
    assert rows[("0.01", 2)].flag == "no_population"
    assert rows[("0.01", 3)].flag == "no_population"


def test_newly_successful_rate_no_successes():
    pubs, tags, teams = _freshness_fixture(success_age=None)
    series = figures(pubs, tags, teams)["figs2add"]
    for row in series.rows:
        assert row.value == 0.0 and row.n == 1


# --- composition ---

def test_quarter_bin_rule():
    assert _quarter_bin(0.49) == 0.25
    assert _quarter_bin(0.50) == 0.50
    assert _quarter_bin(0.0) == 0.0
    assert _quarter_bin(1.1) == 1.0


def test_distance_bin_rule():
    metrics = CompositionMetrics(1.0, 1.0, 1.0, 37.0)
    squad = team(0, ["A", "B"], [(1, 2)], pubs=("p1",), metrics=metrics)
    pubs = table([pub("p1", 1, ["A", "B"])])
    tags = tag_table({"p1": (0, False, False)})
    series = figures(pubs, tags, [squad])["fig3"]
    keys = {row.keys for row in series.rows}
    assert ("dist_km", 30.0) in keys


def test_composition_two_bin_rates():
    low = [team(i, [f"l{i}a", f"l{i}b"], [(1, 2)], pubs=(f"lp{i}",),
                metrics=CompositionMetrics(0.5, 0.5, 0.5, 0.0)) for i in range(10)]
    high = [team(10 + i, [f"h{i}a", f"h{i}b"], [(1, 2)], pubs=(f"hp{i}",),
                 metrics=CompositionMetrics(1.0, 1.0, 1.0, 0.0)) for i in range(10)]
    entries = {f"lp{i}": (9, i < 1, False) for i in range(10)}       # rate 0.1
    entries.update({f"hp{i}": (9, i < 3, False) for i in range(10)})  # rate 0.3
    pubs = table([pub(p, 1, ["A", "B"]) for p in entries])
    tags = tag_table(entries)
    series = figures(pubs, tags, low + high)["fig3_top10"]
    rows = rows_by_key(series)
    assert rows[("orgs_pm", 0.5)].value == pytest.approx(0.1)
    assert rows[("orgs_pm", 1.0)].value == pytest.approx(0.3)


# --- openness ---

def _impulse_fixture():
    teams, summaries, tag_entries = [], {}, {}
    # 4 closed teams, one successful
    for i in range(4):
        teams.append(team(i, [f"c{i}a", f"c{i}b"], [(1, 4)], pubs=(f"cp{i}",)))
        summaries[i] = summary(i)
        tag_entries[f"cp{i}"] = (9, i == 0, i == 0)
    # 4 teams with exactly one persistence impulse, three successful
    for i in range(4):
        tid = 4 + i
        teams.append(team(tid, [f"o{i}a", f"o{i}b"], [(1, 4)], pubs=(f"op{i}",)))
        summaries[tid] = summary(tid, persistence=1, persistence_top1=1,
                                 impulses_per_year=0.25)
        tag_entries[f"op{i}"] = (9, i < 3, i < 3)
    pubs = table([pub(p, 1, ["A", "B"]) for p in tag_entries])
    return teams, summaries, pubs, tag_table(tag_entries)


def test_impulse_count_tables():
    teams, summaries, pubs, tags = _impulse_fixture()
    tables = figures(pubs, tags, teams, summaries)
    fig5a, fig5b = tables["fig5a"], tables["fig5b"]
    rows_a = rows_by_key(fig5a)
    assert rows_a[("closed", "any", 0)].value == 0.25
    assert rows_a[("persistence", "any", 1)].value == 0.75
    assert rows_a[("persistence", "top1", 1)].value == 0.75
    rows_b = rows_by_key(fig5b)
    assert rows_b[("persistence", "any", 1)].n == 4


def test_impulse_count_closed_only_corpus():
    teams = [team(0, ["A", "B"], [(1, 2)], pubs=())]
    fig5a = figures(table([]), tag_table({}), teams)["fig5a"]
    assert [row.keys for row in fig5a.rows] == [("closed", "any", 0)]


def test_impulse_rate_bins_and_measures():
    teams, summaries, pubs, tags = _impulse_fixture()
    series = figures(pubs, tags, teams, summaries)["fig5c"]
    rows = rows_by_key(series)
    assert rows[("closed", 0.0, "ge1")].value == 0.25
    assert rows[("open", 0.25, "ge1")].value == 0.75
    assert rows[("open", 0.25, "ge2")].value == 0.0


def test_first_success_shift_planted_one_year():
    teams, summaries, tag_entries = [], {}, {}
    pubs_records = []
    for i in range(5):  # closed teams succeed at age 3
        teams.append(team(i, [f"c{i}a", f"c{i}b"], [(1, 6)],
                          pubs=(f"c{i}p",)))
        summaries[i] = summary(i)
        pubs_records.append(pub(f"c{i}p", 3, [f"c{i}a", f"c{i}b"]))
        tag_entries[f"c{i}p"] = (9, True, True)
    for i in range(5):  # persistence teams succeed at age 2
        tid = 5 + i
        teams.append(team(tid, [f"o{i}a", f"o{i}b"], [(1, 6)], pubs=(f"o{i}p",)))
        summaries[tid] = summary(tid, persistence=1)
        pubs_records.append(pub(f"o{i}p", 2, [f"o{i}a", f"o{i}b"]))
        tag_entries[f"o{i}p"] = (9, True, True)
    series = figures(table(pubs_records), tag_table(tag_entries), teams, summaries)["fig5d"]
    rows = rows_by_key(series)
    assert rows[(6, "closed")].value == 0.0
    assert rows[(6, "persistence")].value == 1.0
    assert rows[(6, "freshness")].flag == "no_population"


def test_first_success_shift_identical_ages_zero():
    teams = [team(0, ["A", "B"], [(1, 4)], pubs=("p0",)),
             team(1, ["C", "D"], [(1, 4)], pubs=("p1",))]
    summaries = {0: summary(0), 1: summary(1, freshness=2)}
    pubs = table([pub("p0", 2, ["A", "B"]), pub("p1", 2, ["C", "D"])])
    tags = tag_table({"p0": (9, True, True), "p1": (9, True, True)})
    series = figures(pubs, tags, teams, summaries)["fig5d"]
    rows = rows_by_key(series)
    assert rows[(4, "freshness")].value == 0.0


def test_first_success_shift_no_successes_empty():
    teams = [team(0, ["A", "B"], [(1, 4)], pubs=())]
    series = figures(table([]), tag_table({}), teams)["fig5d"]
    assert series.rows == []


# --- plumbing ---

def test_margin_filter():
    """The teams table of the sums counts the teams kept, by duration."""
    inner = team(0, ["A", "B"], [(6, 8)])
    early = team(1, ["C", "D"], [(3, 8)])
    late = team(2, ["E", "F"], [(6, 10)])
    squads = [inner, early, late]
    tallies = figure_tallies(squads, {}, success_profiles(squads, {}), closed(squads))
    kept = filter_margin(tallies, 1, 13, 4)["teams"]
    assert kept == {(inner.duration,): [1]}
    assert sum(n for (n,) in filter_margin(tallies, 1, 13, 0)["teams"].values()) == 3


def test_fraction_rows_reconstruct_counts():
    pubs, tags, teams = _freshness_fixture(success_age=2)
    checked = 0
    for stem, series in figures(pubs, tags, teams).items():
        scale = 100 if stem.removesuffix("_top10") in ("fig1a", "fig1b", "fig2b",
                                                       "figs2add") else 1
        for row in series.rows:
            if row.count is None or row.value is None:
                continue
            assert row.value * row.n == pytest.approx(scale * row.count)
            checked += 1
    assert checked > 10


def test_compute_all_figures_reproducible(tmp_path):
    pubs, tags, teams = _freshness_fixture(success_age=2)
    figures1 = figures(pubs, tags, teams)
    figures2 = figures(pubs, tags, teams)
    for stem, series in figures1.items():
        a = tmp_path / f"{stem}_a.csv"
        b = tmp_path / f"{stem}_b.csv"
        series.to_csv(a)
        figures2[stem].to_csv(b)
        assert a.read_bytes() == b.read_bytes()


# --- tallies against the team-by-team reference ---

_COUNTRIES = ("NL", "DE", "a;b", 'q"')


@st.composite
def _figure_inputs(draw):
    """A window 1..year_max; publications with random years, tiers and
    countries; teams with random spans, each carrying random publications
    from one shared pool, so one publication may be carried by teams of
    different spans; random composition metrics and impulse counters."""
    year_max = draw(st.integers(2, 9))
    years = st.integers(1, year_max)
    facts = {f"p{i}": TeamPubFacts(draw(years), draw(st.booleans()), draw(st.booleans()),
                                   tuple(sorted(draw(st.sets(st.sampled_from(_COUNTRIES),
                                                             max_size=2)))))
             for i in range(draw(st.integers(0, 10)))}
    teams, summaries = [], {}
    for team_id in range(draw(st.integers(0, 6))):
        start, end = sorted((draw(years), draw(years)))
        pub_ids = draw(st.sets(st.sampled_from(sorted(facts)), max_size=4)) if facts else ()
        metrics = draw(st.none() | st.builds(
            CompositionMetrics, *[st.floats(0, 3, allow_nan=False)] * 3,
            st.floats(0, 900, allow_nan=False)))
        teams.append(team(team_id, [f"t{team_id}a", f"t{team_id}b"], [(start, end)],
                          pubs=sorted(pub_ids, key=lambda p: (facts[p].year, p)),
                          metrics=metrics))
        counters = {name: draw(st.integers(0, 2)) for name in (
            "persistence", "synchronous", "freshness", "persistence_top10",
            "persistence_top1", "synchronous_top10", "synchronous_top1", "freshness_top10",
            "freshness_top1", "persistence_early_top10", "persistence_early_top1")}
        summaries[team_id] = summary(team_id, **counters)
        summaries[team_id].impulses_per_year = summaries[team_id].total / (end - start + 1)
    by_year = {}
    for fact in facts.values():
        for name, member in (("all", True), ("top10", fact.top10), ("top1", fact.top1)):
            if member:
                by_year[(name, fact.year)] = by_year.get((name, fact.year), 0) + 1
    by_country = {country: draw(st.integers(1, 12)) for country in (*_COUNTRIES, "FR")}
    return year_max, facts, teams, summaries, PrevalenceTotals(by_year, by_country)


@given(_figure_inputs())
@example((6, {"p0": TeamPubFacts(3, True, False, ("NL",)),
              "p1": TeamPubFacts(4, True, True, ("DE", "NL")),
              "p2": TeamPubFacts(1, False, False, ())},
          [team(0, ["A", "B"], [(3, 4)], pubs=("p0", "p1")),
           team(1, ["A", "C"], [(1, 5)], pubs=("p0", "p1", "p2")),
           team(2, ["B", "C"], [(3, 4)], pubs=("p1",)),
           team(3, ["C", "D"], [(2, 6)])],
          {0: summary(0, persistence=1, persistence_early_top1=1, impulses_per_year=0.5),
           1: summary(1), 2: summary(2, freshness=2, impulses_per_year=1.0), 3: summary(3)},
          PrevalenceTotals({("all", 3): 4, ("top10", 4): 1}, {"NL": 5, "FR": 1})))
@settings(max_examples=100, deadline=None)
def test_figures_from_tallies_match_team_by_team_reference(tmp_path_factory, inputs):
    """At every margin from 0 to one past half the window, the 17 figure
    tables summed from the tallies, read back from their CSV, have the bytes
    of the tables counted team by team over the teams the margin keeps."""
    year_max, facts, teams, summaries, totals = inputs
    profiles = success_profiles(teams, facts)
    tallies = read_back(figure_tallies(teams, facts, profiles, summaries))
    where = tmp_path_factory.mktemp("figures")
    for margin in range(year_max // 2 + 2):
        kept = figures_reference.filter_margin(teams, 1, year_max, margin)
        expected = figures_reference.compute_all_figures(totals, facts, kept, summaries,
                                                         profiles, 1, year_max)
        got = compute_all_figures(totals, filter_margin(tallies, 1, year_max, margin),
                                  1, year_max)
        assert sorted(got) == sorted(expected) == sorted(FIGURE_STEMS)
        for stem in FIGURE_STEMS:
            got[stem].to_csv(where / "got.csv")
            expected[stem].to_csv(where / "expected.csv")
            assert ((where / "got.csv").read_bytes()
                    == (where / "expected.csv").read_bytes()), (margin, stem)
