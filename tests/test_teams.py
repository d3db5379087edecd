import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from teammine.cliques import TemporalClique
from teammine.geo import great_circle_km
from teammine.teams import (CompositionMetrics, assemble_teams, associate_publications,
                            build_author_pub_index, city_coordinates, composition_metrics,
                            compute_all_metrics, associate_all, success_profiles,
                            team_pub_facts)

from helpers import author, affiliation, pub, table, tag_table, team


def test_great_circle_identical_points():
    assert great_circle_km(52.0, 4.5, 52.0, 4.5) == 0.0


def test_great_circle_antipodal():
    assert great_circle_km(0.0, 0.0, 0.0, 180.0) == pytest.approx(20015.1, abs=0.1)


def test_great_circle_one_degree_meridian():
    assert great_circle_km(0.0, 0.0, 1.0, 0.0) == pytest.approx(111.19, abs=0.01)


def test_assemble_merges_identical_member_sets():
    cliques = [TemporalClique(("A", "B"), 1, 3), TemporalClique(("A", "B"), 7, 9)]
    teams = assemble_teams(cliques)
    assert len(teams) == 1
    only = teams.get(0)
    assert only.intervals == ((1, 3), (7, 9))
    assert (only.duration_start, only.duration_end) == (1, 9)
    assert only.duration == 9


def test_assemble_distinct_member_sets():
    cliques = [TemporalClique(("A", "B"), 1, 3), TemporalClique(("A", "C"), 1, 3)]
    assert len(assemble_teams(cliques)) == 2


def test_assemble_empty():
    assert len(assemble_teams([])) == 0


def test_clique_count_equals_interval_count():
    rng = random.Random(3)
    cliques = []
    for i in range(30):
        start = rng.randint(1, 5)
        cliques.append(TemporalClique((f"m{i % 7}", f"n{i % 5}"),
                                      start, start + rng.randint(0, 3)))
    cliques = sorted(set(cliques))
    teams = assemble_teams(cliques)
    assert sum(len(t.intervals) for t in teams) == len(cliques)


def test_association_needs_half_but_at_least_two():
    squad = team(0, ["A", "B", "C", "D", "E"], [(1, 5)])
    pubs = table([pub("p1", 2, ["A", "B"]), pub("p2", 3, ["A", "B", "C"])])
    assert associate_publications(squad, pubs, build_author_pub_index(pubs)) == ["p2"]


def test_pair_team_needs_both_members():
    duo = team(0, ["A", "B"], [(1, 5)])
    pubs = table([pub("p1", 2, ["A", "B"]), pub("p2", 3, ["A", "X"])])
    assert associate_publications(duo, pubs, build_author_pub_index(pubs)) == ["p1"]


def test_gap_years_never_associate():
    squad = team(0, ["A", "B"], [(1, 3), (7, 9)])
    pubs = table([pub("p1", 5, ["A", "B"]), pub("p2", 7, ["A", "B"])])
    assert associate_publications(squad, pubs, build_author_pub_index(pubs)) == ["p2"]


def test_association_monotone_in_overlap():
    squad = team(0, ["A", "B", "C", "D", "E"], [(1, 5)])
    base = pub("p1", 2, ["A", "B"])
    more = pub("p1", 2, ["A", "B", "C"])
    pubs = table([base])
    assert associate_publications(squad, pubs, build_author_pub_index(pubs)) == []
    pubs = table([more])
    assert associate_publications(squad, pubs, build_author_pub_index(pubs)) == ["p1"]


def _corpus_one_city():
    affs = (affiliation(org="o1", city="c1", country="NL", lat=52.0, lon=4.5),)
    authors = [author(a, affs) for a in ("A", "B")]
    return table([pub("p1", 2, ["A", "B"], authors=authors)])


def test_composition_shared_everything():
    duo = team(0, ["A", "B"], [(1, 5)], pubs=("p1",))
    pubs = _corpus_one_city()
    metrics = composition_metrics(duo, pubs, city_coordinates(pubs))
    assert metrics.orgs_per_member == 0.5
    assert metrics.cities_per_member == 0.5
    assert metrics.countries_per_member == 0.5
    assert metrics.mean_city_distance_km == 0.0


def test_composition_identical_coordinates_zero_distance():
    authors = [author("A", (affiliation(city="c1", lat=10.0, lon=10.0),)),
               author("B", (affiliation(city="c2", lat=10.0, lon=10.0),))]
    pubs = table([pub("p1", 2, ["A", "B"], authors=authors)])
    duo = team(0, ["A", "B"], [(1, 5)], pubs=("p1",))
    metrics = composition_metrics(duo, pubs, city_coordinates(pubs))
    assert metrics.mean_city_distance_km == 0.0
    assert metrics.cities_per_member == 1.0


def test_composition_meridian_pair_distance():
    authors = [author("A", (affiliation(city="c1", lat=0.0, lon=0.0),)),
               author("B", (affiliation(city="c2", lat=1.0, lon=0.0),))]
    pubs = table([pub("p1", 2, ["A", "B"], authors=authors)])
    duo = team(0, ["A", "B"], [(1, 5)], pubs=("p1",))
    metrics = composition_metrics(duo, pubs, city_coordinates(pubs))
    assert metrics.mean_city_distance_km == pytest.approx(55.6, rel=0.005)


def test_composition_ignores_non_member_affiliations():
    authors = [author("A", (affiliation(org="o1", city="c1"),)),
               author("B", (affiliation(org="o1", city="c1"),)),
               author("X", (affiliation(org="oX", city="cX", country="JP"),))]
    pubs = table([pub("p1", 2, ["A", "B", "X"], authors=authors)])
    duo = team(0, ["A", "B"], [(1, 5)], pubs=("p1",))
    metrics = composition_metrics(duo, pubs, city_coordinates(pubs))
    assert metrics.orgs_per_member == 0.5
    assert metrics.cities_per_member == 0.5


def test_city_coordinates_lexicographic_tie_rule():
    authors1 = [author("A", (affiliation(city="c1", lat=30.0, lon=9.0),))]
    authors2 = [author("B", (affiliation(city="c1", lat=10.0, lon=99.0),))]
    pubs = table([pub("p1", 2, ["A"], authors=authors1),
                  pub("p2", 2, ["B"], authors=authors2)])
    assert city_coordinates(pubs) == {"c1": (10.0, 99.0)}


def entry_by_entry_city_coordinates(pubs):
    """Reference: every author entry of every record, repeats included."""
    coords = {}
    for rec in pubs:
        for entry in rec.authors:
            for aff in entry.affiliations:
                if aff.city_id is None or not aff.has_geo():
                    continue
                point = (aff.lat, aff.lon)
                if aff.city_id not in coords or point < coords[aff.city_id]:
                    coords[aff.city_id] = point
    return coords


# few values, so cities tie often, 0.0 and -0.0 among them
_coordinates = st.sampled_from([0.0, -0.0, 1.5])


@st.composite
def shared_entry_corpora(draw):
    """Records whose authors are drawn from a pool of entry objects, so an
    entry repeats as the same object, as the loader's memo makes it, and an
    affiliation may be shared across entries."""
    affs = draw(st.lists(st.builds(
        affiliation, org=st.sampled_from([None, "o1", "o2"]),
        city=st.sampled_from([None, "c1", "c2"]), country=st.sampled_from([None, "NL", "JP"]),
        lat=st.none() | _coordinates, lon=_coordinates), min_size=1, max_size=6))
    pool = draw(st.lists(st.builds(author, st.sampled_from("ABCD"),
                                   st.lists(st.sampled_from(affs), min_size=1, max_size=3)),
                         min_size=1, max_size=6))
    return table(pub(f"p{i}", 1, (), authors=authors) for i, authors in enumerate(
        draw(st.lists(st.lists(st.sampled_from(pool), min_size=1, max_size=4), max_size=8))))


@given(shared_entry_corpora())
@example(table([pub("p0", 1, (), authors=[
    author("A", [affiliation(city="c1", lat=0.0, lon=1.5)]),
    author("B", [affiliation(city="c1", lat=-0.0, lon=1.5)])])]))
@settings(max_examples=100, deadline=None)
def test_city_coordinates_matches_entry_by_entry_reference(pubs):
    # repr tells -0.0 from 0.0, which == does not
    assert repr(city_coordinates(pubs)) == repr(entry_by_entry_city_coordinates(pubs))


def slot_by_slot_composition_metrics(team, pubs, city_coords):
    """Reference: every affiliation of every member's author slot of every
    team publication, added one at a time."""
    members = set(team.members)
    orgs, cities, countries = set(), set(), set()
    for pub_id in team.pubs:
        for author in pubs.get(pub_id).authors:
            if author.author_id not in members:
                continue
            for aff in author.affiliations:
                if aff.org_id is not None:
                    orgs.add(aff.org_id)
                if aff.city_id is not None:
                    cities.add(aff.city_id)
                if aff.country is not None:
                    countries.add(aff.country)
    size = len(team.members)
    located = sorted(c for c in cities if c in city_coords)
    mean_distance = 0.0
    if len(located) >= 2:
        total = 0.0
        pairs = 0
        for i in range(len(located)):
            lat1, lon1 = city_coords[located[i]]
            for j in range(i + 1, len(located)):
                lat2, lon2 = city_coords[located[j]]
                total += great_circle_km(lat1, lon1, lat2, lon2)
                pairs += 1
        mean_distance = total / pairs / size
    return CompositionMetrics(len(orgs) / size, len(cities) / size, len(countries) / size,
                              mean_distance)


_TWINS = [affiliation(org="o1", city="c1", lat=0.0, lon=1.5),
          affiliation(org="o1", city="c1", lat=-0.0, lon=1.5)]


# D is never a member, so some co-authors are not
@given(shared_entry_corpora(), st.lists(st.sampled_from("ABC"), min_size=2, unique=True))
@example(table([pub("p0", 1, (), authors=[
    author("A", _TWINS[:1]), author("B", _TWINS[1:]),
    author("D", [affiliation(org="o2", city="c2", country="JP", lat=1.5, lon=1.5)])]),
                pub("p1", 1, (), authors=[author("A", [affiliation(org=None, country=None)])])]),
         ["A", "B"])
@settings(max_examples=100, deadline=None)
def test_composition_metrics_matches_slot_by_slot_reference(pubs, members):
    squad = team(0, members, [(1, 1)], pubs=[rec.pub_id for rec in pubs])
    coords = city_coordinates(pubs)
    assert (repr(composition_metrics(squad, pubs, coords))
            == repr(slot_by_slot_composition_metrics(squad, pubs, coords)))


def test_metrics_permutation_invariant():
    affs_a = (affiliation(org="o1", city="c1", lat=0.0, lon=0.0),)
    affs_b = (affiliation(org="o2", city="c2", lat=1.0, lon=0.0),)
    pubs_fwd = table([pub("p1", 2, ["A", "B"],
                          authors=[author("A", affs_a), author("B", affs_b)])])
    pubs_rev = table([pub("p1", 2, ["A", "B"],
                          authors=[author("B", affs_b), author("A", affs_a)])])
    duo = team(0, ["A", "B"], [(1, 5)], pubs=("p1",))
    m1 = composition_metrics(duo, pubs_fwd, city_coordinates(pubs_fwd))
    m2 = composition_metrics(duo, pubs_rev, city_coordinates(pubs_rev))
    assert m1 == m2


def test_associate_and_metrics_batch():
    cliques = [TemporalClique(("A", "B"), 1, 5)]
    teams = assemble_teams(cliques)
    pubs = table([pub("p1", 2, ["A", "B"]), pub("p2", 9, ["A", "B"])])
    associate_all(teams, pubs)
    compute_all_metrics(teams, pubs)
    only = teams.get(0)
    assert only.pubs == ("p1",)
    assert only.metrics is not None
    assert only.metrics.orgs_per_member == 1.0  # distinct per-author orgs


# --- success profiles ---

@st.composite
def profile_corpora(draw):
    """Publications as (year, tag) with tag None (untagged) or (top10, top1),
    and teams as lists of publication indices, empty teams included."""
    corpus = draw(st.lists(st.tuples(st.integers(1, 6),
                                     st.none() | st.tuples(st.booleans(), st.booleans())),
                           max_size=10))
    index = st.integers(0, len(corpus) - 1) if corpus else st.nothing()
    memberships = draw(st.lists(st.lists(index, unique=True), max_size=4))
    return corpus, memberships


@given(profile_corpora())
@example(([(2, None), (3, (True, False)), (4, (False, False)), (5, (True, True))],
          [[], [0, 1, 2, 3], [0, 2]]))
@settings(max_examples=200, deadline=None)
def test_success_profiles_match_brute_force(data):
    corpus, memberships = data
    pubs = table([pub(f"p{i}", year, ["A", "B"]) for i, (year, _) in enumerate(corpus)])
    tag_of = {f"p{i}": tag for i, (_, tag) in enumerate(corpus)}
    tags = tag_table({p: (0, *tag) for p, tag in tag_of.items() if tag is not None})
    teams = [team(k, ["A", "B"], [(1, 6)],
                  pubs=sorted((f"p{i}" for i in members), key=lambda p: (pubs.get(p).year, p)))
             for k, members in enumerate(memberships)]
    profiles = success_profiles(teams, team_pub_facts(teams, pubs, tags))
    assert sorted(profiles) == list(range(len(teams)))
    for squad in teams:
        profile = profiles[squad.team_id]
        assert profile.years == tuple(pubs.get(p).year for p in squad.pubs)
        for level, success in enumerate((profile.top10, profile.top1)):
            hits = [p for p in squad.pubs if tag_of[p] is not None and tag_of[p][level]]
            assert success.flags == tuple(p in hits for p in squad.pubs)
            assert success.count == len(hits)
            assert success.first_year == min((pubs.get(p).year for p in hits), default=None)
