import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teammine.overlaps import (Impulse, ImpulseSummary, OverlapKind, OverlapRelation, Timing,
                               build_member_index, classify_all, classify_overlap,
                               impulse_summary, shared_core_test, summarize_all,
                               write_impulses_csv)
from teammine.synthgen import derive_truth_overlaps
from teammine.teams import Success, SuccessProfile, TeamTable

from helpers import build_profiles, half_overlap_pairs, pub, table, tag_table, team


def team_table(*teams):
    return TeamTable(teams=list(teams))


def classified_pairs(teams) -> list[tuple[int, int]]:
    relations, anomalies = classify_all(teams)
    assert anomalies == {}
    return [(rel.focal_team_id, rel.other_team_id) for rel in relations]


def test_disjoint_teams_no_candidates():
    teams = team_table(team(0, ["A", "B", "C"], [(1, 4)]),
                       team(1, ["D", "E", "F"], [(1, 4)]))
    assert classified_pairs(teams) == half_overlap_pairs(teams) == []


def test_half_overlap_candidates_both_directions():
    teams = team_table(team(0, ["A", "B", "C", "D"], [(1, 4)]),
                       team(1, ["A", "B", "E", "F"], [(1, 4)]))
    assert classified_pairs(teams) == half_overlap_pairs(teams) == [(0, 1), (1, 0)]


def test_below_half_overlap_is_no_candidate():
    teams = team_table(team(0, ["A", "B", "C", "D", "E", "F"], [(1, 4)]),
                       team(1, ["A", "B", "X", "Y"], [(1, 4)]))
    assert classified_pairs(teams) == half_overlap_pairs(teams) == []


def test_subset_is_candidate():
    teams = team_table(team(0, ["A", "B"], [(1, 6)]),
                       team(1, ["A", "B", "C"], [(2, 5)]))
    assert classified_pairs(teams) == half_overlap_pairs(teams) == [(0, 1), (1, 0)]


def test_classify_core_preceding_persistence():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    other = team(1, ["A", "B"], [(1, 7)])
    teams = team_table(focal, other)
    rel = classify_overlap(focal, other, teams, build_member_index(teams))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.CORE, Timing.PRECEDING, Impulse.PERSISTENCE)


def test_classify_extension_succeeding_freshness():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    other = team(1, ["A", "B", "C", "D"], [(4, 5)])
    teams = team_table(focal, other)
    rel = classify_overlap(focal, other, teams, build_member_index(teams))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.EXTENSION, Timing.SUCCEEDING, Impulse.FRESHNESS)


def test_classify_core_simultaneous_no_impulse():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    other = team(1, ["A", "B"], [(3, 8)])
    teams = team_table(focal, other)
    rel = classify_overlap(focal, other, teams, build_member_index(teams))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.CORE, Timing.SIMULTANEOUS, Impulse.NONE)


def test_classify_offshoot_simultaneous_synchronous():
    focal = team(0, ["A", "B", "C", "D"], [(3, 6)])
    other = team(1, ["A", "B", "E", "F"], [(3, 5)])
    teams = team_table(focal, other)
    rel = classify_overlap(focal, other, teams, build_member_index(teams))
    assert rel.kind in (OverlapKind.OFFSHOOT_SHARED_CORE,
                        OverlapKind.OFFSHOOT_NO_SHARED_CORE)
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.OFFSHOOT_NO_SHARED_CORE, Timing.SIMULTANEOUS, Impulse.SYNCHRONOUS)


def test_shared_core_detected():
    core = team(0, ["A", "B"], [(1, 9)])
    focal = team(1, ["A", "B", "C"], [(3, 6)])
    offshoot = team(2, ["A", "B", "D"], [(2, 5)])
    teams = team_table(core, focal, offshoot)
    assert shared_core_test(focal, offshoot, teams, build_member_index(teams))
    rel = classify_overlap(focal, offshoot, teams, build_member_index(teams))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.OFFSHOOT_SHARED_CORE, Timing.PRECEDING, Impulse.NONE)


@pytest.mark.parametrize("core,kind", [
    (["A", "B"], OverlapKind.OFFSHOOT_NO_SHARED_CORE),  # below half of the focal team
    (["A", "B", "C"], OverlapKind.OFFSHOOT_SHARED_CORE),
])
def test_shared_core_must_hold_half_the_focal_team(core, kind):
    focal = team(0, ["A", "B", "C", "D", "E", "F"], [(3, 6)])
    offshoot = team(1, ["A", "B", "C", "G", "H", "I"], [(3, 5)])
    teams = team_table(focal, offshoot, team(2, core, [(1, 8)]))
    rel = classify_overlap(focal, offshoot, teams, build_member_index(teams))
    assert rel.kind == kind
    truth = derive_truth_overlaps([(frozenset(t.members), list(t.intervals)) for t in teams])
    assert [found["kind"] for found in truth
            if found["focal"] == list(focal.members) and found["other"] == list(offshoot.members)
            ] == [kind.value]


def test_no_team_inside_intersection():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    offshoot = team(1, ["A", "B", "D"], [(2, 5)])
    teams = team_table(focal, offshoot)
    assert not shared_core_test(focal, offshoot, teams, build_member_index(teams))


def test_simultaneous_core_is_not_a_shared_core():
    core = team(0, ["A", "B"], [(3, 9)])  # starts with the focal team
    focal = team(1, ["A", "B", "C"], [(3, 6)])
    offshoot = team(2, ["A", "B", "D"], [(2, 5)])
    teams = team_table(core, focal, offshoot)
    assert not shared_core_test(focal, offshoot, teams, build_member_index(teams))


def test_equal_member_sets_name_their_lemma():
    a = team(0, ["A", "B"], [(1, 4)])
    b = team(1, ["A", "B"], [(6, 9)])
    teams = team_table(a, b)
    assert classify_overlap(a, b, teams, build_member_index(teams)) == "duplicate_member_set"


def test_core_span_lemma_violation_is_named_and_counted():
    focal = team(0, ["A", "B", "C"], [(1, 6)])
    other = team(1, ["A", "B"], [(8, 9)])  # subset that starts after the focal team
    teams = team_table(focal, other)
    assert classify_overlap(focal, other, teams, build_member_index(teams)) == "core_span"
    relations, anomalies = classify_all(teams)
    assert relations == []
    assert anomalies == {"core_span": 1, "extension_span": 1}


def test_extension_span_lemma_violation():
    focal = team(0, ["A", "B"], [(3, 4)])
    other = team(1, ["A", "B", "C"], [(1, 6)])  # superset spilling outside
    teams = team_table(focal, other)
    assert classify_overlap(focal, other, teams, build_member_index(teams)) == "extension_span"


# --- impulse summaries ---

def _profile_setup():
    core = team(0, ["A", "B"], [(1, 9)], pubs=("c1",))
    focal = team(1, ["A", "B", "C"], [(3, 6)], pubs=("f1",))
    pubs = table([pub("c1", 2, ["A", "B"]), pub("f1", 3, ["A", "B", "C"])])
    tags = tag_table({"c1": (30, True, True), "f1": (0, False, False)})
    return core, focal, pubs, tags


def test_closed_team_summary_all_zero():
    _, focal, pubs, tags = _profile_setup()
    teams = team_table(focal)
    summaries = summarize_all(teams, [], build_profiles(teams, pubs, tags))
    summary = summaries[1]
    assert summary.total == 0
    assert summary.impulses_per_year == 0.0


def test_early_persistence_walkthrough():
    core, focal, pubs, tags = _profile_setup()
    teams = team_table(core, focal)
    relations, anomalies = classify_all(teams)
    assert anomalies == {}
    summaries = summarize_all(teams, relations, build_profiles(teams, pubs, tags))
    summary = summaries[1]
    assert summary.persistence == 1
    assert summary.persistence_top1 == 1
    assert summary.persistence_top10 == 1
    # core's first success (year 2) precedes the focal start (year 3)
    assert summary.persistence_early_top1 == 1
    assert summary.persistence_early_top10 == 1


def test_late_success_is_not_early():
    core, focal, pubs, tags = _profile_setup()
    pubs = table([pub("c1", 5, ["A", "B"]), pub("f1", 3, ["A", "B", "C"])])
    teams = team_table(core, focal)
    relations, _ = classify_all(teams)
    summary = summarize_all(teams, relations, build_profiles(teams, pubs, tags))[1]
    assert summary.persistence_top1 == 1
    assert summary.persistence_early_top1 == 0


def test_impulses_per_year():
    focal = team(0, ["A", "B", "C", "D"], [(1, 4)])
    others = [team(i, ["A", "B", "E", f"x{i}"], [(2, 3)]) for i in range(1, 7)]
    teams = team_table(focal, *others)
    relations, _ = classify_all(teams)
    pubs = table([])
    tags = tag_table({})
    summary = summarize_all(teams, relations, build_profiles(teams, pubs, tags))[0]
    assert summary.total == 6
    assert summary.impulses_per_year == 1.5


def test_profile_first_years():
    squad = team(0, ["A", "B"], [(1, 9)], pubs=("p1", "p2"))
    pubs = table([pub("p1", 2, ["A", "B"]), pub("p2", 4, ["A", "B"])])
    tags = tag_table({"p1": (5, True, False), "p2": (50, True, True)})
    profile = build_profiles([squad], pubs, tags)[0]
    assert profile.top10.first_year == 2
    assert profile.top1.first_year == 4
    assert profile.top10.count > 0 and profile.top1.count > 0


def test_classification_deterministic():
    core, focal, pubs, tags = _profile_setup()
    teams = team_table(core, focal)
    first, _ = classify_all(teams)
    second, _ = classify_all(teams)
    assert first == second


# --- the impulse table ---

def test_impulses_csv_header(tmp_path):
    path = tmp_path / "impulses.csv"
    write_impulses_csv({0: ImpulseSummary(team_id=0)}, path)
    assert path.read_text().splitlines()[0] == (
        "team_id,persistence,synchronous,freshness,"
        "persistence_top10,persistence_top1,synchronous_top10,synchronous_top1,"
        "freshness_top10,freshness_top1,persistence_early_top10,persistence_early_top1,"
        "impulses_per_year")


def _nine_branch_summary(focal, relations, profiles) -> ImpulseSummary:
    """The impulse counters spelled out one branch per impulse."""
    summary = ImpulseSummary(team_id=focal.team_id)
    for rel in relations:
        if rel.impulse is Impulse.NONE:
            continue
        source = profiles[rel.other_team_id]
        has_top10 = source.top10.count > 0
        has_top1 = source.top1.count > 0
        if rel.impulse is Impulse.PERSISTENCE:
            summary.persistence += 1
            summary.persistence_top10 += has_top10
            summary.persistence_top1 += has_top1
            if has_top10 and source.top10.first_year < focal.duration_start:
                summary.persistence_early_top10 += 1
            if has_top1 and source.top1.first_year < focal.duration_start:
                summary.persistence_early_top1 += 1
        elif rel.impulse is Impulse.SYNCHRONOUS:
            summary.synchronous += 1
            summary.synchronous_top10 += has_top10
            summary.synchronous_top1 += has_top1
        else:
            summary.freshness += 1
            summary.freshness_top10 += has_top10
            summary.freshness_top1 += has_top1
    summary.impulses_per_year = summary.total / focal.duration
    return summary


_FOCAL_START = 5
# no success, or a first success before, at or after the focal team's start
_successes = st.one_of(
    st.just(Success((), 0, None)),
    st.builds(lambda count, year: Success((), count, year),
              st.integers(1, 3), st.sampled_from([_FOCAL_START - 1, _FOCAL_START,
                                                   _FOCAL_START + 1])))


@settings(max_examples=300, deadline=None)
@given(impulses=st.lists(st.sampled_from(list(Impulse)), max_size=8),
       successes=st.lists(st.tuples(_successes, _successes), min_size=8, max_size=8),
       duration=st.integers(1, 6))
def test_impulse_summary_matches_nine_branch_reference(impulses, successes, duration):
    focal = team(0, ["A", "B", "C"], [(_FOCAL_START, _FOCAL_START + duration - 1)])
    profiles = {other: SuccessProfile((), top10, top1)
                for other, (top10, top1) in enumerate(successes, start=1)}
    relations = [OverlapRelation(0, other, OverlapKind.CORE, Timing.PRECEDING, impulse)
                 for other, impulse in enumerate(impulses, start=1)]
    assert (impulse_summary(focal, relations, profiles)
            == _nine_branch_summary(focal, relations, profiles))
