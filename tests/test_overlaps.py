import pytest

from teammine.errors import InternalInconsistencyError
from teammine.overlaps import (Impulse, OverlapKind, Timing, classify_all,
                               classify_overlap, find_overlap_candidates,
                               shared_core_test, summarize_all)
from teammine.teams import TeamTable, success_profiles

from helpers import pub, table, tag_table, team


def team_table(*teams):
    return TeamTable(teams=list(teams))


def test_disjoint_teams_no_candidates():
    teams = team_table(team(0, ["A", "B", "C"], [(1, 4)]),
                       team(1, ["D", "E", "F"], [(1, 4)]))
    assert find_overlap_candidates(teams) == []


def test_half_overlap_candidates_both_directions():
    teams = team_table(team(0, ["A", "B", "C", "D"], [(1, 4)]),
                       team(1, ["A", "B", "E", "F"], [(1, 4)]))
    assert find_overlap_candidates(teams) == [(0, 1), (1, 0)]


def test_below_half_overlap_is_no_candidate():
    teams = team_table(team(0, ["A", "B", "C", "D", "E", "F"], [(1, 4)]),
                       team(1, ["A", "B", "X", "Y"], [(1, 4)]))
    assert find_overlap_candidates(teams) == []


def test_subset_is_candidate():
    teams = team_table(team(0, ["A", "B"], [(1, 6)]),
                       team(1, ["A", "B", "C"], [(2, 5)]))
    assert find_overlap_candidates(teams) == [(0, 1), (1, 0)]


def test_classify_core_preceding_persistence():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    other = team(1, ["A", "B"], [(1, 7)])
    rel = classify_overlap(focal, other, team_table(focal, other))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.CORE, Timing.PRECEDING, Impulse.PERSISTENCE)


def test_classify_extension_succeeding_freshness():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    other = team(1, ["A", "B", "C", "D"], [(4, 5)])
    rel = classify_overlap(focal, other, team_table(focal, other))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.EXTENSION, Timing.SUCCEEDING, Impulse.FRESHNESS)


def test_classify_core_simultaneous_no_impulse():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    other = team(1, ["A", "B"], [(3, 8)])
    rel = classify_overlap(focal, other, team_table(focal, other))
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.CORE, Timing.SIMULTANEOUS, Impulse.NONE)


def test_classify_offshoot_simultaneous_synchronous():
    focal = team(0, ["A", "B", "C", "D"], [(3, 6)])
    other = team(1, ["A", "B", "E", "F"], [(3, 5)])
    rel = classify_overlap(focal, other, team_table(focal, other))
    assert rel.kind in (OverlapKind.OFFSHOOT_SHARED_CORE,
                        OverlapKind.OFFSHOOT_NO_SHARED_CORE)
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.OFFSHOOT_NO_SHARED_CORE, Timing.SIMULTANEOUS, Impulse.SYNCHRONOUS)


def test_shared_core_detected():
    core = team(0, ["A", "B"], [(1, 9)])
    focal = team(1, ["A", "B", "C"], [(3, 6)])
    offshoot = team(2, ["A", "B", "D"], [(2, 5)])
    teams = team_table(core, focal, offshoot)
    assert shared_core_test(focal, offshoot, teams)
    rel = classify_overlap(focal, offshoot, teams)
    assert (rel.kind, rel.timing, rel.impulse) == \
        (OverlapKind.OFFSHOOT_SHARED_CORE, Timing.PRECEDING, Impulse.NONE)


def test_no_team_inside_intersection():
    focal = team(0, ["A", "B", "C"], [(3, 6)])
    offshoot = team(1, ["A", "B", "D"], [(2, 5)])
    assert not shared_core_test(focal, offshoot, team_table(focal, offshoot))


def test_simultaneous_core_is_not_a_shared_core():
    core = team(0, ["A", "B"], [(3, 9)])  # starts with the focal team
    focal = team(1, ["A", "B", "C"], [(3, 6)])
    offshoot = team(2, ["A", "B", "D"], [(2, 5)])
    teams = team_table(core, focal, offshoot)
    assert not shared_core_test(focal, offshoot, teams)


def test_equal_member_sets_raise():
    a = team(0, ["A", "B"], [(1, 4)])
    b = team(1, ["A", "B"], [(6, 9)])
    with pytest.raises(InternalInconsistencyError):
        classify_overlap(a, b, team_table(a, b))


def test_core_span_lemma_violation_raises_and_counts():
    focal = team(0, ["A", "B", "C"], [(1, 6)])
    other = team(1, ["A", "B"], [(8, 9)])  # subset that starts after the focal team
    with pytest.raises(InternalInconsistencyError):
        classify_overlap(focal, other, team_table(focal, other))
    relations, anomalies = classify_all(team_table(focal, other))
    assert relations == []
    assert anomalies == {"core_span": 1, "extension_span": 1}


def test_extension_span_lemma_violation():
    focal = team(0, ["A", "B"], [(3, 4)])
    other = team(1, ["A", "B", "C"], [(1, 6)])  # superset spilling outside
    with pytest.raises(InternalInconsistencyError):
        classify_overlap(focal, other, team_table(focal, other))


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
    summaries = summarize_all(teams, [], success_profiles(teams, pubs, tags))
    summary = summaries[1]
    assert summary.total == 0
    assert summary.impulses_per_year == 0.0


def test_early_persistence_walkthrough():
    core, focal, pubs, tags = _profile_setup()
    teams = team_table(core, focal)
    relations, anomalies = classify_all(teams)
    assert anomalies == {}
    summaries = summarize_all(teams, relations, success_profiles(teams, pubs, tags))
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
    summary = summarize_all(teams, relations, success_profiles(teams, pubs, tags))[1]
    assert summary.persistence_top1 == 1
    assert summary.persistence_early_top1 == 0


def test_impulses_per_year():
    focal = team(0, ["A", "B", "C", "D"], [(1, 4)])
    others = [team(i, ["A", "B", "E", f"x{i}"], [(2, 3)]) for i in range(1, 7)]
    teams = team_table(focal, *others)
    relations, _ = classify_all(teams)
    pubs = table([])
    tags = tag_table({})
    summary = summarize_all(teams, relations, success_profiles(teams, pubs, tags))[0]
    assert summary.total == 6
    assert summary.impulses_per_year == 1.5


def test_profile_first_years():
    squad = team(0, ["A", "B"], [(1, 9)], pubs=("p1", "p2"))
    pubs = table([pub("p1", 2, ["A", "B"]), pub("p2", 4, ["A", "B"])])
    tags = tag_table({"p1": (5, True, False), "p2": (50, True, True)})
    profile = success_profiles([squad], pubs, tags)[0]
    assert profile.top10.first_year == 2
    assert profile.top1.first_year == 4
    assert profile.top10.count > 0 and profile.top1.count > 0


def test_classification_deterministic():
    core, focal, pubs, tags = _profile_setup()
    teams = team_table(core, focal)
    first, _ = classify_all(teams)
    second, _ = classify_all(teams)
    assert first == second
