import pytest

from teammine.errors import InfeasibleConfigError
from teammine.ingest import load_publications
from teammine.intervals import merge_union
from teammine.pairs import build_pair_timelines
from teammine.persistence import build_persistent_network, persistent_periods
from teammine.presets import (hazard_config, random_planted_config, scale_config,
                              shift_config, wired_overlap_config)
from teammine.synthgen import (GroundTruth, PlantedTeam, SynthConfig,
                               _pair_interval_map, derive_truth_overlaps,
                               fig_s1_corpus, generate_corpus,
                               validate_config, verify_against_truth)
from teammine.teams import TeamTable

from helpers import flat_timelines, team, tag_table


def small_config(**kwargs):
    defaults = dict(
        seed=3, year_min=1, year_max=13,
        teams=(PlantedTeam(("A", "B", "C"), ((2, 6),)),
               PlantedTeam(("D", "E"), ((4, 8),))),
        n_background_authors=20, background_pubs=60,
    )
    defaults.update(kwargs)
    return SynthConfig(**defaults)


def test_deterministic_output(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_corpus(small_config(), a)
    generate_corpus(small_config(), b)
    for name in ("publications.jsonl", "citations.csv", "truth.json"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_zero_rejects_by_default(tmp_path):
    generate_corpus(small_config(), tmp_path)
    pubs = load_publications(tmp_path / "publications.jsonl", 1, 13)
    assert pubs.rejects == []


def test_truth_closed_under_persistence_rule(tmp_path):
    config = wired_overlap_config(seed=2, n_groups=3)
    generate_corpus(config, tmp_path)
    pubs = load_publications(tmp_path / "publications.jsonl", 1, 16)
    network = build_persistent_network(build_pair_timelines(pubs))
    expected = {pair: merge_union(intervals)
                for pair, intervals in _pair_interval_map(config.teams).items()}
    for pair, periods in expected.items():
        assert network.get(pair) == periods, pair
    # background noise must never create a persistent pair
    planted_pairs = set(expected)
    assert set(network) == planted_pairs


@pytest.mark.parametrize("rule,changes", [
    pytest.param("pubs_per_year", dict(teams=(PlantedTeam(("A", "B"), ((3, 3),)),)),
                 id="pubs_per_year"),
    pytest.param("pair_gap", dict(teams=(PlantedTeam(("A", "B"), ((1, 3), (6, 8)),
                                                     pubs_per_year=3),)),
                 id="bridging_gap"),
    pytest.param("pair_nesting", dict(teams=(PlantedTeam(("A", "B", "C"), ((1, 5),)),
                                             PlantedTeam(("A", "B", "D"), ((3, 8),)))),
                 id="non_nesting_overlap"),
    pytest.param("team_maximality", dict(teams=(PlantedTeam(("A", "B"), ((2, 6),)),
                                                PlantedTeam(("A", "B", "C"), ((2, 6),)))),
                 id="shadowed_team"),
    pytest.param("success_ages", dict(teams=(PlantedTeam(("A", "B"), ((2, 6),),
                                                         success_ages=(7,)),)),
                 id="success_age_outside_interval"),
    pytest.param("team_size", dict(teams=(PlantedTeam(("A",), ((2, 6),)),)),
                 id="one_member"),
    pytest.param("team_size", dict(teams=(PlantedTeam(("A", "B", "A"), ((2, 6),)),)),
                 id="repeated_member"),
    pytest.param("team_intervals", dict(teams=(PlantedTeam(("A", "B"), ()),)),
                 id="no_intervals"),
    pytest.param("team_intervals", dict(teams=(PlantedTeam(("A", "B"), ((2, 4), (5, 9))),)),
                 id="touching_intervals"),
    pytest.param("team_intervals", dict(teams=(PlantedTeam(("A", "B"), ((10, 14),)),)),
                 id="interval_outside_window"),
    pytest.param("team_support", dict(teams=(PlantedTeam(("A", "B", "C"), ((3, 5),)),
                                             PlantedTeam(("A", "B", "C", "D"), ((1, 8),)))),
                 id="unsupported_span"),
    pytest.param("background_pool", dict(n_background_authors=2), id="background_pool"),
    pytest.param("success_q", dict(success_q="0.05"), id="success_q"),
])
def test_infeasible_config_names_its_rule(rule, changes):
    with pytest.raises(InfeasibleConfigError, match=f"^{rule}: "):
        validate_config(small_config(**changes))


def test_presets_validate():
    for config in (random_planted_config(seed=1), wired_overlap_config(seed=1),
                   hazard_config(seed=1, n_teams=50), shift_config(seed=1, per_group=5)):
        validate_config(config)


def test_fig_s1_corpus(tmp_path):
    truth = fig_s1_corpus(tmp_path)
    assert truth.n_publications == 18
    assert truth.n_authors == 6
    pubs = load_publications(tmp_path / "publications.jsonl", 1, 8)
    assert len(pubs) == 18
    timelines = flat_timelines(build_pair_timelines(pubs))
    assert persistent_periods(timelines[("A", "B")]) == [(2, 6)]
    assert persistent_periods(timelines[("C", "D")]) == []
    assert persistent_periods(timelines[("B", "C")]) == [(1, 7)]
    members = {tuple(t["members"]) for t in truth.teams}
    assert ("A", "B", "C") in members


def test_truth_roundtrip(tmp_path):
    truth = generate_corpus(small_config(success_hazard=0.3), tmp_path)
    loaded = GroundTruth.from_json(tmp_path / "truth.json")
    assert loaded.teams == truth.teams
    assert loaded.tags == truth.tags
    assert loaded.n_publications == truth.n_publications


def test_verify_empty_report():
    truth = GroundTruth(year_min=1, year_max=5, seed=0, teams=[], overlaps=[], tags={})
    report = verify_against_truth(TeamTable(teams=[]), [], tag_table({}), truth)
    assert report.empty
    assert report.team_recall is None


def test_verify_superset_match():
    truth = GroundTruth(year_min=1, year_max=9, seed=0,
                        teams=[{"members": ["A", "B"], "intervals": [[2, 4]]}],
                        overlaps=[], tags={})
    mined = TeamTable(teams=[team(0, ["A", "B", "C"], [(1, 5)])])
    report = verify_against_truth(mined, [], tag_table({}), truth)
    assert report.exact_matches == 0
    assert report.superset_matches == 1
    assert report.team_recall == 1.0
    assert report.team_precision == 0.0


def test_verify_interval_mismatch_is_not_exact():
    truth = GroundTruth(year_min=1, year_max=9, seed=0,
                        teams=[{"members": ["A", "B"], "intervals": [[2, 4], [7, 9]]}],
                        overlaps=[], tags={})
    mined = TeamTable(teams=[team(0, ["A", "B"], [(2, 4)])])
    report = verify_against_truth(mined, [], tag_table({}), truth)
    assert report.exact_matches == 0
    assert report.superset_matches == 0
    assert report.team_recall == 0.0


def test_planted_success_years_recorded(tmp_path):
    config = small_config(teams=(PlantedTeam(("A", "B"), ((2, 6),),
                                             success_ages=(1, 3)),))
    truth = generate_corpus(config, tmp_path)
    assert truth.teams[0]["success_years"] == [2, 4]
    tagged = {p for p, (t10, _) in truth.tags.items() if t10}
    assert tagged == {"t0_y2_0", "t0_y4_0"}
    with open(tmp_path / "citations.csv") as fh:
        lines = fh.read().splitlines()
    assert len(lines) > 1  # header plus the planted citation events


_IMPULSE = {
    ("core", "preceding"): "persistence", ("core", "simultaneous"): "none",
    ("extension", "simultaneous"): "synchronous", ("extension", "succeeding"): "freshness",
    ("offshoot_shared_core", "preceding"): "none",
    ("offshoot_shared_core", "simultaneous"): "synchronous",
    ("offshoot_shared_core", "succeeding"): "freshness",
    ("offshoot_no_shared_core", "preceding"): "persistence",
    ("offshoot_no_shared_core", "simultaneous"): "synchronous",
    ("offshoot_no_shared_core", "succeeding"): "freshness",
}


def all_pairs_truth_overlaps(teams):
    """The rules applied to every ordered pair of teams and every third team."""
    relations = []
    for fi, (members_f, intervals_f) in enumerate(teams):
        x_f = intervals_f[0][0]
        for oi, (members_o, intervals_o) in enumerate(teams):
            if fi == oi or 2 * len(members_f & members_o) < max(len(members_f),
                                                                len(members_o)):
                continue
            x_o = intervals_o[0][0]
            timing = ("preceding" if x_o < x_f
                      else "simultaneous" if x_o == x_f else "succeeding")
            if members_o < members_f:
                kind = "core"
            elif members_f < members_o:
                kind = "extension"
            elif any(ci not in (fi, oi) and members_c <= members_f & members_o
                     and 2 * len(members_c) >= len(members_f) and intervals_c[0][0] < x_f
                     for ci, (members_c, intervals_c) in enumerate(teams)):
                kind = "offshoot_shared_core"
            else:
                kind = "offshoot_no_shared_core"
            relations.append({"focal": sorted(members_f), "other": sorted(members_o),
                              "kind": kind, "timing": timing,
                              "impulse": _IMPULSE[(kind, timing)]})
    return relations


def _teams_of(config):
    return [(frozenset(t.members), sorted(t.intervals)) for t in config.teams]


# related teams and a shared core that miss the focal team's first member
_CHAIN = [(frozenset(members), [interval]) for members, interval in [
    ("ab", (3, 5)), ("bc", (3, 5)), ("cdef", (4, 8)), ("defg", (4, 8)), ("ef", (2, 9))]]


@pytest.mark.parametrize("teams", [
    *(_teams_of(wired_overlap_config(seed=seed)) for seed in (11, 12, 13)),
    _teams_of(scale_config(seed=5, n_teams=600, background_pubs=0, n_background_authors=0)),
    _teams_of(shift_config()),
    _CHAIN,
], ids=["wired11", "wired12", "wired13", "scale600", "shift", "chain"])
def test_truth_overlaps_match_all_pairs(teams):
    expected = all_pairs_truth_overlaps(teams)
    assert expected
    assert derive_truth_overlaps(teams) == expected
