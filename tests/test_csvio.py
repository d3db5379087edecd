"""The CSV codec: every artifact reader and writer round-trips byte for byte."""

import csv

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teammine.csvio import encode_field, read_csv, write_csv
from teammine.ingest import read_publications_jsonl
from teammine.intervals import format_intervals, parse_intervals
from teammine.pipeline import ARTIFACTS
from teammine.presets import wired_overlap_config
from teammine.success import read_success_tags_csv
from teammine.synthgen import generate_corpus
from teammine.teams import read_teams_csv, write_teams_csv

from helpers import build_profiles, run_pipeline


@pytest.fixture(scope="module")
def wired_run(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("wired")
    config = wired_overlap_config()
    generate_corpus(config, corpus)
    out = tmp_path_factory.mktemp("wired_out")
    run_pipeline(corpus, out, config.year_min, config.year_max)
    return out


# the values the artifact table both writes and reads back
ROUND_TRIP = [key for key, (_, read, write) in ARTIFACTS.items() if read and write]


@pytest.mark.parametrize("key", ROUND_TRIP,
                         ids=["+".join(ARTIFACTS[key][0]) for key in ROUND_TRIP])
def test_artifact_round_trip(wired_run, tmp_path, key):
    files, read, write = ARTIFACTS[key]
    for name in files:  # a header and a row, or two records
        assert (wired_run / name).read_bytes().count(b"\n") > 1, name
    write(read(*(wired_run / name for name in files)), *(tmp_path / name for name in files))
    for name in files:
        assert (tmp_path / name).read_bytes() == (wired_run / name).read_bytes(), name


def test_teams_round_trip(wired_run, tmp_path):
    teams = read_teams_csv(wired_run / "teams.csv", wired_run / "team_pubs.csv")
    pubs = read_publications_jsonl(wired_run / "canonical_publications.jsonl",
                                   wired_run / "canonical_affiliations.jsonl")
    tags = read_success_tags_csv(wired_run / "success_tags.csv")
    assert len(teams) > 0
    write_teams_csv(teams, build_profiles(teams, pubs, tags), tmp_path / "teams.csv",
                    tmp_path / "team_pubs.csv")
    for name in ("teams.csv", "team_pubs.csv"):
        assert (tmp_path / name).read_bytes() == (wired_run / name).read_bytes(), name


def test_team_counts_match_team_pubs_joined_with_tags(wired_run):
    def rows(name):
        with open(wired_run / name, newline="", encoding="utf-8") as fh:
            return list(csv.DictReader(fh))

    tags = {row["pub_id"]: row for row in rows("success_tags.csv")}
    expected: dict[str, list[int]] = {}
    for row in rows("team_pubs.csv"):
        counts = expected.setdefault(row["team_id"], [0, 0, 0])
        tag = tags.get(row["pub_id"])
        counts[0] += 1
        counts[1] += tag is not None and tag["top10"] == "1"
        counts[2] += tag is not None and tag["top1"] == "1"
    teams = rows("teams.csv")
    assert sum(int(row["n_top10"]) for row in teams) > 0
    for row in teams:
        got = [int(row["n_pubs"]), int(row["n_top10"]), int(row["n_top1"])]
        assert got == expected.get(row["team_id"], [0, 0, 0]), row["team_id"]


def test_codec_dialect_and_header_only(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b"], [("x,y", 1), ("", 2.5)])
    assert path.read_bytes() == b'a,b\r\n"x,y",1\r\n,2.5\r\n'
    assert list(read_csv(path)) == [["x,y", "1"], ["", "2.5"]]
    write_csv(path, ["a", "b"], [])
    assert list(read_csv(path)) == []


def test_interval_encoding():
    assert format_intervals([(2, 5), (7, 7)]) == "2-5;7-7"
    assert parse_intervals("2-5;7-7") == [(2, 5), (7, 7)]
    negative = [(-9, -7), (-4, 0), (2, 3)]
    assert format_intervals(negative) == "-9--7;-4-0;2-3"
    assert parse_intervals("-9--7;-4-0;2-3") == negative
    assert parse_intervals("-1-2") == [(-1, 2)]


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fields")


@given(st.lists(st.one_of(st.text(), st.sampled_from(["", " ", ",", '"', "\r", "\n", "é"]),
                          st.integers(), st.floats(allow_nan=False), st.none()),
                min_size=2, max_size=4))
@settings(max_examples=200, deadline=None)
def test_encode_field_matches_write_csv(csv_dir, row):
    write_csv(csv_dir / "row.csv", row, [])
    expected = (csv_dir / "row.csv").read_bytes()
    assert (",".join(map(encode_field, row)) + "\r\n").encode("utf-8") == expected
