import ast
import gc
import hashlib
import importlib
import importlib.util
import json
import random
import re
import shutil
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teammine import cli as cli_module
from teammine import pipeline as pipeline_module
from teammine.cli import _CONFIG_KEY_HELP, main
from teammine.csvio import read_csv
from teammine.errors import (ConfigError, IngestError, MissingArtifactError,
                             StaleCacheError, UnknownTeamError)
from teammine.ingest import read_publications_jsonl
from teammine.intervals import format_intervals, parse_intervals
from teammine.pairs import canonical_pair
from teammine.persistence import MIN_PUBS, WINDOW_LEN, persistent_periods
from teammine.pipeline import (ARTIFACTS, EXTERNAL_INPUTS, FIGURE_STEMS, STAGE_TABLE, STAGES,
                               Pipeline, PipelineConfig, producers, sources)
from teammine.presets import PRESETS, random_planted_config, wired_overlap_config
from teammine.success import WINDOWS, read_success_tags_csv
from teammine.synthgen import fig_s1_corpus, generate_corpus

from helpers import pub_json, run_pipeline, write_citations, write_jsonl
from test_persistence import literal_window_union

CORPUS = sources(("pubs",))  # the canonical corpus files


@pytest.fixture(scope="module")
def s1_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("s1corpus")
    fig_s1_corpus(corpus)
    return corpus


def artifact_bytes(out_dir: Path) -> dict[str, bytes]:
    paths = list(out_dir.glob("*.csv")) + list(out_dir.glob("*.jsonl"))
    return {p.name: p.read_bytes() for p in sorted(paths)}


def test_run_all_produces_artifacts_and_manifest(s1_corpus, tmp_path):
    pipeline = run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
    for stage in STAGES:
        entry = pipeline.manifest[stage]
        assert entry["inputs"] and entry["outputs"]
        for name in entry["outputs"]:
            assert (tmp_path / "out" / name).exists()
    for stem in FIGURE_STEMS:
        assert (tmp_path / "out" / f"{stem}.csv").exists()
    teams_csv = (tmp_path / "out" / "teams.csv").read_text()
    assert "A;B;C,2-5" in teams_csv


def test_rerun_hits_cache_and_keeps_bytes(s1_corpus, tmp_path):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    before = artifact_bytes(out)
    pipeline = Pipeline(PipelineConfig(
        pubs_path=str(s1_corpus / "publications.jsonl"),
        citations_path=str(s1_corpus / "citations.csv"),
        out_dir=str(out), year_min=1, year_max=8, margin_years=0))
    status = pipeline.run("all")
    assert set(status.values()) == {"cached"}
    assert artifact_bytes(out) == before


def test_single_stage_without_prereq_errors(s1_corpus, tmp_path):
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(tmp_path / "out"), year_min=1, year_max=8)
    with pytest.raises(MissingArtifactError, match="persist"):
        Pipeline(config).run("mine")


def test_each_refusal_message(s1_corpus, tmp_path):
    out = tmp_path / "out"
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)

    def refusal(action) -> tuple:
        with pytest.raises((MissingArtifactError, StaleCacheError)) as info:
            action(Pipeline(config))
        return type(info.value), str(info.value)

    assert refusal(lambda p: p.run("mine")) == (
        MissingArtifactError, "stage 'mine' needs stage 'persist'; run 'persist' first")
    assert refusal(lambda p: p.explain_team(1)) == (
        MissingArtifactError, "explain needs stage 'network'; run 'network' first")
    Pipeline(config).run("all")
    edges = out / "persistent_edges.csv"
    edges.write_text(edges.read_text() + "Z,Q,1-2\n")
    assert refusal(lambda p: p.run("mine")) == (
        StaleCacheError, "artifact persistent_edges.csv no longer matches what stage "
        "'persist' produced; rerun 'persist'")
    edges.unlink()
    assert refusal(lambda p: p.run("mine")) == (
        MissingArtifactError,
        "artifact persistent_edges.csv from stage 'persist' is missing; rerun 'persist'")
    config.min_pubs = 4  # the configuration is checked before the outputs
    assert refusal(lambda p: p.run("mine")) == (
        StaleCacheError, "stage 'persist' ran with other settings of window_len, min_pubs; "
        "rerun 'persist' with these settings, or use the ones it ran with")


def _first_line_again(text: str) -> str:
    # a duplicate pub_id, which only ingest's validation would catch
    return text + text.splitlines(keepends=True)[0]


@pytest.mark.parametrize("artifact,edit,stage,prereq", [
    ("persistent_edges.csv", lambda text: text + "Z,Q,1-2\n", "mine", "persist"),
    ("canonical_publications.jsonl", _first_line_again, "stats", "ingest"),
    ("canonical_affiliations.jsonl", _first_line_again, "stats", "ingest"),
], ids=["persistent_edges.csv", "canonical_publications.jsonl", "canonical_affiliations.jsonl"])
def test_stale_prereq_artifact_refused(s1_corpus, tmp_path, artifact, edit, stage, prereq):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    path = out / artifact
    original = path.read_bytes()
    path.write_text(edit(path.read_text()))
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)
    with pytest.raises(StaleCacheError, match=f"rerun '{prereq}'"):
        Pipeline(config).run(stage)
    assert Pipeline(config).run("all")[prereq] == "ran"
    assert path.read_bytes() == original


def test_out_dir_from_the_one_file_corpus_reruns_ingest(s1_corpus, tmp_path):
    """An out dir written while the canonical corpus was one file, affiliation
    objects inline: its manifest names no affiliation table. A single stage
    refuses, and `all` reruns ingest and each stage that reads the corpus once."""
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    fresh = artifact_bytes(out)
    # records with their affiliation objects inline, as the one-file corpus held them
    one_file = (s1_corpus / "publications.jsonl").read_bytes()
    (out / "canonical_publications.jsonl").write_bytes(one_file)
    (out / "canonical_affiliations.jsonl").unlink()
    manifest = json.loads((out / "manifest.json").read_text())
    for entry in manifest.values():
        for digests in (entry["inputs"], entry["outputs"]):
            digests.pop("canonical_affiliations.jsonl", None)
            if "canonical_publications.jsonl" in digests:
                digests["canonical_publications.jsonl"] = hashlib.sha256(one_file).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)
    with pytest.raises(StaleCacheError, match="names other outputs.*rerun 'ingest'"):
        Pipeline(config).run("tag")
    reads_corpus = {stage.name for stage in STAGE_TABLE if set(CORPUS) & set(stage.inputs)}
    assert Pipeline(config).run("all") == {
        name: "ran" if name == "ingest" or name in reads_corpus else "cached"
        for name in STAGES}
    assert artifact_bytes(out) == fresh
    assert set(Pipeline(config).run("all").values()) == {"cached"}


def test_out_dir_with_table_s1_under_stats_reruns_once(s1_corpus, tmp_path):
    """An out dir written while `stats` wrote table_s1.csv and read the corpus
    and the success tags, and neither `tag` nor `teams` nor `overlaps` wrote
    the fig1 inputs: `all` reruns the stages whose recorded inputs or outputs
    moved once, then finds every stage cached."""
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    fresh = artifact_bytes(out)
    manifest = json.loads((out / "manifest.json").read_text())
    written = {name: digest for entry in manifest.values()
               for name, digest in entry["outputs"].items()}
    for stage, name in (("tag", "fig1_totals.csv"), ("teams", "team_pub_facts.csv"),
                        ("overlaps", "figure_tallies.csv")):
        del manifest[stage]["outputs"][name]
        (out / name).unlink()
    manifest["stats"]["outputs"]["table_s1.csv"] = manifest["tag"]["outputs"].pop("table_s1.csv")
    read_for_profiles = {name: manifest["teams"]["inputs"][name]
                         for name in (*CORPUS, "success_tags.csv")}
    for stage, kept in (("overlaps", ("teams.csv", "team_pubs.csv")),
                        ("stats", ("teams.csv", "team_pubs.csv", "impulses.csv"))):
        manifest[stage]["inputs"] = {**{name: written[name] for name in kept},
                                     **read_for_profiles}
    (out / "manifest.json").write_text(json.dumps(manifest))
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)
    assert Pipeline(config).run("all") == {
        name: "ran" if name in ("tag", "teams", "overlaps", "stats") else "cached"
        for name in STAGES}
    assert artifact_bytes(out) == fresh
    assert set(Pipeline(config).run("all").values()) == {"cached"}


@pytest.mark.parametrize("kind", ["fig_s1", "planted", "wired"])
def test_margin_rerun_reads_no_corpus(tmp_path, monkeypatch, kind):
    """After a cold `all`, `all` at another margin reruns only `stats`, which
    reads neither the canonical corpus, the success tags nor any team-level
    artifact, and rebuilds no success profile, and leaves the artifacts of a
    cold `all` at that margin: also at a margin that drops every team, and
    back at margin 0."""
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    years = _corpus(kind, corpus)
    drop_all = (years[1] - years[0]) // 2 + 1
    margins = (1, 2, 3, drop_all, 0)
    cold = {}
    for margin_years in margins:
        run_pipeline(corpus, tmp_path / f"cold{margin_years}", *years,
                     margin_years=margin_years)
        cold[margin_years] = artifact_bytes(tmp_path / f"cold{margin_years}")
    run_pipeline(corpus, out, *years)

    def refuse(*args):
        raise AssertionError(f"a margin rerun read {args}")

    for name in ("read_publications_jsonl", "read_success_tags_csv", "read_teams_csv",
                 "read_team_pub_facts_csv", "read_impulses_csv", "success_profiles"):
        monkeypatch.setattr(pipeline_module, name, refuse)
    kept = {}  # margin -> teams kept
    for margin_years in margins:
        pipeline = Pipeline(PipelineConfig(
            pubs_path=str(corpus / "publications.jsonl"),
            citations_path=str(corpus / "citations.csv"), out_dir=str(out),
            year_min=years[0], year_max=years[1], margin_years=margin_years))
        status = pipeline.run("all")
        assert status == {name: "ran" if name == "stats" else "cached" for name in STAGES}
        assert artifact_bytes(out) == cold[margin_years], margin_years
        kept[margin_years] = pipeline.manifest["stats"]["counts"]["teams_after_margin"]
    assert kept[drop_all] == 0 < kept[0]


def test_out_dir_without_figure_tallies_reruns_overlaps_and_stats_once(s1_corpus, tmp_path,
                                                                      monkeypatch):
    """An out dir written while `stats` read the team-level artifacts and
    `overlaps` wrote no figure_tallies.csv: a single `stats` refuses with
    `rerun 'overlaps'`, and `all` reruns `overlaps` and `stats` once, from
    the artifacts on disk, leaves the artifacts of a fresh run, and is
    cached from then on."""
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    fresh = artifact_bytes(out)
    manifest = json.loads((out / "manifest.json").read_text())
    written = {name: digest for entry in manifest.values()
               for name, digest in entry["outputs"].items()}
    del manifest["overlaps"]["outputs"]["figure_tallies.csv"]
    (out / "figure_tallies.csv").unlink()
    manifest["stats"]["inputs"] = {name: written[name] for name in (
        "fig1_totals.csv", "teams.csv", "team_pubs.csv", "team_pub_facts.csv",
        "impulses.csv")}
    (out / "manifest.json").write_text(json.dumps(manifest))
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)
    with pytest.raises(StaleCacheError, match="rerun 'overlaps'"):
        Pipeline(config).run("stats")

    def refuse(*args):
        raise AssertionError(f"the rerun read {args}")

    monkeypatch.setattr(pipeline_module, "read_publications_jsonl", refuse)
    monkeypatch.setattr(pipeline_module, "read_success_tags_csv", refuse)
    assert Pipeline(config).run("all") == {
        name: "ran" if name in ("overlaps", "stats") else "cached" for name in STAGES}
    assert artifact_bytes(out) == fresh
    assert set(Pipeline(config).run("all").values()) == {"cached"}


def test_single_stage_refuses_prereq_built_from_older_inputs(tmp_path, capsys):
    """Every stage behind a single stage is checked against the inputs now on
    disk, not only the direct producers' outputs."""
    corpus, out, fresh = tmp_path / "corpus", tmp_path / "out", tmp_path / "fresh"
    fig_s1_corpus(corpus)
    settings = ["--pubs", str(corpus / "publications.jsonl"),
                "--citations", str(corpus / "citations.csv"),
                "--set", "year_min=1", "--set", "year_max=8", "--set", "margin_years=0"]
    assert main(["all", "--out", str(out), *settings]) == 0
    pubs = corpus / "publications.jsonl"
    pubs.write_bytes(b"".join(pubs.read_bytes().splitlines(keepends=True)[:-1]))
    capsys.readouterr()
    for command in (["teams"], ["explain", "--team-id", "1"]):
        assert main([*command, "--out", str(out), *settings]) == 2
        assert "an input of stage 'ingest' changed; rerun 'ingest'" in capsys.readouterr().err
    assert main(["ingest", "--out", str(out), *settings]) == 0
    before = artifact_bytes(out)
    capsys.readouterr()
    for stage, stale in (("teams", "tag"), ("mine", "network")):  # network is behind persist
        assert main([stage, "--out", str(out), *settings]) == 2
        assert f"an input of stage '{stale}' changed; rerun '{stale}'" in capsys.readouterr().err
    assert artifact_bytes(out) == before
    assert main(["all", "--out", str(out), *settings]) == 0
    assert main(["all", "--out", str(fresh), *settings]) == 0
    assert artifact_bytes(out) == artifact_bytes(fresh)
    assert artifact_bytes(out)["teams.csv"] != before["teams.csv"]


def test_changed_config_reruns_stage(s1_corpus, tmp_path):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8,
                            margin_years=0, min_pubs=4)
    status = Pipeline(config).run("persist")
    assert status == {"persist": "ran"}


def test_changed_input_invalidates_downstream(s1_corpus, tmp_path):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    # cascade: persist must rerun because its input artifact changed
    (out / "pair_timelines.csv").write_text(
        (out / "pair_timelines.csv").read_text().replace("2;4;6", "2;4;6;7"))
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)
    pipeline = Pipeline(config)
    with pytest.raises(StaleCacheError, match="rerun 'network'"):
        pipeline.run("persist")


def test_deterministic_across_directories(s1_corpus, tmp_path):
    out1 = tmp_path / "o1"
    out2 = tmp_path / "o2"
    run_pipeline(s1_corpus, out1, 1, 8)
    run_pipeline(s1_corpus, out2, 1, 8)
    b1 = artifact_bytes(out1)
    b2 = artifact_bytes(out2)
    assert b1.keys() == b2.keys()
    for name in b1:
        assert b1[name] == b2[name], name


def test_explain_team(s1_corpus, tmp_path):
    pipeline = run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
    teams = pipeline._load("teams")
    abc = next(t for t in teams if t.members == ("A", "B", "C"))
    report = pipeline.explain_team(abc.team_id)
    assert "A, B, C" in report
    assert "[2,5]" in report
    assert "A--B" in report
    assert "co-publication years: 2, 4, 6" in report
    assert "kind=core" in report
    with pytest.raises(UnknownTeamError):
        pipeline.explain_team(999)


def test_explain_reads_only_stage_values(tmp_path, monkeypatch):
    """explain formats what the stages wrote: each publication's year and
    tiers from the team publication facts, each pair's years and periods from
    the pair timelines and the persistent network. It decodes neither the
    corpus nor success_tags.csv, and rebuilds no timeline or period."""
    corpus = tmp_path / "corpus"
    pipeline = run_pipeline(corpus, tmp_path / "out", *_corpus("wired", corpus))
    reports = [pipeline.explain_team(team.team_id) for team in pipeline._load("teams")]
    assert any(" top10" in report for report in reports)
    assert any(" top1" in report.replace(" top10", "") for report in reports)

    def refused(*args, **kwargs):
        raise AssertionError(f"explain called a reader or a builder with {args}")

    for name in ("read_success_tags_csv", "read_publications_jsonl", "build_pair_timelines",
                 "persistent_periods"):
        monkeypatch.setattr(pipeline_module, name, refused, raising=False)
    fresh = Pipeline(pipeline.config)
    assert [fresh.explain_team(team.team_id) for team in fresh._load("teams")] == reports


def test_explain_pair_lines_follow_the_definitions(tmp_path):
    """Each member pair's line holds the years of the input records naming
    both members and at most ``author_cap`` authors, and the union of the
    windows of ``window_len`` years holding ``min_pubs`` of those years."""
    corpus = tmp_path / "corpus"
    settings = dict(author_cap=3, window_len=4, min_pubs=2)
    pipeline = run_pipeline(corpus, tmp_path / "out", *_corpus("wired", corpus), **settings)
    records = [json.loads(line) for line in
               (corpus / "publications.jsonl").read_text(encoding="utf-8").splitlines()]
    author_sets = [({entry["author_id"] for entry in record["authors"]}, record["year"])
                   for record in records]
    capped = 0
    for team in pipeline._load("teams"):
        report = pipeline.explain_team(team.team_id).splitlines()
        for i, a in enumerate(team.members):
            for b in team.members[i + 1:]:
                held = [(len(ids), year) for ids, year in author_sets if {a, b} <= ids]
                years = sorted(year for size, year in held if size <= settings["author_cap"])
                capped += len(years) < len(held)
                periods = literal_window_union(years, settings["window_len"],
                                               settings["min_pubs"])
                assert (f"    {a}--{b}: periods "
                        f"{'; '.join(f'[{s},{e}]' for s, e in periods) or 'none'}; "
                        f"co-publication years: {', '.join(map(str, years))}") in report
    assert capped  # the cap drops some pair's records, so the test sees it applied


def test_explain_single_fault_refusals(s1_corpus, tmp_path, capsys):
    """With one artifact edited or deleted, explain refuses naming the stage
    that wrote it, unless stats wrote it, which explain does not read; with
    one configuration key changed, it names the first stage owning the key,
    unless only stats owns it."""
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    config = dict(year_min=1, year_max=8, margin_years=0)

    def explain(**changed) -> tuple[int, str, str]:
        argv = ["explain", "--out", str(out), "--team-id", "1"]
        for key, value in {**config, **changed}.items():
            argv += ["--set", f"{key}={value}"]
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    code, report, err = explain()
    assert code == 0 and err == "" and report.startswith("team 1: ")
    for stage in STAGE_TABLE:
        for name in stage.outputs:
            path = out / name
            original = path.read_bytes()
            for fault in ("edit", "delete"):
                if fault == "edit":
                    path.write_bytes(original + b"x\n")
                else:
                    path.unlink()
                if stage.name == "stats":
                    assert explain() == (0, report, ""), (name, fault)
                else:
                    code, _, err = explain()
                    assert code == 2 and err.startswith("error: "), (name, fault)
                    assert err.endswith(f"rerun '{stage.name}'\n"), (name, fault)
                path.write_bytes(original)
    defaults = PipelineConfig()
    for key in dict.fromkeys(key for stage in STAGE_TABLE for key in stage.config_keys):
        value = config.get(key, getattr(defaults, key))
        changed = (next(window for window in WINDOWS if window != value)
                   if key == "citation_window" else value + 1)
        owner = next(stage.name for stage in STAGE_TABLE if key in stage.config_keys)
        if owner == "stats":
            assert explain(**{key: changed}) == (0, report, ""), key
        else:
            code, _, err = explain(**{key: changed})
            assert code == 2 and f"stage '{owner}' ran with other settings" in err, key
    assert explain() == (0, report, "")


def test_closed_team_explain_shows_zero_relations(s1_corpus, tmp_path):
    pipeline = run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
    teams = pipeline._load("teams")
    ef = next(t for t in teams if t.members == ("E", "F"))
    report = pipeline.explain_team(ef.team_id)
    assert "overlap relations (0):" in report


def test_config_file_and_overrides(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_text("# comment\nyear_min = 1\nyear_max = 8\nauthor_cap = 3\n")
    config = PipelineConfig.from_file(config_file)
    assert (config.year_min, config.year_max, config.author_cap) == (1, 8, 3)
    config.set_option("margin_years", "0")
    assert config.margin_years == 0
    with pytest.raises(ConfigError):
        config.set_option("bogus", "1")
    with pytest.raises(ConfigError):
        config.set_option("year_min", "soon")
    bad = tmp_path / "bad.conf"
    bad.write_text("year_min\n")
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(bad)


def test_config_file_with_byte_order_mark(tmp_path):
    config_file = tmp_path / "run.conf"
    config_file.write_bytes(b"\xef\xbb\xbfyear_min = 1\nyear_max = 8\n")
    config = PipelineConfig.from_file(config_file)
    assert (config.year_min, config.year_max) == (1, 8)


def _stated_defaults(rows) -> dict[str, str]:
    """key -> default from (keys, defaults) cells such as ("year_min, year_max", "2008, 2020")."""
    stated = {}
    for keys, defaults in rows:
        keys, defaults = keys.strip().split(", "), defaults.strip().split(", ")
        assert len(keys) == len(defaults), keys
        stated.update(zip(keys, defaults))
    return stated


def test_config_docs_state_every_key_and_its_default():
    """The README table and the CLI help each give every PipelineConfig key with its default."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    table_rows = [line.split("|")[1:3] for line in section.splitlines()
                  if line.startswith("| ") and not line.startswith("| key ")]
    help_rows = [re.split(r"\s{2,}", line.strip())[:2] for line in _CONFIG_KEY_HELP.splitlines()
                 if line.startswith("  ") and not line.startswith(("   ", "  key "))]
    expected = {key: str(value) for key, value in vars(PipelineConfig()).items()}
    assert _stated_defaults(table_rows) == expected
    assert _stated_defaults(help_rows) == expected


def test_readme_artifacts_name_every_file_of_the_table():
    """The README's Artifacts section names every file of the artifact table:
    in backticks, in the first column of its figure table, or, for a
    ``*_top10.csv`` twin, through the sentence giving a figure its twin."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Artifacts\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"`([\w.]+)`", section))
    named |= {line.split("|")[1].strip() for line in section.splitlines()
              if line.startswith("| ")}
    for name in sources(ARTIFACTS):
        stem = name.removesuffix("_top10.csv")
        if stem != name:
            assert "has a `*_top10.csv` twin" in section and f"{stem}.csv" in named, name
        else:
            assert name in named, name


def test_package_imports_only_the_standard_library():
    """Every module of the package imports the standard library or the package
    itself, nothing else, however much else is installed."""
    for path in sorted((Path(__file__).parents[1] / "src" / "teammine").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names or top == "teammine", (path.name, name)


def test_unknown_stage_rejected(tmp_path):
    with pytest.raises(ConfigError):
        Pipeline(PipelineConfig(out_dir=str(tmp_path))).run("everything")


def test_cli_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    assert main(["synth", "--preset", "fig_s1", "--out", str(corpus)]) == 0
    assert main(["all", "--pubs", str(corpus / "publications.jsonl"),
                 "--citations", str(corpus / "citations.csv"), "--out", str(out),
                 "--set", "year_min=1", "--set", "year_max=8",
                 "--set", "margin_years=0"]) == 0
    assert main(["verify", "--out", str(out),
                 "--truth", str(corpus / "truth.json")]) == 0
    captured = capsys.readouterr().out
    report = json.loads((out / "verify_report.json").read_text())
    assert report["team_recall"] == 1.0
    assert report["overlap_match_rate"] == 1.0
    assert main(["explain", "--out", str(out), "--team-id", "1",
                 "--set", "year_min=1", "--set", "year_max=8"]) == 0
    assert "team 1" in capsys.readouterr().out


def test_cli_error_paths(s1_corpus, tmp_path, capsys):
    def one_line_error(argv) -> str:
        assert main(argv) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        return err[0]

    assert main(["mine", "--out", str(tmp_path / "nowhere"),
                 "--pubs", "missing.jsonl", "--citations", "missing.csv"]) == 2
    err = capsys.readouterr().err
    assert "error:" in err

    assert "--set expects key=value, got 'year_min'" in one_line_error(
        ["all", "--out", str(tmp_path / "o"), "--set", "year_min"])
    missing = tmp_path / "missing.conf"
    assert str(missing) in one_line_error(["all", "--out", str(tmp_path / "o"),
                                           "--config", str(missing)])
    latin1 = tmp_path / "latin1.conf"
    latin1.write_bytes("# r\u00e9sum\u00e9\nyear_min = 1\n".encode("latin-1"))
    assert "not UTF-8" in one_line_error(["all", "--out", str(tmp_path / "o"),
                                          "--config", str(latin1)])
    with pytest.raises(ConfigError):
        PipelineConfig.from_file(latin1)

    keyless = tmp_path / "keyless.json"
    keyless.write_text('{"teams": []}\n')
    assert "not a truth.json" in one_line_error(["verify", "--out", str(tmp_path / "o"),
                                                 "--truth", str(keyless)])
    run_pipeline(s1_corpus, tmp_path / "run", 1, 8)
    truth = json.loads((s1_corpus / "truth.json").read_text())
    for key, value in [("teams", [{}]), ("teams", 5), ("overlaps", [{"focal": 1}]),
                       ("tags", {"p1": []})]:
        malformed = tmp_path / "malformed.json"
        malformed.write_text(json.dumps({**truth, key: value}))
        assert "not a truth.json" in one_line_error(["verify", "--out", str(tmp_path / "run"),
                                                     "--truth", str(malformed)])

    taken = tmp_path / "taken"
    taken.write_text("a file, not a directory\n")
    assert "not a directory" in one_line_error(
        ["all", "--out", str(taken), "--pubs", str(s1_corpus / "publications.jsonl"),
         "--citations", str(s1_corpus / "citations.csv")])
    assert taken.read_text() == "a file, not a directory\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("content", [None, b"[]", b'"x"', b'{"ingest": {}}', b'{"ingest": 5}'],
                         ids=["truncated", "list", "string", "empty_entry", "number_entry"])
def test_cli_corrupt_manifest(s1_corpus, tmp_path, capsys, content):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    manifest = out / "manifest.json"
    manifest.write_bytes(manifest.read_bytes()[:40] if content is None else content)
    assert main(["all", "--out", str(out),
                 "--pubs", str(s1_corpus / "publications.jsonl"),
                 "--citations", str(s1_corpus / "citations.csv")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert str(manifest) in err[0] and "delete it and rerun" in err[0]


def test_cli_verify_missing_files(s1_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    missing = tmp_path / "nowhere" / "truth.json"
    assert main(["verify", "--out", str(out), "--truth", str(missing)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(missing) in err[0]
    truncated = tmp_path / "truth.json"
    truncated.write_bytes((s1_corpus / "truth.json").read_bytes()[:50])
    assert main(["verify", "--out", str(out), "--truth", str(truncated)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "not a truth.json" in err[0]
    assert main(["verify", "--out", str(out),
                 "--truth", str(s1_corpus / "truth.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: verify needs stage 'teams'; run 'teams' first"]


def test_cli_verify_reads_only_what_the_manifest_vouches_for(s1_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    overlaps = out / "overlaps.csv"
    rows = overlaps.read_bytes().splitlines(keepends=True)
    overlaps.write_bytes(b"".join(rows[:len(rows) // 2]))
    truth = str(s1_corpus / "truth.json")
    assert main(["verify", "--out", str(out), "--truth", truth]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: artifact overlaps.csv no longer matches what stage 'overlaps' produced; "
        "rerun 'overlaps'"]
    (out / "manifest.json").write_text("{}\n")
    assert main(["verify", "--out", str(out), "--truth", truth]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: verify needs stage 'teams'; run 'teams' first"]
    assert not (out / "verify_report.json").exists()


@pytest.fixture(scope="module")
def cold_runs(tmp_path_factory):
    """fig_s1 and wired, each as (corpus, CLI settings, out dir of a cold `all`)."""
    runs = {}
    for name in ("fig_s1", "wired"):
        corpus = tmp_path_factory.mktemp(name)
        truth = (fig_s1_corpus(corpus) if name == "fig_s1"
                 else generate_corpus(wired_overlap_config(), corpus))
        args = ["--pubs", str(corpus / "publications.jsonl"),
                "--citations", str(corpus / "citations.csv"),
                "--set", f"year_min={truth.year_min}", "--set", f"year_max={truth.year_max}",
                "--set", "margin_years=0"]
        assert main(["all", "--out", str(corpus / "out"), *args]) == 0
        runs[name] = corpus, args, corpus / "out"
    return runs


def _exit_or_one_error(argv, capsys):
    """Run the CLI; it exits 0, or 2 with exactly one ``error:`` line."""
    code = main(argv)
    err = capsys.readouterr().err.splitlines()
    assert code == 0 or (code == 2 and len(err) == 1 and err[0].startswith("error: ")), \
        (argv, code, err)


@pytest.mark.parametrize("name", ["fig_s1", "wired"])
def test_cli_verify_refuses_artifacts_of_different_runs(cold_runs, tmp_path, capsys, name):
    """overlaps.csv still holds the team ids of the teams.csv that `mine` and
    `teams` have since replaced: verify refuses as explain does, and writes
    no report."""
    corpus, args, cold = cold_runs[name]
    out = tmp_path / "out"
    shutil.copytree(cold, out)
    for stage in ("mine", "teams"):
        assert main([stage, "--out", str(out), *args, "--set", "min_size=3"]) == 0
    capsys.readouterr()
    assert main(["verify", "--out", str(out), "--truth", str(corpus / "truth.json")]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: an input of stage 'overlaps' changed; rerun 'overlaps'"]
    assert not (out / "verify_report.json").exists()


# a valid value other than the one `cold_runs` ran with, per configuration key
_CHANGED = {"year_min": lambda v: v + 1, "year_max": lambda v: v - 1,
            "citation_window": lambda v: next(w for w in WINDOWS if w != v),
            "author_cap": lambda v: 3, "window_len": lambda v: v - 1,
            "min_pubs": lambda v: v - 1, "min_size": lambda v: v + 1,
            "margin_years": lambda v: v + 2}


@pytest.mark.parametrize("name", ["fig_s1", "wired"])
def test_read_only_commands_after_a_partial_rerun(cold_runs, tmp_path, capsys, name):
    """After one stage reruns under a changed value of a key it owns, verify
    and explain, under either settings, exit 0 or refuse in one line."""
    corpus, args, cold = cold_runs[name]
    truth = str(corpus / "truth.json")
    base = PipelineConfig()
    for setting in args[5::2]:  # the values after each --set
        base.set_option(*setting.split("="))
    for spec in STAGE_TABLE:
        for key in spec.config_keys:
            out = tmp_path / f"{spec.name}-{key}"
            shutil.copytree(cold, out)
            changed = [*args, "--set", f"{key}={_CHANGED[key](getattr(base, key))}"]
            _exit_or_one_error([spec.name, "--out", str(out), *changed], capsys)
            _exit_or_one_error(["verify", "--out", str(out), "--truth", truth], capsys)
            for explain_args in (args, changed):
                _exit_or_one_error(["explain", "--out", str(out), "--team-id", "0",
                                    *explain_args], capsys)


def test_cli_removed_workers_key(tmp_path, capsys):
    assert main(["all", "--out", str(tmp_path / "out"), "--set", "workers=2"]) == 2
    assert "unknown configuration key 'workers'" in capsys.readouterr().err


def test_cli_synth_seeded_preset(tmp_path):
    out = tmp_path / "w"
    assert main(["synth", "--preset", "wired", "--out", str(out), "--seed", "4"]) == 0
    assert (out / "truth.json").exists()


def test_cli_fig_s1_takes_no_seed(tmp_path, capsys):
    out = tmp_path / "s1"
    assert main(["synth", "--preset", "fig_s1", "--out", str(out), "--seed", "9"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "--seed" in err[0]
    assert not out.exists()


def test_manifest_records_input_digests(s1_corpus, tmp_path):
    pipeline = run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["ingest"]["inputs"].keys() == {"pubs_input", "citations_input"}
    for stage in ("tag", "network"):
        assert set(CORPUS) <= manifest[stage]["inputs"].keys()
    for entry in manifest.values():
        for digest in list(entry["inputs"].values()) + list(entry["outputs"].values()):
            assert len(digest) == 64


def test_stage_inputs_come_from_earlier_stages():
    available = set(EXTERNAL_INPUTS)
    for stage in STAGE_TABLE:
        assert set(stage.inputs) <= available, stage.name
        assert not available & set(stage.outputs), stage.name
        available |= set(stage.outputs)
    assert STAGES == tuple(stage.name for stage in STAGE_TABLE)
    prereqs = {stage.name: producers(stage.inputs) for stage in STAGE_TABLE}
    assert prereqs == {
        "ingest": (),
        "tag": ("ingest",),
        "network": ("ingest",),
        "persist": ("network",),
        "mine": ("persist",),
        "teams": ("mine", "ingest", "tag"),
        "overlaps": ("teams",),
        "stats": ("tag", "overlaps"),
    }


def test_single_stage_refuses_prereq_run_under_other_config(s1_corpus, tmp_path, capsys):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    before = artifact_bytes(out)
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=3, year_max=8, margin_years=0)
    with pytest.raises(StaleCacheError, match="stage 'ingest' .*year_min, year_max"):
        Pipeline(config).run("stats")
    assert main(["stats", "--out", str(out), "--set", "year_min=3",
                 "--set", "year_max=8"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and "'ingest'" in err[0]
    assert artifact_bytes(out) == before
    # the stage's own keys may differ: they make it rerun, not refuse
    config.year_min, config.margin_years = 1, 1
    assert Pipeline(config).run("stats") == {"stats": "ran"}


def test_cli_explain_checks_prereqs(s1_corpus, tmp_path, capsys):
    empty = tmp_path / "empty"
    assert main(["explain", "--out", str(empty), "--team-id", "1"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: explain needs stage 'network'; run 'network' first"]
    assert not empty.exists()
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    assert main(["explain", "--out", str(out), "--team-id", "1"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert "'ingest'" in err[0] and "year_min" in err[0]


@pytest.mark.parametrize("setting", ["window_len=0", "min_pubs=0", "min_size=1",
                                     "citation_window=bogus", "year_min=9", "author_cap=-1",
                                     "margin_years=-1"])
def test_cli_config_rejected_before_any_stage(s1_corpus, tmp_path, capsys, setting):
    out = tmp_path / "out"
    assert main(["all", "--out", str(out),
                 "--pubs", str(s1_corpus / "publications.jsonl"),
                 "--citations", str(s1_corpus / "citations.csv"),
                 "--set", "year_min=1", "--set", "year_max=8", "--set", setting]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert setting.partition("=")[0] in err[0]
    assert not out.exists()
    config = PipelineConfig(out_dir=str(out), year_min=1, year_max=8)
    config.set_option(*setting.split("="))
    with pytest.raises(ConfigError):
        Pipeline(config)


def test_cli_failed_run_leaves_no_out_dir(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["all", "--out", str(out), "--pubs", str(tmp_path / "none.jsonl")]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("key", ["delta", "gamma"])
def test_cli_removed_clique_keys(tmp_path, capsys, key):
    assert main(["all", "--out", str(tmp_path / "out"), "--set", f"{key}=1"]) == 2
    assert f"unknown configuration key '{key}'" in capsys.readouterr().err


def test_manifest_write_is_atomic(s1_corpus, tmp_path, monkeypatch):
    out = tmp_path / "out"
    run_pipeline(s1_corpus, out, 1, 8)
    manifest = out / "manifest.json"
    old = manifest.read_bytes()

    def crash(obj, fh, **kwargs):
        fh.write('{"ingest": {"con')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", crash)
    with pytest.raises(OSError, match="disk full"):
        run_pipeline(s1_corpus, out, 1, 8, margin_years=1)
    monkeypatch.undo()
    assert manifest.read_bytes() == old
    config = PipelineConfig(pubs_path=str(s1_corpus / "publications.jsonl"),
                            citations_path=str(s1_corpus / "citations.csv"),
                            out_dir=str(out), year_min=1, year_max=8, margin_years=0)
    assert Pipeline(config).manifest == json.loads(old)


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_gc_state(s1_corpus, tmp_path, enabled):
    broken = tmp_path / "broken.jsonl"
    broken.write_text("{not json\n")
    was_enabled = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
        assert gc.isenabled() is enabled
        config = PipelineConfig(pubs_path=str(broken),
                                citations_path=str(s1_corpus / "citations.csv"),
                                out_dir=str(tmp_path / "broken_out"))
        with pytest.raises(IngestError, match="line 1"):
            Pipeline(config).run("all")
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was_enabled else gc.disable)()


def _negative_year_corpus(corpus: Path) -> tuple[int, int]:
    """Three authors publishing twice a year over the years -4..-1."""
    corpus.mkdir()
    write_jsonl(corpus / "publications.jsonl",
                [pub_json(f"p{year}_{k}", year, ["a", "b", "c"])
                 for year in range(-4, 0) for k in range(2)])
    write_citations(corpus / "citations.csv", [("x0", "p-4_0", -3)])
    return -4, -1


def _corpus(kind: str, corpus: Path) -> tuple[int, int]:
    if kind == "negative_years":
        return _negative_year_corpus(corpus)
    if kind == "fig_s1":
        fig_s1_corpus(corpus)
        return 1, 8
    config = random_planted_config() if kind == "planted" else wired_overlap_config()
    generate_corpus(config, corpus)
    return config.year_min, config.year_max


@pytest.mark.parametrize("kind", ["wired", "negative_years"])
def test_stage_by_stage_equals_all(tmp_path, kind):
    corpus = tmp_path / "corpus"
    years = _corpus(kind, corpus)
    run_pipeline(corpus, tmp_path / "all", *years)
    for stage in STAGES:  # a fresh Pipeline per stage, as separate processes would
        run_pipeline(corpus, tmp_path / "staged", *years, stage=stage)
    whole = artifact_bytes(tmp_path / "all")
    assert whole == artifact_bytes(tmp_path / "staged")
    assert ((tmp_path / "all" / "manifest.json").read_bytes()
            == (tmp_path / "staged" / "manifest.json").read_bytes())
    if kind == "negative_years":
        assert b"a;b;c,-4--1," in whole["teams.csv"]


@pytest.mark.parametrize("writer,stage", [
    ("load_citations", "ingest"),
    ("write_teams_csv", "teams"),
    ("write_impulses_csv", "overlaps"),
    ("write_corpus_stats_csv", "tag"),
])
def test_crash_after_partial_write_reruns_stage(tmp_path, monkeypatch, writer, stage):
    """A crash under settings B, after a run under settings A, leaves the
    stage's manifest entry from A next to half-written outputs from B. Back
    under A, its config and inputs match that entry again: only the output
    digests tell the stage to rerun. Each ``writer`` writes the file named by
    its last argument; ``load_citations`` writes canonical_citations.csv."""
    corpus = tmp_path / "corpus"
    year_min, year_max = _corpus("wired", corpus)
    settings_a = dict(year_min=year_min + 1, year_max=year_max, min_pubs=4)
    settings_b = dict(year_min=year_min, year_max=year_max)

    def run_all(out: Path, settings: dict) -> dict[str, str]:
        config = PipelineConfig(pubs_path=str(corpus / "publications.jsonl"),
                                citations_path=str(corpus / "citations.csv"),
                                out_dir=str(out), margin_years=0, **settings)
        return Pipeline(config).run("all")

    crashed = tmp_path / "crashed"
    run_all(crashed, settings_a)
    real = getattr(pipeline_module, writer)

    def write_half(*args):
        real(*args)
        path = args[-1]
        content = Path(path).read_bytes()
        Path(path).write_bytes(content[:len(content) // 2])
        raise OSError("disk full")

    monkeypatch.setattr(pipeline_module, writer, write_half)
    with pytest.raises(OSError, match="disk full"):
        run_all(crashed, settings_b)
    monkeypatch.undo()
    for name, settings in (("clean_a", settings_a), ("clean_b", settings_b)):
        assert run_all(crashed, settings)[stage] == "ran"
        run_all(tmp_path / name, settings)
        assert artifact_bytes(crashed) == artifact_bytes(tmp_path / name)
        assert ((crashed / "manifest.json").read_bytes()
                == (tmp_path / name / "manifest.json").read_bytes())


def test_cold_all_builds_success_profiles_once(s1_corpus, tmp_path, monkeypatch):
    calls = []
    build = pipeline_module.success_profiles

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(pipeline_module, "success_profiles", counted)
    run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
    assert len(calls) == 1
    # stats alone reads the tallies, which the overlaps stage built from them
    run_pipeline(s1_corpus, tmp_path / "out", 1, 8, margin_years=1)
    assert len(calls) == 1


def _shuffle_lines(source: Path, target: Path, rng: random.Random, header: int = 0):
    lines = source.read_bytes().splitlines()
    body = lines[header:]
    rng.shuffle(body)
    target.write_bytes(b"".join(line + b"\n" for line in lines[:header] + body))


@pytest.mark.parametrize("preset", ["wired", "planted", "shift"])
def test_shuffled_input_lines_keep_artifacts(tmp_path, preset):
    """Publication lines and citation rows in another order give the same
    sorted artifacts and figure tables."""
    config = PRESETS[preset]()
    corpus, shuffled = tmp_path / "corpus", tmp_path / "shuffled"
    generate_corpus(config, corpus)
    shuffled.mkdir()
    rng = random.Random(7)
    _shuffle_lines(corpus / "publications.jsonl", shuffled / "publications.jsonl", rng)
    _shuffle_lines(corpus / "citations.csv", shuffled / "citations.csv", rng, header=1)
    assert (shuffled / "publications.jsonl").read_bytes() != \
        (corpus / "publications.jsonl").read_bytes()
    names = ["teams.csv", "team_pubs.csv", "overlaps.csv", "impulses.csv", "table_s1.csv",
             *(f"{stem}.csv" for stem in FIGURE_STEMS)]
    outputs = []
    for source in (corpus, shuffled):
        out = tmp_path / f"{source.name}_out"
        run_pipeline(source, out, config.year_min, config.year_max, margin_years=1)
        outputs.append({name: (out / name).read_bytes() for name in names})
    assert outputs[0] == outputs[1]


# characters that sort before and after letters, need CSV quoting, or are not
# ASCII; no id holds ';', which separates the members in cliques.csv and teams.csv
_ID_CHARS = "aZ0, \"\u00e9-"

# artifact -> the columns that hold author ids, ';'-joined
_AUTHOR_COLUMNS = {"pair_timelines.csv": (0, 1), "persistent_edges.csv": (0, 1),
                   "cliques.csv": (0,), "teams.csv": (1,)}


def _order_preserving_renaming(ids, rng: random.Random) -> dict[str, str]:
    new = set()
    while len(new) < len(ids):
        new.add("".join(rng.choice(_ID_CHARS) for _ in range(rng.randint(1, 5))))
    return dict(zip(sorted(ids), sorted(new)))


@pytest.fixture(scope="module")
def small_runs(tmp_path_factory):
    """A small planted and a wired corpus, each with the out dir of its `all`."""
    runs = {}
    for name, config in (("planted", random_planted_config(n_teams=30, background_pubs=150,
                                                           n_background_authors=60)),
                         ("wired", wired_overlap_config())):
        corpus = tmp_path_factory.mktemp(name)
        generate_corpus(config, corpus)
        run_pipeline(corpus, corpus / "out", config.year_min, config.year_max)
        runs[name] = corpus, (config.year_min, config.year_max)
    return runs


@given(st.sampled_from(["planted", "wired"]), st.randoms(use_true_random=True))
@settings(max_examples=8, deadline=None)
def test_order_preserving_renaming_only_renames(small_runs, tmp_path_factory, name, rng):
    """Renaming the authors by an order-preserving map renames them in the
    pair timelines, persistent edges, cliques and teams, and leaves every
    artifact without author ids byte-identical."""
    corpus, years = small_runs[name]
    records = [json.loads(line) for line in
               (corpus / "publications.jsonl").read_text(encoding="utf-8").splitlines()]
    rename = _order_preserving_renaming(
        {entry["author_id"] for record in records for entry in record["authors"]}, rng)
    for record in records:
        for entry in record["authors"]:
            entry["author_id"] = rename[entry["author_id"]]
    renamed = tmp_path_factory.mktemp("renamed")
    write_jsonl(renamed / "publications.jsonl", records)
    shutil.copyfile(corpus / "citations.csv", renamed / "citations.csv")
    run_pipeline(renamed, renamed / "out", *years)
    for artifact, columns in _AUTHOR_COLUMNS.items():
        expected = list(read_csv(corpus / "out" / artifact))
        assert expected, artifact
        for row in expected:
            for column in columns:
                row[column] = ";".join(rename[a] for a in row[column].split(";"))
        assert list(read_csv(renamed / "out" / artifact)) == expected, artifact
    before, after = artifact_bytes(corpus / "out"), artifact_bytes(renamed / "out")
    for artifact in set(_AUTHOR_COLUMNS) | {"canonical_publications.jsonl"}:
        del before[artifact], after[artifact]
    assert before == after


def _shift_years(corpus: Path, target: Path, k: int):
    """The corpus with every publication and citation year moved by ``k``."""
    records = [json.loads(line) for line in
               (corpus / "publications.jsonl").read_text(encoding="utf-8").splitlines()]
    for record in records:
        record["year"] += k
    write_jsonl(target / "publications.jsonl", records)
    write_citations(target / "citations.csv",
                    [(citing, cited, year and int(year) + k)
                     for citing, cited, year in read_csv(corpus / "citations.csv")])


@given(st.sampled_from(["planted", "wired"]), st.integers(-30, 30).filter(bool))
@settings(max_examples=6, deadline=None)
def test_year_shift_moves_only_years(small_runs, tmp_path_factory, name, k):
    """Moving every year and the data window by k, which may be negative,
    moves the team intervals, the threshold years and fig1a's years by k,
    and leaves every table keyed by age, duration, country, metric or
    document type byte-identical."""
    corpus, (year_min, year_max) = small_runs[name]
    shifted = tmp_path_factory.mktemp("shifted")
    _shift_years(corpus, shifted, k)
    run_pipeline(shifted, shifted / "out", year_min + k, year_max + k)
    before, after = corpus / "out", shifted / "out"
    teams = list(read_csv(before / "teams.csv"))
    for row in teams:
        row[2] = format_intervals([(s + k, e + k) for s, e in parse_intervals(row[2])])
        row[3], row[4] = str(int(row[3]) + k), str(int(row[4]) + k)
    assert list(read_csv(after / "teams.csv")) == teams
    for artifact, column in (("thresholds.csv", 1), ("fig1a.csv", 1)):
        rows = list(read_csv(before / artifact))
        for row in rows:
            row[column] = str(int(row[column]) + k)
        assert list(read_csv(after / artifact)) == rows, artifact
    names = ["table_s1.csv", *(f"{stem}.csv" for stem in FIGURE_STEMS if stem != "fig1a")]
    assert {name: (after / name).read_bytes() for name in names} == \
        {name: (before / name).read_bytes() for name in names}


def _below_persistence(years) -> list[int]:
    """The sorted years kept one by one while every window of WINDOW_LEN
    years holds at most MIN_PUBS - 1 of them."""
    kept: list[int] = []
    for year in sorted(years):
        if sum(k > year - WINDOW_LEN for k in kept) < MIN_PUBS - 1:
            kept.append(year)
    return kept


@given(st.sampled_from(["planted", "wired"]),
       st.lists(st.sampled_from(["0fresh", "Mfresh", "~fresh"]), min_size=2, max_size=2,
                unique=True),
       st.lists(st.integers(0, 99), min_size=1, max_size=12), st.randoms(use_true_random=False))
@settings(max_examples=6, deadline=None)
def test_sub_persistent_pair_keeps_teams(small_runs, tmp_path_factory, name, pair, offsets, rng):
    """A pair of fresh authors with at most MIN_PUBS - 1 joint publications
    in every WINDOW_LEN-year window, on publications with fresh org, city and
    field ids, leaves the persistent edges, cliques and teams byte-identical:
    the paper's persistence rule rejects the pair."""
    corpus, (year_min, year_max) = small_runs[name]
    years = _below_persistence(year_min + k % (year_max - year_min + 1) for k in offsets)
    assert persistent_periods(years) == []
    records = [json.loads(line) for line in
               (corpus / "publications.jsonl").read_text(encoding="utf-8").splitlines()]
    for i, year in enumerate(years):
        aff = {"org_id": f"fresh_org{i}", "city_id": f"fresh_city{i}", "country": "NL",
               "lat": 10.0 + i, "lon": 20.0}
        records.insert(rng.randint(0, len(records)),
                       pub_json(f"fresh{i}", year, pair, fields=(f"fresh_field{i}",), affs=[aff]))
    added = tmp_path_factory.mktemp("added")
    write_jsonl(added / "publications.jsonl", records)
    shutil.copyfile(corpus / "citations.csv", added / "citations.csv")
    run_pipeline(added, added / "out", year_min, year_max)
    assert f"{min(pair)},{max(pair)},".encode() in (added / "out" / "pair_timelines.csv").read_bytes()
    for artifact in ("persistent_edges.csv", "cliques.csv", "teams.csv", "team_pubs.csv"):
        assert (added / "out" / artifact).read_bytes() == \
            (corpus / "out" / artifact).read_bytes(), artifact


@given(st.data())
@settings(max_examples=6, deadline=None)
def test_added_citation_keeps_success_tags(small_runs, tmp_path_factory, data):
    """One more citation inside a top-1% publication's three-year window
    adds one to its count and takes neither of its tags away."""
    corpus, years = small_runs["wired"]
    before = read_success_tags_csv(corpus / "out" / "success_tags.csv")
    pub_id = data.draw(st.sampled_from(sorted(before.top1)))
    pubs = read_publications_jsonl(*(corpus / "out" / name for name in CORPUS))
    citing_year = pubs.get(pub_id).year + data.draw(st.integers(0, 2))
    cited = tmp_path_factory.mktemp("cited")
    shutil.copyfile(corpus / "publications.jsonl", cited / "publications.jsonl")
    write_citations(cited / "citations.csv", [*read_csv(corpus / "citations.csv"),
                                              ("extra", pub_id, citing_year)])
    run_pipeline(cited, cited / "out", *years, stage="ingest").run("tag")
    after = read_success_tags_csv(cited / "out" / "success_tags.csv")
    assert after.counts[pub_id] == before.counts[pub_id] + 1
    assert after.flags(pub_id) == (True, True)


@pytest.mark.parametrize("preset", ["fig_s1", "wired"])
def test_network_count_is_timeline_rows_and_distinct_pairs(tmp_path, preset):
    """The manifest's `network` count `pairs` is the number of data rows in
    pair_timelines.csv and the number of distinct canonical author pairs in the
    corpus the stage reads."""
    corpus, out = tmp_path / "corpus", tmp_path / "out"
    years = _corpus(preset, corpus)
    run_pipeline(corpus, out, *years)
    count = json.loads((out / "manifest.json").read_text())["network"]["counts"]["pairs"]
    pubs = read_publications_jsonl(out / "canonical_publications.jsonl",
                                   out / "canonical_affiliations.jsonl")
    distinct = set()
    for rec in pubs:
        ids = [entry.author_id for entry in rec.authors]
        distinct.update(canonical_pair(a, b) for i, a in enumerate(ids) for b in ids[i + 1:])
    assert count == len(list(read_csv(out / "pair_timelines.csv"))) == len(distinct) > 0


def test_benchmark_tracer_names_bound_in_pipeline(tmp_path):
    """Every function the benchmark times per layer is the one its module
    defines, bound under the same name in ``teammine.pipeline``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, funcs in tracer._MODULE_FUNCS.items():
        if module == "synthgen":
            continue
        owner = importlib.import_module(f"teammine.{module}")
        for func in funcs:
            assert getattr(pipeline_module, func, None) is getattr(owner, func), \
                f"{module}.{func}"
    teams_module = importlib.import_module("teammine.teams")
    assert pipeline_module.success_profiles is teams_module.success_profiles
    with tracer.Tracer("run", tmp_path / "spans.json") as trace:
        trace.install_pipeline()
        assert trace.missing == []


def test_cold_all_keeps_only_values_a_later_stage_loads(s1_corpus, tmp_path, monkeypatch):
    """After each stage of a cold `all`, the in-memory values are the ones
    some later stage may still load, and none is left once `all` returns."""
    held = []
    run_stage = Pipeline._run_stage

    def recorded(self, stage):
        held.append(set(self._mem))  # what the previous stage left
        return run_stage(self, stage)

    monkeypatch.setattr(Pipeline, "_run_stage", recorded)
    pipeline = run_pipeline(s1_corpus, tmp_path / "out", 1, 8)
    held = held[1:] + [set(pipeline._mem)]
    for i, keys in enumerate(held):
        later = STAGE_TABLE[i + 1:]
        for key in keys:
            assert any(key in stage.reads for stage in later), (STAGES[i], key)
    assert dict(zip(STAGES, held)) == {
        "ingest": {"pubs", "citations"},
        "tag": {"pubs", "tags", "totals"},
        "network": {"pubs", "tags", "totals", "timelines"},
        "persist": {"pubs", "tags", "totals", "network"},
        "mine": {"pubs", "tags", "totals", "cliques"},
        "teams": {"totals", "teams", "facts", "profiles"},
        "overlaps": {"totals", "tallies"},
        "stats": set(),
    }


@pytest.mark.parametrize("preset", ["fig_s1", "wired"])
def test_each_stage_loads_exactly_its_inputs(tmp_path, monkeypatch, preset):
    """Run alone on a fresh Pipeline, each stage loads exactly the values
    its ``reads`` name; its inputs are the files holding them."""
    corpus = tmp_path / "corpus"
    years = _corpus(preset, corpus)
    run_pipeline(corpus, tmp_path / "out", *years)
    touched = []
    load = Pipeline._load

    def recorded(self, key):
        touched.append(key)
        return load(self, key)

    monkeypatch.setattr(Pipeline, "_load", recorded)
    for stage in STAGE_TABLE:
        touched.clear()
        pipeline = Pipeline(PipelineConfig(
            pubs_path=str(corpus / "publications.jsonl"),
            citations_path=str(corpus / "citations.csv"), out_dir=str(tmp_path / "out"),
            year_min=years[0], year_max=years[1], margin_years=0))
        del pipeline.manifest[stage.name]  # so that the stage reruns
        assert pipeline.run(stage.name) == {stage.name: "ran"}
        assert set(touched) == set(stage.reads) - set(EXTERNAL_INPUTS), stage.name


def test_every_loader_is_read_and_every_read_is_loadable():
    """Each value the artifact table can load is read by some stage, by
    explain or by verify; each value a stage reads can be loaded or is an
    external input; and each value of the table is written by exactly one
    stage."""
    readers = [stage.reads for stage in STAGE_TABLE]
    readers += [pipeline_module._EXPLAIN_READS, cli_module._VERIFY_READS]
    read = {key for reads in readers for key in reads}
    loadable = {key for key, (_, load, _) in ARTIFACTS.items() if load is not None}
    assert loadable <= read
    assert read <= loadable | set(EXTERNAL_INPUTS)
    written = [key for stage in STAGE_TABLE for key in stage.writes]
    assert sorted(written) == sorted(ARTIFACTS)


def test_each_file_hashed_once_per_command(s1_corpus, tmp_path, monkeypatch):
    """A file is hashed at most once per command, and once more after the
    stage writing it has rewritten it."""
    calls = []
    sha256 = pipeline_module._sha256

    def counted(path):
        calls.append(Path(path).name)
        return sha256(path)

    monkeypatch.setattr(pipeline_module, "_sha256", counted)
    out = tmp_path / "out"
    outputs = {stage.name: stage.outputs for stage in STAGE_TABLE}
    behind_stats = {name for stage in STAGE_TABLE[:-1] for name in stage.outputs}
    for stage, margin_years, tampered in (("all", 0, None), ("all", 0, None),
                                          ("stats", 1, None), ("all", 1, "cliques.csv")):
        if tampered:
            (out / tampered).write_text((out / tampered).read_text() + "Z;Q,1,2\n")
        calls.clear()
        status = Pipeline(PipelineConfig(
            pubs_path=str(s1_corpus / "publications.jsonl"),
            citations_path=str(s1_corpus / "citations.csv"), out_dir=str(out),
            year_min=1, year_max=8, margin_years=margin_years)).run(stage)
        rewritten = {name for ran, state in status.items() if state == "ran"
                     for name in outputs[ran]}
        for name in set(calls):
            assert calls.count(name) <= 1 + (name in rewritten), name
        if stage == "stats":  # every stage behind stats was checked
            assert behind_stats | {"publications.jsonl", "citations.csv"} <= set(calls)
    assert calls.count("cliques.csv") == 2


def test_second_run_of_one_pipeline_hashes_again(s1_corpus, tmp_path):
    """Digests are not carried from one run to the next: an artifact edited
    between two runs of the same Pipeline is noticed and rebuilt."""
    out = tmp_path / "out"
    pipeline = run_pipeline(s1_corpus, out, 1, 8)
    edges = out / "persistent_edges.csv"
    original = edges.read_bytes()
    edges.write_text(edges.read_text() + "Z,Q,1-2\n")
    assert pipeline.run("all")["persist"] == "ran"
    assert edges.read_bytes() == original
