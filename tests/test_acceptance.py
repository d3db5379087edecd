"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Criterion 9 (the million-publication scale smoke) only runs when
TEAMMINE_RUN_SCALE=1 is set; its measured numbers are recorded in the README.
"""

import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import teammine
from teammine.cliques import enumerate_maximal_cliques
from teammine.intervals import merge_union
from teammine.overlaps import OverlapKind, Timing, classify_all
from teammine.persistence import MIN_PUBS, WINDOW_LEN, persistent_periods
from teammine.pipeline import FIGURE_STEMS
from teammine.presets import (hazard_config, random_planted_config, scale_config,
                              shift_config, wired_overlap_config)
from teammine.success import tag_success
from teammine.synthgen import fig_s1_corpus, generate_corpus, verify_against_truth

from clique_reference import brute_force_cliques
from helpers import half_overlap_pairs, pub, run_pipeline, table


def passed(number: int, text: str):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def test_criterion_1_worked_example_golden(tmp_path):
    start = time.perf_counter()
    corpus = tmp_path / "corpus"
    fig_s1_corpus(corpus)
    pipeline = run_pipeline(corpus, tmp_path / "out", 1, 8)
    network = pipeline._load("network")
    assert network[("A", "B")] == [(2, 6)]
    assert ("C", "D") not in network
    teams = {t.members: t.intervals for t in pipeline._load("teams")}
    assert teams[("A", "B", "C")] == ((2, 5),)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    passed(1, f"worked example recovered exactly in {elapsed:.2f}s "
              "(pair (A,B) period [2,6]; (C,D) no edge; team {A,B,C} [2,5])")


def test_criterion_2_clique_oracle_equivalence():
    rng = random.Random(20240)
    start = time.perf_counter()
    instances = 0
    for _ in range(1000):
        n = rng.randint(2, 10)
        authors = [f"a{i}" for i in range(n)]
        network = {}
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.45:
                    periods = []
                    for _ in range(rng.randint(1, 2)):
                        s = rng.randint(1, 8)
                        periods.append((s, rng.randint(s, 8)))
                    network[(authors[i], authors[j])] = merge_union(periods)
        assert enumerate_maximal_cliques(network) == brute_force_cliques(network)
        instances += 1
    elapsed = time.perf_counter() - start
    assert instances >= 1000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    passed(2, f"{instances} random networks: enumerator equals brute force "
              f"({elapsed:.1f}s)")


def test_criterion_3_persistence_oracle_equivalence():
    def literal_oracle(years):
        if not years:
            return []
        marked = []
        for t in range(min(years) - WINDOW_LEN + 1, max(years) + 1):
            inside = [y for y in years if t <= y <= t + WINDOW_LEN - 1]
            if len(inside) >= MIN_PUBS:
                marked.append((min(inside), max(inside)))
        return merge_union(marked)

    rng = random.Random(555)
    start = time.perf_counter()
    checked = 0
    for _ in range(10000):
        n = rng.randint(0, 12)
        base = rng.randint(1, 40)
        years = sorted(rng.randint(base, base + 14) for _ in range(n))
        assert persistent_periods(years) == literal_oracle(years)
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked >= 10000
    passed(3, f"{checked} year multisets match the literal window-union oracle "
              f"({elapsed:.1f}s)")


def test_criterion_4_taxonomy_exhaustiveness(tmp_path):
    corpora = [("wired", wired_overlap_config(seed=13)),
               ("planted", random_planted_config(seed=13)),
               ("shift", shift_config(seed=13, per_group=10))]
    total_pairs = 0
    for name, config in corpora:
        corpus = tmp_path / name
        generate_corpus(config, corpus)
        pipeline = run_pipeline(corpus, tmp_path / f"{name}_out",
                                config.year_min, config.year_max)
        teams = pipeline._load("teams")
        candidates = half_overlap_pairs(teams)
        relations, anomalies = classify_all(teams)
        assert anomalies == {}, f"{name}: anomalies {anomalies}"
        assert len(relations) == len(candidates), name
        seen_pairs = {(rel.focal_team_id, rel.other_team_id) for rel in relations}
        assert seen_pairs == set(candidates), name
        for rel in relations:
            assert (rel.kind, rel.timing) not in (
                (OverlapKind.CORE, Timing.SUCCEEDING),
                (OverlapKind.EXTENSION, Timing.PRECEDING)), name
            focal = teams.get(rel.focal_team_id)
            other = teams.get(rel.other_team_id)
            if rel.kind is OverlapKind.CORE:
                assert other.duration_start <= focal.duration_start
                assert other.duration_end >= focal.duration_end
            elif rel.kind is OverlapKind.EXTENSION:
                assert focal.duration_start <= other.duration_start
                assert other.duration_end <= focal.duration_end
        total_pairs += len(candidates)
    assert total_pairs > 0
    passed(4, f"{total_pairs} candidate pairs over {len(corpora)} corpora all "
              "classify into one feasible cell; zero anomalies")


def test_criterion_5_percentile_tagging():
    # all-distinct cell: exactly 1.00% tagged
    pubs = table([pub(f"p{i}", 2010, ["a1"]) for i in range(10000)])
    counts = {f"p{i}": 20000 - i for i in range(10000)}
    tags, _ = tag_success(pubs, counts)
    n_top1 = len(tags.top1)
    assert n_top1 == 100
    assert n_top1 / len(pubs) == 0.01

    # 25-way tie at the cutoff rank: (100 + 24) tagged
    counts = {f"p{i}": 20000 - i for i in range(99)}
    counts.update({f"p{99 + i}": 500 for i in range(25)})
    counts.update({f"p{124 + i}": 400 - i % 300 for i in range(10000 - 124)})
    pubs = table([pub(p, 2010, ["a1"]) for p in counts])
    tags, _ = tag_success(pubs, counts)
    n_top1 = len(tags.top1)
    assert n_top1 == 124
    assert tags.top1 <= tags.top10
    passed(5, "all-distinct cell tags exactly 1.00%; 25-way tie tags 124/10000; "
              "top1 subset of top10")


def test_criterion_6_planted_team_recovery(tmp_path):
    start = time.perf_counter()
    config = random_planted_config(seed=29, n_teams=100)
    corpus = tmp_path / "corpus"
    truth = generate_corpus(config, corpus)
    pipeline = run_pipeline(corpus, tmp_path / "out", config.year_min, config.year_max)
    report = verify_against_truth(pipeline._load("teams"), pipeline._load("relations"),
                                  pipeline._load("tags"), truth)
    assert report.n_planted == 100
    assert report.team_recall == 1.0
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    passed(6, f"100 planted teams recovered with recall 1.00 "
              f"({report.exact_matches} exact) in {elapsed:.1f}s")


def test_criterion_7_analytics_ground_truth(tmp_path):
    # planted first-success hazard of 0.2 per age
    config = hazard_config(seed=23, n_teams=2000, duration=5, hazard=0.2)
    corpus = tmp_path / "hazard"
    generate_corpus(config, corpus)
    pipeline = run_pipeline(corpus, tmp_path / "hazard_out",
                            config.year_min, config.year_max)
    rows = {}
    import csv
    with open(tmp_path / "hazard_out" / "figs2add.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            if row["q"] == "0.10" and row["value"]:
                rows[int(row["age"])] = (float(row["value"]), int(row["n"]))
    checked_ages = 0
    for age, (value, n) in sorted(rows.items()):
        if n < 500:
            continue
        bound = 2.576 * math.sqrt(0.2 * 0.8 / n) * 100
        assert abs(value - 20.0) <= bound, f"age {age}: {value} vs 20 +- {bound:.2f}"
        checked_ages += 1
    assert checked_ages >= 4

    # planted first-success shift of exactly 1.0 years
    config = shift_config(seed=31)
    corpus = tmp_path / "shift"
    generate_corpus(config, corpus)
    run_pipeline(corpus, tmp_path / "shift_out", config.year_min, config.year_max)
    with open(tmp_path / "shift_out" / "fig5d.csv", newline="") as fh:
        shift_rows = {(row["duration"], row["condition"]): row
                      for row in csv.DictReader(fh)}
    persistence = shift_rows[("6", "persistence")]
    early = shift_rows[("6", "early_persistence")]
    assert abs(float(persistence["value"]) - 1.0) <= 0.1
    assert abs(float(early["value"]) - 1.0) <= 0.1
    passed(7, f"hazard 0.2 within the 99% CI at {checked_ages} ages; "
              f"planted 1.0-year shift recovered as {persistence['value']}")


def test_criterion_8_determinism(tmp_path):
    config = wired_overlap_config(seed=17)
    corpus = tmp_path / "corpus"
    generate_corpus(config, corpus)
    outs = []
    for name in ("r1", "r2", "r3"):
        run_pipeline(corpus, tmp_path / name, config.year_min, config.year_max)
        outs.append(tmp_path / name)
    names = [f"{stem}.csv" for stem in FIGURE_STEMS] + ["table_s1.csv"]
    for name in names:
        reference = (outs[0] / name).read_bytes()
        for out in outs[1:]:
            assert (out / name).read_bytes() == reference, name
    passed(8, f"three identical runs in three directories produce "
              f"byte-identical figure tables ({len(names)} files)")


@pytest.mark.scale
@pytest.mark.skipif(os.environ.get("TEAMMINE_RUN_SCALE") != "1",
                    reason="set TEAMMINE_RUN_SCALE=1 to run the scale smoke")
def test_criterion_9_scale_smoke(tmp_path):
    config = scale_config()
    corpus = tmp_path / "corpus"
    out = tmp_path / "out"
    src = Path(teammine.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "teammine.cli", "all",
            "--pubs", str(corpus / "publications.jsonl"),
            "--citations", str(corpus / "citations.csv"), "--out", str(out),
            "--set", f"year_min={config.year_min}", "--set", f"year_max={config.year_max}",
            "--set", "margin_years=0"]
    # A child inherits the peak of the process it is started from, so `all`
    # gets a child started before the generator runs. It waits for the end of
    # its input, then replaces itself with `all`; its own peak is then that
    # of `all`.
    child = subprocess.Popen(
        [sys.executable, "-c",
         "import os, sys; sys.stdin.read(); os.execv(sys.argv[1], sys.argv[1:])", *argv],
        stdin=subprocess.PIPE, env=env)
    # about 0.8 GB that pytest would keep in its base temp for two more runs
    try:
        gen_start = time.perf_counter()
        truth = generate_corpus(config, corpus)
        gen_elapsed = time.perf_counter() - gen_start
        gen_peak_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 / 1024
        assert truth.n_publications >= 1_000_000
        assert truth.n_authors >= 300_000

        start = time.perf_counter()
        child.stdin.close()
        _, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        elapsed = time.perf_counter() - start
        assert child.returncode == 0
        all_peak_gb = usage.ru_maxrss / 1024 / 1024
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        counts = {stage: entry["counts"] for stage, entry in manifest.items()}
        print(f"\nscale smoke: generation {gen_elapsed:.0f}s, peak RSS {gen_peak_gb:.2f} GB; "
              f"run all {elapsed:.0f}s, peak RSS {all_peak_gb:.2f} GB")
        print(f"stage counts: {counts}")
        assert elapsed < 600.0, f"run all took {elapsed:.0f}s"
        assert gen_peak_gb < 8.0, f"generation peak RSS {gen_peak_gb:.2f} GB"
        assert all_peak_gb < 8.0, f"run all peak RSS {all_peak_gb:.2f} GB"
        passed(9, f"{truth.n_publications} publications / {truth.n_authors} authors: "
                  f"run all in {elapsed:.0f}s, peak {all_peak_gb:.2f} GB "
                  f"(generation peak {gen_peak_gb:.2f} GB)")
    finally:
        if child.returncode is None:
            child.kill()
            child.wait()
        shutil.rmtree(corpus, ignore_errors=True)
        shutil.rmtree(out, ignore_errors=True)
