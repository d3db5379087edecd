"""Self-test of the benchmark on tiny corpora.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from teammine import cli, synthgen  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import END_TO_END  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def _assert_printed(lines, result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name


def test_end_to_end_metrics_printed_with_names_and_units():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == END_TO_END
    lines, result = _bench("tiny", 0)
    _assert_printed(lines, result, declared)
    assert any(line.startswith("fail_frac 0.0000") for line in lines)
    assert any(line.startswith("digest margin_years=0: ") for line in lines)


def test_per_layer_metrics_printed_with_names_and_units():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == tracer.PER_LAYER
    lines, result = _bench("tiny", 1)
    _assert_printed(lines, result, declared)
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert metrics["pipeline.stages_ran"] == 8 and metrics["pipeline.stages_cached"] == 0
    assert metrics["cliques.cliques_out"] == 4


def test_self_time_counts_overlapping_children_once():
    parent = {"start": 0.0, "end": 10.0}
    children = [{"start": 3.0, "end": 6.0}, {"start": 1.0, "end": 4.0},
                {"start": 8.0, "end": 9.0}, {"start": 9.5, "end": 12.0}]
    # union of children inside the parent: [1,6] + [8,9] + [9.5,10] = 6.5
    assert tracer.self_time(parent, children) == 3.5
    assert tracer.self_time(parent, []) == 10.0


def _run_all(corpus: Path, out: Path, truth: synthgen.GroundTruth, capsys) -> str:
    code = cli.main(["all", "--pubs", str(corpus / "publications.jsonl"),
                     "--citations", str(corpus / "citations.csv"), "--out", str(out),
                     "--set", f"year_min={truth.year_min}",
                     "--set", f"year_max={truth.year_max}", "--set", "margin_years=0"])
    assert code == 0
    capsys.readouterr()
    return gate.result_digest(out)


def _verify(out: Path, corpus: Path, capsys) -> list[str]:
    assert cli.main(["verify", "--out", str(out), "--truth", str(corpus / "truth.json")]) == 0
    return gate.rate_failures(capsys.readouterr().out)


def test_gate_rejects_altered_teams_csv(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    truth = workloads.generate(workloads.WORKLOADS["tiny"], 0, corpus)
    digest = _run_all(corpus, tmp_path / "out", truth, capsys)
    assert _verify(tmp_path / "out", corpus, capsys) == []

    altered = tmp_path / "altered"
    shutil.copytree(tmp_path / "out", altered)
    rows = (altered / "teams.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    (altered / "teams.csv").write_text("".join(rows[:-1]), encoding="utf-8")
    assert _verify(altered, corpus, capsys) != []
    assert gate.result_digest(altered) != digest


def test_second_seed_gives_other_corpus_that_passes_gate(tmp_path, capsys):
    digests = []
    for seed in (1, 2):
        config = workloads.bulk_config(seed, fraction=0.002)
        assert config.seed == seed
        corpus = tmp_path / f"corpus{seed}"
        truth = synthgen.generate_corpus(config, corpus)
        _run_all(corpus, tmp_path / f"out{seed}", truth, capsys)
        assert _verify(tmp_path / f"out{seed}", corpus, capsys) == []
        digests.append(gate.result_digest(tmp_path / f"out{seed}"))
    assert ((tmp_path / "corpus1" / "publications.jsonl").read_bytes()
            != (tmp_path / "corpus2" / "publications.jsonl").read_bytes())
    assert digests[0] != digests[1]
