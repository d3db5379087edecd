"""The digest sidecar: ``<out>/digests.json`` keeps each file's SHA-256 with
its status fingerprint, so a later command hashes only what changed.

Most tests put the pipeline's clock ahead instead of sleeping past the 1 s
rule. A write and a later edit can then share one kernel timestamp tick, so
each edit waits a few milliseconds and checks that its ctime differs from
the recorded one.
"""

import json
import os
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

from teammine import pipeline as pipeline_module
from teammine.cli import main
from teammine.pipeline import STAGE_TABLE, Pipeline, PipelineConfig
from teammine.synthgen import fig_s1_corpus

from helpers import run_pipeline

# every file an `all` on the corpus checks
ALL_FILES = ({"publications.jsonl", "citations.csv"}
             | {name for stage in STAGE_TABLE for name in stage.outputs})


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    where = tmp_path_factory.mktemp("s1corpus")
    fig_s1_corpus(where)
    return where


@pytest.fixture
def later_clock(monkeypatch):
    """Put the pipeline's clock 5 s ahead, so that every file on disk is old
    enough for its fingerprint to be recorded."""
    real = time.time_ns
    monkeypatch.setattr(pipeline_module, "time",
                        SimpleNamespace(time_ns=lambda: real() + 5_000_000_000))


@pytest.fixture
def hashed(monkeypatch):
    """The names of the files hashed, in order."""
    calls = []
    sha256 = pipeline_module._sha256

    def counted(path):
        calls.append(Path(path).name)
        return sha256(path)

    monkeypatch.setattr(pipeline_module, "_sha256", counted)
    return calls


def rerun(corpus: Path, out: Path) -> dict[str, str]:
    """The status of an `all` in a new Pipeline, as a new command would run it."""
    return Pipeline(PipelineConfig(
        pubs_path=str(corpus / "publications.jsonl"),
        citations_path=str(corpus / "citations.csv"), out_dir=str(out),
        year_min=1, year_max=8, margin_years=0)).run("all")


def sidecar(out: Path) -> dict:
    return json.loads((out / "digests.json").read_text(encoding="utf-8"))


def recorded_ctime(path: Path) -> int:
    return sidecar(path.parent)[os.path.abspath(path)][4]


def same_size_and_mtime(path: Path, data: bytes, ctime: int):
    """Give ``path`` the same-size ``data``, with its size and mtime as before;
    the edit's ctime must differ from ``ctime``, the recorded one."""
    before = os.stat(path)
    assert len(data) == before.st_size and data != path.read_bytes()
    time.sleep(0.02)  # past the kernel timestamp tick of the recorded write
    path.write_bytes(data)
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = os.stat(path)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != ctime


def one_byte_changed(path: Path) -> bytes:
    data = bytearray(path.read_bytes())
    data[-2] ^= 1  # a digit of the last row
    return bytes(data)


def test_cached_all_hashes_nothing_once_every_file_is_recorded(corpus, tmp_path,
                                                               later_clock, hashed):
    out = tmp_path / "out"
    run_pipeline(corpus, out, 1, 8)
    assert set(hashed) == ALL_FILES
    assert {Path(key).name for key in sidecar(out)} == ALL_FILES
    hashed.clear()
    assert set(rerun(corpus, out).values()) == {"cached"}
    assert hashed == []


def test_same_size_edit_with_mtime_put_back_is_rehashed(corpus, tmp_path, later_clock, hashed):
    out = tmp_path / "out"
    run_pipeline(corpus, out, 1, 8)
    edges = out / "persistent_edges.csv"
    original = edges.read_bytes()
    same_size_and_mtime(edges, one_byte_changed(edges), recorded_ctime(edges))
    hashed.clear()
    status = rerun(corpus, out)
    assert status["persist"] == "ran" and status["network"] == "cached"
    assert "persistent_edges.csv" in hashed
    assert edges.read_bytes() == original


def test_file_replaced_by_one_of_equal_size_and_mtime_is_rehashed(corpus, tmp_path,
                                                                 later_clock, hashed):
    out = tmp_path / "out"
    run_pipeline(corpus, out, 1, 8)
    cliques = out / "cliques.csv"
    original = cliques.read_bytes()
    ctime = recorded_ctime(cliques)
    before = os.stat(cliques)
    time.sleep(0.02)  # past the kernel timestamp tick of the recorded write
    replacement = out / "cliques.csv.new"
    replacement.write_bytes(one_byte_changed(cliques))
    os.utime(replacement, ns=(before.st_atime_ns, before.st_mtime_ns))
    os.replace(replacement, cliques)
    after = os.stat(cliques)
    assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
    assert after.st_ctime_ns != ctime
    hashed.clear()
    status = rerun(corpus, out)
    assert status["mine"] == "ran" and status["persist"] == "cached"
    assert "cliques.csv" in hashed
    assert cliques.read_bytes() == original


def test_edit_right_after_recording_is_seen_under_the_real_clock(corpus, tmp_path):
    """A file whose status changed within the last second is not recorded,
    so an edit in the same timestamp tick cannot hide behind its fingerprint."""
    out = tmp_path / "out"
    run_pipeline(corpus, out, 1, 8)
    edges = out / "persistent_edges.csv"
    assert os.path.abspath(edges) not in pipeline_module._read_fingerprints(out / "digests.json")
    original = edges.read_bytes()
    before = os.stat(edges)
    edges.write_bytes(one_byte_changed(edges))
    os.utime(edges, ns=(before.st_atime_ns, before.st_mtime_ns))
    assert rerun(corpus, out)["persist"] == "ran"
    assert edges.read_bytes() == original


@pytest.mark.parametrize("damage", ["missing", "truncated", "not JSON", "a list",
                                    "digest not text", "short entry"])
def test_damaged_sidecar_means_hash_everything(corpus, tmp_path, later_clock, hashed, damage):
    out = tmp_path / "out"
    run_pipeline(corpus, out, 1, 8)
    path = out / "digests.json"
    text = path.read_text(encoding="utf-8")
    some_key = next(iter(sidecar(out)))
    path.write_bytes({
        "missing": None,
        "truncated": text[:len(text) // 2].encode(),
        "not JSON": b"\xff\xfe not json",
        "a list": b"[]\n",
        "digest not text": json.dumps({some_key: [1, 2, 3, 4, 5, 6]}).encode(),
        "short entry": json.dumps({some_key: [1, 2, 3, 4, "0" * 64]}).encode(),
    }[damage] or b"")
    if damage == "missing":
        path.unlink()
    hashed.clear()
    assert set(rerun(corpus, out).values()) == {"cached"}
    assert set(hashed) == ALL_FILES
    hashed.clear()
    assert set(rerun(corpus, out).values()) == {"cached"}
    assert hashed == []


def test_sidecar_is_not_an_artifact_and_read_only_commands_leave_it(corpus, tmp_path,
                                                                    later_clock, hashed):
    out = tmp_path / "out"
    run_pipeline(corpus, out, 1, 8)
    manifest = (out / "manifest.json").read_text(encoding="utf-8")
    assert "digests.json" not in manifest
    path = out / "digests.json"
    before, stat = path.read_bytes(), os.stat(path)
    hashed.clear()
    assert main(["explain", "--out", str(out), "--team-id", "1",
                 "--set", "year_min=1", "--set", "year_max=8"]) == 0
    assert main(["verify", "--out", str(out), "--truth", str(corpus / "truth.json")]) == 0
    assert hashed == []  # both took every digest from the sidecar
    assert path.read_bytes() == before
    assert os.stat(path).st_mtime_ns == stat.st_mtime_ns
    assert list(out.glob("digests.json.*")) == []
