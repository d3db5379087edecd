"""Random command sequences against the stage cache.

A sequence starts from the out dir of a cold ``all`` and mixes single stages,
``all``, edits of the input files, edits of artifacts and changes of
configuration keys. Whatever came before, each command
either raises a ``TeammineError`` or leaves the outputs of every stage it ran
or found cached byte-equal to those of a fresh ``all`` on the current inputs
and settings. ``all`` raises only where the fresh ``all`` does, and after it
the manifest is equal too.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from teammine.errors import TeammineError
from teammine.pipeline import STAGE_TABLE, STAGES, Pipeline, PipelineConfig
from teammine.presets import wired_overlap_config
from teammine.synthgen import fig_s1_corpus, generate_corpus

OUTPUTS = {stage.name: stage.outputs for stage in STAGE_TABLE}
ARTIFACTS = tuple(name for stage in STAGE_TABLE for name in stage.outputs)
INPUTS = ("publications.jsonl", "citations.csv")

# configuration key -> the values a command may give it; year_min is an
# offset from the corpus' first year
SETTINGS = {"year_min": (0, 1), "citation_window": ("calendar_inclusive", "calendar_after"),
            "author_cap": (0, 3), "window_len": (5, 4), "min_pubs": (3, 2),
            "min_size": (2, 3), "margin_years": (0, 1)}


def _variant(data: bytes, index: int) -> bytes:
    """The input file as is, without its last line, or with it twice (a
    duplicate publication, a duplicate citation event)."""
    lines = data.splitlines(keepends=True)
    return b"".join((lines, lines[:-1], lines + lines[-1:])[index])

# ("run", stage or "all", in a new Pipeline), ("edit", input file, variant),
# ("tamper", artifact, delete it), ("set", configuration key, value index)
commands = st.one_of(
    st.tuples(st.just("run"), st.just("all") | st.sampled_from(STAGES), st.booleans()),
    st.tuples(st.just("edit"), st.sampled_from(INPUTS), st.integers(0, 2)),
    st.tuples(st.just("tamper"), st.sampled_from(ARTIFACTS), st.booleans()),
    st.tuples(st.just("set"), st.sampled_from(sorted(SETTINGS)), st.integers(0, 1)),
)


@pytest.fixture(scope="module")
def corpora(tmp_path_factory):
    """Preset name -> (corpus dir, first year, last year); each corpus dir
    also holds ``out``, the out dir of a cold ``all`` under the first values."""
    root = tmp_path_factory.mktemp("corpora")
    fig_s1_corpus(root / "fig_s1")
    wired = wired_overlap_config()
    generate_corpus(wired, root / "wired")
    corpora = {"fig_s1": (root / "fig_s1", 1, 8),
               "wired": (root / "wired", wired.year_min, wired.year_max)}
    for corpus, year_min, year_max in corpora.values():
        Sequence(corpus, year_min, year_max, corpus).apply(("run", "all", True), {})
    return corpora


class Sequence:
    """One out dir, its input files, and the settings of the next command."""

    def __init__(self, corpus: Path, year_min: int, year_max: int, work: Path):
        self.corpus, self.year_min, self.year_max, self.work = corpus, year_min, year_max, work
        self.variants = dict.fromkeys(INPUTS, 0)
        self.settings = dict.fromkeys(SETTINGS, 0)
        self.pipeline = None
        self._write_inputs(work / "inputs")
        if (corpus / "out").exists():
            shutil.copytree(corpus / "out", work / "out")

    def _write_inputs(self, where: Path):
        where.mkdir(exist_ok=True)
        for name, variant in self.variants.items():
            (where / name).write_bytes(_variant((self.corpus / name).read_bytes(), variant))

    def config(self, inputs: Path, out: Path) -> PipelineConfig:
        values = {key: SETTINGS[key][index] for key, index in self.settings.items()}
        values["year_min"] += self.year_min
        return PipelineConfig(pubs_path=str(inputs / "publications.jsonl"),
                              citations_path=str(inputs / "citations.csv"), out_dir=str(out),
                              year_max=self.year_max, **values)

    def fresh_all(self, cache: dict):
        """The artifacts and manifest of a fresh ``all``, or None when it raises."""
        key = (self.corpus, tuple(self.variants.items()), tuple(self.settings.items()))
        if key not in cache:
            where = Path(tempfile.mkdtemp(dir=self.work.parent))
            self._write_inputs(where)
            try:
                Pipeline(self.config(where, where / "out")).run("all")
                cache[key] = {path.name: path.read_bytes()
                              for path in (where / "out").iterdir()}
            except TeammineError:
                cache[key] = None
            shutil.rmtree(where)
        return cache[key]

    def apply(self, command: tuple, cache: dict):
        kind, name, arg = command
        if kind == "edit":
            self.variants[name] = arg
            self._write_inputs(self.work / "inputs")
            return
        if kind == "tamper":
            path = self.work / "out" / name
            if path.exists():
                path.unlink() if arg else path.write_bytes(path.read_bytes() + b"x\n")
            return
        if kind == "set":
            self.settings[name] = arg
            self.pipeline = None  # a new process, as the CLI starts one per command
            return
        if arg or self.pipeline is None:
            self.pipeline = Pipeline(self.config(self.work / "inputs", self.work / "out"))
        fresh = self.fresh_all(cache)
        try:
            status = self.pipeline.run(name)
        except TeammineError:
            assert name != "all" or fresh is None, command  # all reruns what is stale
            return
        assert fresh is not None, command
        out = self.work / "out"
        for stage in status:
            for output in OUTPUTS[stage]:
                assert (out / output).read_bytes() == fresh[output], (command, output)
        if name == "all":
            assert (out / "manifest.json").read_bytes() == fresh["manifest.json"], command


@pytest.fixture(scope="module")
def fresh_runs():
    """The result of a fresh all per corpus, inputs and settings, shared by
    the examples."""
    return {}


@pytest.mark.parametrize("preset", ["fig_s1", "wired"])
@settings(max_examples=50, deadline=None)
@given(sequence=st.lists(commands, min_size=1, max_size=8))
def test_command_sequences_match_a_fresh_all(corpora, fresh_runs, tmp_path_factory, preset,
                                             sequence):
    work = Path(tempfile.mkdtemp(dir=tmp_path_factory.getbasetemp()))
    try:
        state = Sequence(*corpora[preset], work)
        for command in sequence:
            state.apply(command, fresh_runs)
    finally:
        shutil.rmtree(work)
