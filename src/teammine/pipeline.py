"""Staged pipeline with cached, digest-checked intermediates.

Each stage reads its predecessor's artifacts, writes its own, and records a
manifest entry holding the digests of everything it consumed and produced.
A stage is skipped when its inputs, configuration, and outputs all match the
manifest; a prerequisite whose artifact changed on disk, or that ran under
other settings of its configuration keys, is refused with an instruction to
rerun it. All artifacts are plain text (JSONL / CSV) and byte deterministic
for fixed inputs and configuration.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from teammine.analytics import (compute_all_figures, figure_tallies, filter_margin,
                                prevalence_totals, read_figure_tallies_csv,
                                read_prevalence_totals_csv, write_figure_tallies_csv,
                                write_prevalence_totals_csv)
from teammine.cliques import (MIN_SIZE, enumerate_maximal_cliques, read_cliques_csv,
                              write_cliques_csv)
from teammine.errors import (ConfigError, MissingArtifactError, StaleCacheError,
                             TeammineError, UnknownTeamError)
from teammine.ingest import (corpus_stats, load_citations, load_publications,
                             read_citations_csv, read_publications_jsonl,
                             write_citation_drops_csv, write_corpus_stats_csv,
                             write_publications_jsonl, write_rejects_csv)
from teammine.overlaps import (classify_all, read_impulses_csv, read_overlaps_csv,
                               summarize_all, write_impulses_csv, write_overlap_anomalies_csv,
                               write_overlaps_csv)
from teammine.pairs import (build_pair_timelines, read_pair_timelines_csv,
                            write_pair_timelines_csv)
from teammine.persistence import (MIN_PUBS, WINDOW_LEN, build_persistent_network,
                                  read_persistent_edges_csv, write_persistent_edges_csv)
from teammine.success import (WINDOW_INCLUSIVE, WINDOWS, compute_tags, read_success_tags_csv,
                              write_success_tags_csv, write_thresholds_csv)
from teammine.teams import (assemble_teams, associate_all, compute_all_metrics,
                            read_team_pub_facts_csv, read_teams_csv, success_profiles,
                            team_pub_facts, write_team_pub_facts_csv, write_teams_csv)

FIGURE_STEMS = ("fig1a", "fig1b", "fig2a", "fig2a_top10", "fig2b", "fig2b_top10",
                "fig3", "fig3_top10", "fig5a", "fig5a_top10", "fig5b", "fig5b_top10",
                "fig5c", "fig5c_top10", "fig5d", "fig5d_top10", "figs2add")


# value key -> (its parts, reader, writer): the one table of the files each
# value lives in. A part is a file, or the key of a value the reader derives
# this one from; the reader gets the paths or values of the parts, the writer
# the value and the paths. No reader: nothing loads the value back. No writer:
# its stage body writes it (the citations as they stream in, the teams with
# their success profiles, the figure tables). Both are called through the
# name this module binds, so a rebinding of it takes effect. Every load
# follows a digest check against the manifest, which is why the canonical
# corpus and citations are read back without validation.
ARTIFACTS = {
    "pubs": (("canonical_publications.jsonl", "canonical_affiliations.jsonl"),
             read_publications_jsonl, write_publications_jsonl),
    "citations": (("canonical_citations.csv",), read_citations_csv, None),
    "rejects": (("rejects.csv",), None, write_rejects_csv),
    "drops": (("citation_drops.csv",), None, write_citation_drops_csv),
    "tags": (("success_tags.csv",), read_success_tags_csv, write_success_tags_csv),
    "thresholds": (("thresholds.csv",), None, write_thresholds_csv),
    "table_s1": (("table_s1.csv",), None, write_corpus_stats_csv),
    "totals": (("fig1_totals.csv",), read_prevalence_totals_csv, write_prevalence_totals_csv),
    "timelines": (("pair_timelines.csv",), read_pair_timelines_csv, write_pair_timelines_csv),
    "network": (("persistent_edges.csv",), read_persistent_edges_csv,
                write_persistent_edges_csv),
    "cliques": (("cliques.csv",), read_cliques_csv, write_cliques_csv),
    "teams": (("teams.csv", "team_pubs.csv"), read_teams_csv, None),
    "facts": (("team_pub_facts.csv",), read_team_pub_facts_csv, write_team_pub_facts_csv),
    "profiles": (("teams", "facts"), success_profiles, None),
    "relations": (("overlaps.csv",), read_overlaps_csv, write_overlaps_csv),
    "summaries": (("impulses.csv",), read_impulses_csv, write_impulses_csv),
    "anomalies": (("overlap_anomalies.csv",), None, write_overlap_anomalies_csv),
    "tallies": (("figure_tallies.csv",), read_figure_tallies_csv, write_figure_tallies_csv),
    **{stem: ((f"{stem}.csv",), None, None) for stem in FIGURE_STEMS},
}


def sources(keys) -> tuple[str, ...]:
    """The files holding the values ``keys`` names, artifact names or
    external input keys, in order of first use."""
    return tuple(dict.fromkeys(name for key in keys for name in (
        sources(ARTIFACTS[key][0]) if key in ARTIFACTS else (key,))))


@dataclass(frozen=True)
class Stage:
    """One pipeline stage; its body is the ``Pipeline._stage_<name>`` method.

    ``reads`` are the values the stage loads, keys of ``ARTIFACTS`` or of
    ``EXTERNAL_INPUTS``; ``writes`` are the keys of ``ARTIFACTS`` whose
    values it produces.
    """
    name: str
    config_keys: tuple[str, ...]
    reads: tuple[str, ...]
    writes: tuple[str, ...]

    @property
    def inputs(self) -> tuple[str, ...]:
        """The files the stage reads, artifact names or external input keys;
        the stages producing them are its prerequisites, in order of first use."""
        return sources(self.reads)

    @property
    def outputs(self) -> tuple[str, ...]:
        """The artifacts the stage writes."""
        return sources(self.writes)


# input key -> the configuration key holding its path
EXTERNAL_INPUTS = {"pubs_input": "pubs_path", "citations_input": "citations_path"}

STAGE_TABLE = (
    Stage("ingest", ("year_min", "year_max"),
          ("pubs_input", "citations_input"),
          ("pubs", "citations", "rejects", "drops")),
    Stage("tag", ("citation_window",),
          ("pubs", "citations"),
          ("tags", "thresholds", "table_s1", "totals")),
    Stage("network", ("author_cap",),
          ("pubs",),
          ("timelines",)),
    Stage("persist", ("window_len", "min_pubs"),
          ("timelines",),
          ("network",)),
    Stage("mine", ("min_size",),
          ("network",),
          ("cliques",)),
    Stage("teams", (),
          ("cliques", "pubs", "tags"),
          ("teams", "facts", "profiles")),
    Stage("overlaps", (),
          ("teams", "facts", "profiles"),
          ("relations", "summaries", "anomalies", "tallies")),
    Stage("stats", ("margin_years", "year_min", "year_max"),
          ("totals", "tallies"),
          FIGURE_STEMS),
)

STAGES = tuple(stage.name for stage in STAGE_TABLE)
_BY_NAME = {stage.name: stage for stage in STAGE_TABLE}
_PRODUCER = {name: stage.name for stage in STAGE_TABLE for name in stage.outputs}

# the values explain reads
_EXPLAIN_READS = ("timelines", "network", "teams", "facts", "relations", "summaries")


def producers(inputs) -> tuple[str, ...]:
    """Stages producing the given artifacts, in order of first use."""
    return tuple(dict.fromkeys(_PRODUCER[name] for name in inputs if name in _PRODUCER))


@dataclass
class PipelineConfig:
    pubs_path: str = "publications.jsonl"
    citations_path: str = "citations.csv"
    out_dir: str = "out"
    year_min: int = 2008
    year_max: int = 2020
    window_len: int = WINDOW_LEN
    min_pubs: int = MIN_PUBS
    min_size: int = MIN_SIZE
    citation_window: str = WINDOW_INCLUSIVE
    author_cap: int = 0        # 0 = no cap
    margin_years: int = 4

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        config = cls()
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                for line_no, line in enumerate(fh, start=1):
                    line = line.strip()
                    if not line or line.startswith("#"):
                        continue
                    if "=" not in line:
                        raise ConfigError(f"{path}:{line_no}: expected key = value")
                    key, _, value = line.partition("=")
                    config.set_option(key.strip(), value.strip())
        except UnicodeDecodeError:
            raise ConfigError(f"configuration file {path} is not UTF-8") from None
        return config

    def set_option(self, key: str, value: str):
        # field types are strings: this module postpones annotations
        field_types = {f.name: f.type for f in dataclass_fields(self)}
        if key not in field_types:
            raise ConfigError(f"unknown configuration key {key!r}")
        if field_types[key] == "int":
            try:
                setattr(self, key, int(value))
            except ValueError:
                raise ConfigError(f"configuration key {key!r} expects an integer, "
                                  f"got {value!r}") from None
        else:
            setattr(self, key, value)

    def validate(self):
        """Refuse values outside the range a stage can run with; the stages
        check none of them again."""
        for key, low in (("window_len", 1), ("min_pubs", 1), ("min_size", 2),
                         ("author_cap", 0), ("margin_years", 0)):
            if getattr(self, key) < low:
                raise ConfigError(f"{key} must be >= {low}; got {getattr(self, key)}")
        if self.citation_window not in WINDOWS:
            raise ConfigError(f"citation_window must be one of {', '.join(WINDOWS)}; "
                              f"got {self.citation_window!r}")
        if self.year_min > self.year_max:
            raise ConfigError(f"year_min ({self.year_min}) must not exceed "
                              f"year_max ({self.year_max})")


def _is_manifest(manifest: object) -> bool:
    """Whether ``manifest`` has the shape ``Pipeline._save_manifest`` writes."""
    return type(manifest) is dict and all(
        type(entry) is dict and type(entry.get("config")) is str
        and all(type(entry.get(key)) is dict for key in ("inputs", "outputs", "counts"))
        and all(type(name) is str and type(digest) is str
                for name, digest in entry["outputs"].items())
        for entry in manifest.values())


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Pipeline:
    """Owns the artifact directory, the manifest, and in-memory caches."""

    def __init__(self, config: PipelineConfig):
        config.validate()
        self.config = config
        self.out_dir = Path(config.out_dir)
        if self.out_dir.exists() and not self.out_dir.is_dir():
            raise ConfigError(f"out dir {self.out_dir} exists and is not a directory")
        self.manifest_path = self.out_dir / "manifest.json"
        self.manifest: dict = {}
        if self.manifest_path.exists():
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                try:
                    self.manifest = json.load(fh)
                except ValueError:  # truncated or not UTF-8
                    self.manifest = None
            if not _is_manifest(self.manifest):
                raise TeammineError(f"manifest {self.manifest_path} is corrupt; "
                                    f"delete it and rerun")
        self._mem: dict[str, object] = {}
        self._digests: dict[Path, str] = {}  # path -> SHA-256, reset per run and explain

    # --- manifest plumbing ---

    def _save_manifest(self):
        tmp = self.manifest_path.with_name("manifest.json.tmp")
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")
        os.replace(tmp, self.manifest_path)

    def _config_digest(self, stage: str) -> str:
        pairs = [f"{key}={getattr(self.config, key)}" for key in _BY_NAME[stage].config_keys]
        return hashlib.sha256("\n".join(pairs).encode()).hexdigest()

    def _paths(self, key: str) -> list[Path]:
        """The paths of the files holding the value ``key``."""
        return [self.out_dir / name for name in ARTIFACTS[key][0]]

    def _input_path(self, name: str) -> Path:
        if name in EXTERNAL_INPUTS:
            return Path(getattr(self.config, EXTERNAL_INPUTS[name]))
        return self.out_dir / name

    def _digest(self, path: Path) -> str:
        """The SHA-256 of ``path``, hashed once per ``run`` or ``explain_team``;
        ``_run_stage`` records the digest of each output it rewrites."""
        if path not in self._digests:
            self._digests[path] = _sha256(path)
        return self._digests[path]

    def _input_digests(self, stage: str) -> dict[str, str | None]:
        """The digest of each input of ``stage`` by name, None for one not on disk."""
        paths = {name: self._input_path(name) for name in _BY_NAME[stage].inputs}
        return {name: self._digest(path) if path.exists() else None
                for name, path in paths.items()}

    def _refusal(self, stage: str, user: str, input_digests: dict | None = None):
        """The first reason the manifest entry of ``stage`` no longer holds, as
        the error refusing it to ``user``, or None. The reasons: no entry, the
        configuration digest, the input digests (only when given; an input
        whose digest is None is not on disk and not compared), outputs
        recorded under other names than the stage writes now, an output
        missing, an output digest changed."""
        entry = self.manifest.get(stage)
        if entry is None:
            return MissingArtifactError(f"{user} needs stage '{stage}'; run '{stage}' first")
        if entry["config"] != self._config_digest(stage):
            keys = ", ".join(_BY_NAME[stage].config_keys)
            return StaleCacheError(f"stage '{stage}' ran with other settings of {keys}; rerun "
                                   f"'{stage}' with these settings, or use the ones it ran with")
        if input_digests is not None and (
                entry["inputs"].keys() != input_digests.keys()
                or any(digest not in (None, entry["inputs"][name])
                       for name, digest in input_digests.items())):
            return StaleCacheError(f"an input of stage '{stage}' changed; rerun '{stage}'")
        if entry["outputs"].keys() != set(_BY_NAME[stage].outputs):
            return StaleCacheError(f"the manifest entry of stage '{stage}' names other "
                                   f"outputs than the stage writes; rerun '{stage}'")
        for name in entry["outputs"]:
            refusal = self._output_refusal(stage, name)
            if refusal is not None:
                return refusal
        return None

    def _output_refusal(self, stage: str, name: str):
        """Why the output ``name`` of ``stage`` is not what the manifest entry
        of ``stage`` records, as the error refusing it, or None."""
        path = self.out_dir / name
        if not path.exists():
            return MissingArtifactError(f"artifact {name} from stage '{stage}' is missing; "
                                        f"rerun '{stage}'")
        if self._digest(path) != self.manifest[stage]["outputs"].get(name):
            return StaleCacheError(f"artifact {name} no longer matches what stage "
                                   f"'{stage}' produced; rerun '{stage}'")
        return None

    def _check_prereq(self, user: str, prereqs: tuple[str, ...]):
        """Refuse unless every stage behind ``prereqs``, theirs included, still
        holds: it ran under the current values of its configuration keys, on
        the inputs now on disk, and its outputs are on disk unchanged.

        The walk is breadth first, so the nearest stale stage is the one named;
        but a stage whose only fault is a changed input is named only when no
        stage is stale otherwise, so an edited artifact is reported against
        the stage that wrote it rather than one that reads it. An input not
        on disk is not compared: the stage producing it is walked too and
        reports it missing, and a corpus file the settings do not name
        (``explain --out DIR`` alone) cannot be compared.
        """
        stages = list(prereqs)
        input_changed = None
        for stage in stages:  # grows while it is walked
            refusal = self._refusal(stage, user)
            if refusal is not None:
                raise refusal
            input_changed = input_changed or self._refusal(stage, user,
                                                           self._input_digests(stage))
            stages += [p for p in producers(_BY_NAME[stage].inputs) if p not in stages]
        if input_changed is not None:
            raise input_changed

    def check_outputs(self, user: str, names: tuple[str, ...]):
        """Refuse unless each artifact of ``names`` is on disk as the manifest
        entry of the stage producing it records, and every stage behind them
        ran on the outputs its prerequisites last recorded. Unlike
        ``_check_prereq`` it compares no settings and hashes no input, so it
        needs no configuration; external inputs are not compared."""
        self._digests = {}
        for name in names:
            stage = _PRODUCER[name]
            refusal = (self._refusal(stage, user) if stage not in self.manifest
                       else self._output_refusal(stage, name))
            if refusal is not None:
                raise refusal
        stages = list(producers(names))
        for stage in stages:  # grows while it is walked, breadth first
            if stage not in self.manifest:
                raise self._refusal(stage, user)
            for name, digest in self.manifest[stage]["inputs"].items():
                producer = _PRODUCER.get(name)  # None for an external input
                if producer in self.manifest and \
                        self.manifest[producer]["outputs"].get(name) != digest:
                    raise StaleCacheError(f"an input of stage '{stage}' changed; "
                                          f"rerun '{stage}'")
            stages += [p for p in producers(_BY_NAME[stage].inputs) if p not in stages]

    # --- running ---

    def run(self, stage: str) -> dict[str, str]:
        """Run one stage or 'all'; returns stage -> 'ran' | 'cached'."""
        self._digests = {}
        if stage == "all":
            stages = STAGES
        elif stage in STAGES:
            self._check_prereq(f"stage '{stage}'", producers(_BY_NAME[stage].inputs))
            stages = (stage,)
        else:
            raise ConfigError(f"unknown stage {stage!r}")
        status = {}
        gc_was_enabled = gc.isenabled()
        gc.disable()  # the records are acyclic: collecting would only rescan a growing heap
        try:
            for i, name in enumerate(stages):
                status[name] = self._run_stage(name)
                # reference counting frees what no later stage can load
                keep = {key for later in stages[i + 1:] for key in _BY_NAME[later].reads}
                self._mem = {key: value for key, value in self._mem.items() if key in keep}
        finally:
            if gc_was_enabled:
                gc.enable()
        return status

    def _run_stage(self, stage: str) -> str:
        spec = _BY_NAME[stage]
        input_digests = self._input_digests(stage)
        for name, digest in input_digests.items():
            if digest is None:  # an external input: `_check_prereq` or `all` saw to artifacts
                raise MissingArtifactError(f"stage '{stage}' input {self._input_path(name)} "
                                           "is missing")
        if self._refusal(stage, f"stage '{stage}'", input_digests) is None:
            return "cached"
        self.out_dir.mkdir(parents=True, exist_ok=True)
        counts = getattr(self, f"_stage_{stage}")()
        outputs = {}
        for name in sorted(spec.outputs):
            path = self.out_dir / name
            outputs[name] = self._digests[path] = _sha256(path)
        self.manifest[stage] = {
            "config": self._config_digest(stage),
            "inputs": input_digests,
            "outputs": outputs,
            "counts": counts,
        }
        self._save_manifest()
        return "ran"

    # --- artifact loading and writing ---

    def _load(self, key: str):
        if key not in self._mem:
            parts, read, _ = ARTIFACTS[key]
            self._mem[key] = globals()[read.__name__](*(
                self._load(part) if part in ARTIFACTS else self.out_dir / part
                for part in parts))
        return self._mem[key]

    def _write(self, **values):
        """Write each value through its table writer, if any; keep it for later stages."""
        for key, value in values.items():
            write = ARTIFACTS[key][2]
            if write is not None:
                globals()[write.__name__](value, *self._paths(key))
            self._mem[key] = value

    # --- stage bodies ---

    def _stage_ingest(self) -> dict:
        pubs = load_publications(self.config.pubs_path, self.config.year_min,
                                 self.config.year_max)
        citations = load_citations(self.config.citations_path, pubs, *self._paths("citations"))
        self._write(pubs=pubs, citations=citations, rejects=pubs.rejects,
                    drops=citations.drop_counts)
        counts = {"publications": len(pubs), "rejects": len(pubs.rejects),
                  "citations": sum(map(len, citations.citing_years.values()))}
        for reason, count in sorted(citations.drop_counts.items()):
            counts[f"drop_{reason}"] = count
        return counts

    def _stage_tag(self) -> dict:
        pubs = self._load("pubs")
        tags, thresholds = compute_tags(pubs, self._load("citations"),
                                        mode=self.config.citation_window)
        self._write(tags=tags, thresholds=thresholds, table_s1=corpus_stats(pubs, tags),
                    totals=prevalence_totals(pubs, tags))
        return {"tagged_top10": len(tags.top10), "tagged_top1": len(tags.top1),
                "cells": len(thresholds)}

    def _stage_network(self) -> dict:
        timelines = build_pair_timelines(self._load("pubs"), self.config.author_cap)
        self._write(timelines=timelines)
        return {"pairs": sum(map(len, timelines.values()))}

    def _stage_persist(self) -> dict:
        network = build_persistent_network(self._load("timelines"), self.config.window_len,
                                           self.config.min_pubs)
        self._write(network=network)
        return {"persistent_pairs": len(network)}

    def _stage_mine(self) -> dict:
        cliques = enumerate_maximal_cliques(self._load("network"), self.config.min_size)
        self._write(cliques=cliques)
        return {"cliques": len(cliques)}

    def _stage_teams(self) -> dict:
        teams = assemble_teams(self._load("cliques"))
        associate_all(teams, self._load("pubs"))
        compute_all_metrics(teams, self._load("pubs"))
        facts = team_pub_facts(teams, self._load("pubs"), self._load("tags"))
        profiles = success_profiles(teams, facts)
        write_teams_csv(teams, profiles, *self._paths("teams"))
        self._write(teams=teams, facts=facts, profiles=profiles)
        return {"teams": len(teams),
                "team_publications": sum(len(t.pubs) for t in teams)}

    def _stage_overlaps(self) -> dict:
        teams = self._load("teams")
        profiles = self._load("profiles")
        relations, anomalies = classify_all(teams)
        summaries = summarize_all(teams, relations, profiles)
        tallies = figure_tallies(teams, self._load("facts"), profiles, summaries)
        self._write(relations=relations, summaries=summaries, anomalies=anomalies,
                    tallies=tallies)
        return {"relations": len(relations), "anomalies": sum(anomalies.values())}

    def _stage_stats(self) -> dict:
        sums = filter_margin(self._load("tallies"), self.config.year_min,
                             self.config.year_max, self.config.margin_years)
        figures = compute_all_figures(self._load("totals"), sums,
                                      self.config.year_min, self.config.year_max)
        for stem in FIGURE_STEMS:
            figures[stem].to_csv(*self._paths(stem))
        return {"figure_tables": len(FIGURE_STEMS),
                "teams_after_margin": sum(n for (n,) in sums.get("teams", {}).values())}

    # --- debugging aid ---

    def explain_team(self, team_id: int) -> str:
        self._digests = {}
        self._check_prereq("explain", producers(sources(_EXPLAIN_READS)))
        teams = self._load("teams")
        team = teams.get(team_id)
        if team is None:
            raise UnknownTeamError(f"no team with id {team_id}")
        timelines = self._load("timelines")
        network = self._load("network")
        facts = self._load("facts")
        lines = [f"team {team.team_id}: {', '.join(team.members)}"]
        lines.append("  intervals: " + "; ".join(f"[{s},{e}]" for s, e in team.intervals))
        lines.append(f"  duration: [{team.duration_start},{team.duration_end}] "
                     f"({team.duration} years)")
        lines.append("  pair persistence:")
        for i, a in enumerate(team.members):  # sorted, so each pair is canonical
            for b in team.members[i + 1:]:
                years = timelines[a][b]
                periods = "; ".join(f"[{s},{e}]" for s, e in network.get((a, b), ()))
                lines.append(f"    {a}--{b}: periods {periods or 'none'}; "
                             f"co-publication years: {', '.join(map(str, years)) or 'none'}")
        lines.append(f"  publications ({len(team.pubs)}):")
        for pub_id in team.pubs:
            pub = facts[pub_id]
            mark = (" top10" if pub.top10 else "") + (" top1" if pub.top1 else "")
            lines.append(f"    year {pub.year}  {pub_id}{mark}")
        m = team.metrics
        lines.append(f"  composition: orgs/member={m.orgs_per_member:.3f} "
                     f"cities/member={m.cities_per_member:.3f} "
                     f"countries/member={m.countries_per_member:.3f} "
                     f"city-distance/member={m.mean_city_distance_km:.1f} km")
        relations = [rel for rel in self._load("relations") if rel.focal_team_id == team_id]
        lines.append(f"  overlap relations ({len(relations)}):")
        for rel in relations:
            other = teams.get(rel.other_team_id)
            lines.append(f"    other team {rel.other_team_id} "
                         f"{{{', '.join(other.members)}}} kind={rel.kind.value} "
                         f"timing={rel.timing.value} impulse={rel.impulse.value}")
        summary = self._load("summaries").get(team_id)
        if summary is not None:
            lines.append(f"  impulses: persistence={summary.persistence} "
                         f"(top10={summary.persistence_top10} top1={summary.persistence_top1} "
                         f"early_top10={summary.persistence_early_top10} "
                         f"early_top1={summary.persistence_early_top1}) "
                         f"synchronous={summary.synchronous} freshness={summary.freshness}; "
                         f"impulses/year={summary.impulses_per_year:.3f}")
        return "\n".join(lines)
