"""Staged pipeline with cached, digest-checked intermediates.

Each stage reads its predecessor's artifacts, writes its own, and records a
manifest entry holding the digests of everything it consumed and produced.
A stage is skipped when its inputs, configuration, and outputs all match the
manifest; a prerequisite whose artifact changed on disk is refused with an
instruction to rerun it. All artifacts are plain text (JSONL / CSV) and byte
deterministic for fixed inputs and configuration.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, fields as dataclass_fields
from pathlib import Path

from teammine.analytics import compute_all_figures, filter_margin
from teammine.cliques import (CliqueParams, enumerate_maximal_cliques,
                              read_cliques_csv, write_cliques_csv)
from teammine.errors import (ConfigError, MissingArtifactError, StaleCacheError,
                             TeammineError, UnknownTeamError)
from teammine.ingest import (IngestConfig, corpus_stats, load_citations,
                             load_publications, write_citations_csv,
                             write_corpus_stats_csv, write_publications_jsonl,
                             write_rejects_csv)
from teammine.overlaps import (classify_all, read_impulses_csv, read_overlaps_csv,
                               summarize_all, write_impulses_csv, write_overlaps_csv)
from teammine.pairs import (build_pair_timelines, canonical_pair,
                            read_pair_timelines_csv, write_pair_timelines_csv)
from teammine.persistence import (PersistenceParams, build_persistent_network,
                                  read_persistent_edges_csv,
                                  write_persistent_edges_csv)
from teammine.success import (compute_tags, read_success_tags_csv,
                              write_success_tags_csv, write_thresholds_csv)
from teammine.teams import (assemble_teams, associate_all, compute_all_metrics,
                            read_teams_csv, write_team_pubs_csv, write_teams_csv)

STAGES = ("ingest", "tag", "network", "persist", "mine", "teams", "overlaps", "stats")

_PREREQS = {
    "ingest": (),
    "tag": ("ingest",),
    "network": ("ingest",),
    "persist": ("network",),
    "mine": ("persist",),
    "teams": ("mine", "ingest", "tag"),
    "overlaps": ("teams", "ingest", "tag"),
    "stats": ("ingest", "tag", "teams", "overlaps"),
}

_STAGE_CONFIG_KEYS = {
    "ingest": ("year_min", "year_max"),
    "tag": ("citation_window",),
    "network": ("author_cap",),
    "persist": ("window_len", "min_pubs"),
    "mine": ("delta", "gamma", "min_size"),
    "teams": (),
    "overlaps": (),
    "stats": ("margin_years", "year_min", "year_max"),
}

FIGURE_STEMS = ("fig1a", "fig1b", "fig2a", "fig2a_top10", "fig2b", "fig2b_top10",
                "fig3", "fig3_top10", "fig5a", "fig5a_top10", "fig5b", "fig5b_top10",
                "fig5c", "fig5c_top10", "fig5d", "fig5d_top10", "figs2add")


@dataclass
class PipelineConfig:
    pubs_path: str = "publications.jsonl"
    citations_path: str = "citations.csv"
    out_dir: str = "out"
    year_min: int = 2008
    year_max: int = 2020
    window_len: int = 5
    min_pubs: int = 3
    delta: int = 1
    gamma: int = 1
    min_size: int = 2
    citation_window: str = "calendar_inclusive"
    author_cap: int = 0        # 0 = no cap
    margin_years: int = 4

    _INT_KEYS = ("year_min", "year_max", "window_len", "min_pubs", "delta", "gamma",
                 "min_size", "author_cap", "margin_years")

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        config = cls()
        with open(path, "r", encoding="utf-8") as fh:
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{line_no}: expected key = value")
                key, _, value = line.partition("=")
                config.set_option(key.strip(), value.strip())
        return config

    def set_option(self, key: str, value: str):
        names = {f.name for f in dataclass_fields(self)}
        if key not in names:
            raise ConfigError(f"unknown configuration key {key!r}")
        if key in self._INT_KEYS:
            try:
                setattr(self, key, int(value))
            except ValueError:
                raise ConfigError(f"configuration key {key!r} expects an integer, "
                                  f"got {value!r}") from None
        else:
            setattr(self, key, value)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


class Pipeline:
    """Owns the artifact directory, the manifest, and in-memory caches."""

    def __init__(self, config: PipelineConfig):
        self.config = config
        self.out_dir = Path(config.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.manifest_path = self.out_dir / "manifest.json"
        self.manifest: dict = {}
        if self.manifest_path.exists():
            with open(self.manifest_path, "r", encoding="utf-8") as fh:
                try:
                    self.manifest = json.load(fh)
                except ValueError:  # truncated or not UTF-8
                    raise TeammineError(f"manifest {self.manifest_path} is corrupt; "
                                        f"delete it and rerun") from None
        self._mem: dict[str, object] = {}

    # --- manifest plumbing ---

    def _save_manifest(self):
        with open(self.manifest_path, "w", encoding="utf-8", newline="") as fh:
            json.dump(self.manifest, fh, sort_keys=True, indent=1)
            fh.write("\n")

    def _config_digest(self, stage: str) -> str:
        pairs = [f"{key}={getattr(self.config, key)}" for key in _STAGE_CONFIG_KEYS[stage]]
        return hashlib.sha256("\n".join(pairs).encode()).hexdigest()

    def _artifact(self, name: str) -> Path:
        return self.out_dir / name

    def _stage_inputs(self, stage: str) -> dict[str, Path]:
        art = self._artifact
        table = {
            "ingest": {"pubs_input": Path(self.config.pubs_path),
                       "citations_input": Path(self.config.citations_path)},
            "tag": {"canonical_publications.jsonl": art("canonical_publications.jsonl"),
                    "canonical_citations.csv": art("canonical_citations.csv")},
            "network": {"canonical_publications.jsonl": art("canonical_publications.jsonl")},
            "persist": {"pair_timelines.csv": art("pair_timelines.csv")},
            "mine": {"persistent_edges.csv": art("persistent_edges.csv")},
            "teams": {"cliques.csv": art("cliques.csv"),
                      "canonical_publications.jsonl": art("canonical_publications.jsonl"),
                      "success_tags.csv": art("success_tags.csv")},
            "overlaps": {"teams.csv": art("teams.csv"),
                         "team_pubs.csv": art("team_pubs.csv"),
                         "canonical_publications.jsonl": art("canonical_publications.jsonl"),
                         "success_tags.csv": art("success_tags.csv")},
            "stats": {"canonical_publications.jsonl": art("canonical_publications.jsonl"),
                      "success_tags.csv": art("success_tags.csv"),
                      "teams.csv": art("teams.csv"),
                      "team_pubs.csv": art("team_pubs.csv"),
                      "overlaps.csv": art("overlaps.csv"),
                      "impulses.csv": art("impulses.csv")},
        }
        return table[stage]

    def _check_prereq(self, stage: str):
        for prereq in _PREREQS[stage]:
            entry = self.manifest.get(prereq)
            if entry is None:
                raise MissingArtifactError(
                    f"stage '{stage}' needs stage '{prereq}'; run '{prereq}' first")
            for name, digest in entry["outputs"].items():
                path = self._artifact(name)
                if not path.exists():
                    raise MissingArtifactError(
                        f"artifact {name} from stage '{prereq}' is missing; "
                        f"rerun '{prereq}'")
                if _sha256(path) != digest:
                    raise StaleCacheError(
                        f"artifact {name} no longer matches what stage '{prereq}' "
                        f"produced; rerun '{prereq}'")

    # --- running ---

    def run(self, stage: str) -> dict[str, str]:
        """Run one stage or 'all'; returns stage -> 'ran' | 'cached'."""
        if stage == "all":
            stages = STAGES
        elif stage in STAGES:
            self._check_prereq(stage)
            stages = (stage,)
        else:
            raise ConfigError(f"unknown stage {stage!r}")
        status = {}
        for name in stages:
            status[name] = self._run_stage(name)
        return status

    def _run_stage(self, stage: str) -> str:
        inputs = self._stage_inputs(stage)
        for name, path in inputs.items():
            if not path.exists():
                hint = ("" if stage == "ingest"
                        else "; rerun the stage that produces it")
                raise MissingArtifactError(f"stage '{stage}' input {path} is missing{hint}")
        input_digests = {name: _sha256(path) for name, path in sorted(inputs.items())}
        config_digest = self._config_digest(stage)
        entry = self.manifest.get(stage)
        if (entry is not None
                and entry["config"] == config_digest
                and entry["inputs"] == input_digests
                and all(self._artifact(name).exists() and _sha256(self._artifact(name)) == digest
                        for name, digest in entry["outputs"].items())):
            return "cached"
        counts = getattr(self, f"_stage_{stage}")()
        outputs = {name: _sha256(self._artifact(name))
                   for name in sorted(self._stage_outputs(stage))}
        self.manifest[stage] = {
            "config": config_digest,
            "inputs": input_digests,
            "outputs": outputs,
            "counts": counts,
        }
        self._save_manifest()
        return "ran"

    def _stage_outputs(self, stage: str) -> tuple[str, ...]:
        if stage == "stats":
            return tuple(f"{stem}.csv" for stem in FIGURE_STEMS) + ("table_s1.csv",)
        return {
            "ingest": ("canonical_publications.jsonl", "canonical_citations.csv",
                       "rejects.csv", "citation_drops.csv"),
            "tag": ("success_tags.csv", "thresholds.csv"),
            "network": ("pair_timelines.csv",),
            "persist": ("persistent_edges.csv",),
            "mine": ("cliques.csv",),
            "teams": ("teams.csv", "team_pubs.csv"),
            "overlaps": ("overlaps.csv", "impulses.csv", "overlap_anomalies.csv"),
        }[stage]

    # --- lazy artifact loading ---

    def _ingest_config(self) -> IngestConfig:
        return IngestConfig(year_min=self.config.year_min, year_max=self.config.year_max)

    def _pubs(self):
        if "pubs" not in self._mem:
            self._mem["pubs"] = load_publications(
                self._artifact("canonical_publications.jsonl"), self._ingest_config())
        return self._mem["pubs"]

    def _citations(self):
        if "citations" not in self._mem:
            self._mem["citations"] = load_citations(
                self._artifact("canonical_citations.csv"), self._pubs())
        return self._mem["citations"]

    def _tags(self):
        if "tags" not in self._mem:
            self._mem["tags"] = read_success_tags_csv(self._artifact("success_tags.csv"))
        return self._mem["tags"]

    def _timelines(self):
        if "timelines" not in self._mem:
            self._mem["timelines"] = read_pair_timelines_csv(self._artifact("pair_timelines.csv"))
        return self._mem["timelines"]

    def _network(self):
        if "network" not in self._mem:
            self._mem["network"] = read_persistent_edges_csv(self._artifact("persistent_edges.csv"))
        return self._mem["network"]

    def _cliques(self):
        if "cliques" not in self._mem:
            self._mem["cliques"] = read_cliques_csv(self._artifact("cliques.csv"))
        return self._mem["cliques"]

    def _teams(self):
        if "teams" not in self._mem:
            self._mem["teams"] = read_teams_csv(self._artifact("teams.csv"),
                                                self._artifact("team_pubs.csv"))
        return self._mem["teams"]

    def _relations(self):
        if "relations" not in self._mem:
            self._mem["relations"] = read_overlaps_csv(self._artifact("overlaps.csv"))
        return self._mem["relations"]

    def _summaries(self):
        if "summaries" not in self._mem:
            self._mem["summaries"] = read_impulses_csv(self._artifact("impulses.csv"))
        return self._mem["summaries"]

    # --- stage bodies ---

    def _stage_ingest(self) -> dict:
        pubs = load_publications(self.config.pubs_path, self._ingest_config())
        citations = load_citations(self.config.citations_path, pubs)
        write_publications_jsonl(pubs, self._artifact("canonical_publications.jsonl"))
        write_citations_csv(citations, self._artifact("canonical_citations.csv"))
        write_rejects_csv(pubs.rejects, self._artifact("rejects.csv"))
        with open(self._artifact("citation_drops.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["reason", "count"])
            for reason in sorted(citations.drop_counts):
                writer.writerow([reason, citations.drop_counts[reason]])
        self._mem["pubs"] = pubs
        self._mem["citations"] = citations
        counts = {"publications": len(pubs), "rejects": len(pubs.rejects),
                  "citations": len(citations)}
        for reason, count in sorted(citations.drop_counts.items()):
            counts[f"drop_{reason}"] = count
        return counts

    def _stage_tag(self) -> dict:
        tags, thresholds = compute_tags(self._pubs(), self._citations(),
                                        mode=self.config.citation_window)
        write_success_tags_csv(tags, self._artifact("success_tags.csv"))
        write_thresholds_csv(thresholds, self._artifact("thresholds.csv"))
        self._mem["tags"] = tags
        top10 = sum(1 for t in tags if t.top10)
        top1 = sum(1 for t in tags if t.top1)
        return {"tagged_top10": top10, "tagged_top1": top1, "cells": len(thresholds) // 2}

    def _stage_network(self) -> dict:
        cap = self.config.author_cap if self.config.author_cap > 0 else None
        timelines = build_pair_timelines(self._pubs(), author_cap=cap)
        write_pair_timelines_csv(timelines, self._artifact("pair_timelines.csv"))
        self._mem["timelines"] = timelines
        return {"pairs": len(timelines)}

    def _stage_persist(self) -> dict:
        params = PersistenceParams(window_len=self.config.window_len,
                                   min_pubs=self.config.min_pubs)
        network = build_persistent_network(self._timelines(), params)
        write_persistent_edges_csv(network, self._artifact("persistent_edges.csv"))
        self._mem["network"] = network
        return {"persistent_pairs": len(network)}

    def _stage_mine(self) -> dict:
        params = CliqueParams(delta=self.config.delta, gamma=self.config.gamma,
                              min_size=self.config.min_size)
        cliques = enumerate_maximal_cliques(self._network(), params)
        write_cliques_csv(cliques, self._artifact("cliques.csv"))
        self._mem["cliques"] = cliques
        return {"cliques": len(cliques)}

    def _stage_teams(self) -> dict:
        teams = assemble_teams(self._cliques())
        associate_all(teams, self._pubs())
        compute_all_metrics(teams, self._pubs())
        write_teams_csv(teams, self._tags(), self._artifact("teams.csv"))
        write_team_pubs_csv(teams, self._artifact("team_pubs.csv"))
        self._mem["teams"] = teams
        return {"teams": len(teams),
                "team_publications": sum(len(t.pubs) for t in teams)}

    def _stage_overlaps(self) -> dict:
        teams = self._teams()
        relations, anomalies = classify_all(teams)
        summaries = summarize_all(teams, relations, self._pubs(), self._tags())
        write_overlaps_csv(relations, self._artifact("overlaps.csv"))
        write_impulses_csv(summaries, self._artifact("impulses.csv"))
        with open(self._artifact("overlap_anomalies.csv"), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["lemma", "count"])
            for lemma in sorted(anomalies):
                writer.writerow([lemma, anomalies[lemma]])
        self._mem["relations"] = relations
        self._mem["summaries"] = summaries
        counts = {"relations": len(relations),
                  "anomalies": sum(anomalies.values())}
        return counts

    def _stage_stats(self) -> dict:
        teams = filter_margin(list(self._teams()), self.config.year_min,
                              self.config.year_max, self.config.margin_years)
        figures = compute_all_figures(self._pubs(), self._tags(), teams,
                                      self._summaries(), self.config.year_min,
                                      self.config.year_max)
        for stem in FIGURE_STEMS:
            figures[stem].to_csv(self._artifact(f"{stem}.csv"))
        stats = corpus_stats(self._pubs(), self._tags())
        write_corpus_stats_csv(stats, self._artifact("table_s1.csv"))
        return {"figure_tables": len(FIGURE_STEMS),
                "teams_after_margin": len(teams)}

    # --- debugging aid ---

    def explain_team(self, team_id: int) -> str:
        teams = self._teams()
        team = teams.get(team_id)
        if team is None:
            raise UnknownTeamError(f"no team with id {team_id}")
        pubs = self._pubs()
        tags = self._tags()
        timelines = self._timelines()
        network = self._network()
        lines = [f"team {team.team_id}: {', '.join(team.members)}"]
        lines.append("  intervals: " + "; ".join(f"[{s},{e}]" for s, e in team.intervals))
        lines.append(f"  duration: [{team.duration_start},{team.duration_end}] "
                     f"({team.duration} years)")
        lines.append("  pair persistence:")
        members = team.members
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                pair = canonical_pair(members[i], members[j])
                periods = "; ".join(f"[{s},{e}]" for s, e in network.get(pair, []))
                years = ", ".join(str(y) for y in timelines.get(pair, []))
                lines.append(f"    {pair[0]}--{pair[1]}: periods {periods or 'none'}; "
                             f"co-publication years: {years or 'none'}")
        lines.append(f"  publications ({len(team.pubs)}):")
        for pub_id in team.pubs:
            rec = pubs.get(pub_id)
            tag = tags.get(pub_id)
            mark = ""
            if tag is not None and tag.top10:
                mark += " top10"
            if tag is not None and tag.top1:
                mark += " top1"
            lines.append(f"    year {rec.year}  {pub_id}{mark}")
        if team.metrics is not None:
            m = team.metrics
            lines.append(f"  composition: orgs/member={m.orgs_per_member:.3f} "
                         f"cities/member={m.cities_per_member:.3f} "
                         f"countries/member={m.countries_per_member:.3f} "
                         f"city-distance/member={m.mean_city_distance_km:.1f} km")
        relations = [rel for rel in self._relations() if rel.focal_team_id == team_id]
        lines.append(f"  overlap relations ({len(relations)}):")
        for rel in relations:
            other = teams.get(rel.other_team_id)
            lines.append(f"    other team {rel.other_team_id} "
                         f"{{{', '.join(other.members)}}} kind={rel.kind.value} "
                         f"timing={rel.timing.value} impulse={rel.impulse.value}")
        summary = self._summaries().get(team_id)
        if summary is not None:
            lines.append(f"  impulses: persistence={summary.persistence} "
                         f"(top10={summary.persistence_top10} top1={summary.persistence_top1} "
                         f"early_top10={summary.persistence_early_top10} "
                         f"early_top1={summary.persistence_early_top1}) "
                         f"synchronous={summary.synchronous} freshness={summary.freshness}; "
                         f"impulses/year={summary.impulses_per_year:.3f}")
        return "\n".join(lines)
