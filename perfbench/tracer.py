"""In-memory span tracer and the per-layer metrics computed from its spans.

The tracer rebinds, in the ``teammine.pipeline`` namespace, every teammine
function the pipeline calls, the eight stage bodies, ``Pipeline.run`` and
``SeriesTable.to_csv``; in the ``teammine.synthgen`` namespace it rebinds the
generator's public entry points. Nothing under ``src/`` changes. Each call
becomes a span (name, start, end, parent, run id) kept in memory and written
as JSON when the traced block exits. Run as a script it executes one
``teammine`` command under the tracer:

    PYTHONPATH=src python3 perfbench/tracer.py --spans SPANS.json -- all --pubs ...
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import types
from pathlib import Path

# module -> functions that each get a `<module>.<function>_s` metric
_MODULE_FUNCS = {
    "synthgen": ("generate_corpus", "derive_truth_overlaps", "validate_config"),
    "ingest": ("load_publications", "load_citations", "corpus_stats"),
    "success": ("compute_tags",),
    "pairs": ("build_pair_timelines",),
    "persistence": ("build_persistent_network",),
    "cliques": ("enumerate_maximal_cliques",),
    "teams": ("assemble_teams", "associate_all", "compute_all_metrics"),
    "overlaps": ("classify_all", "summarize_all"),
    "analytics": ("compute_all_figures", "filter_margin"),
}
STAGES = ("ingest", "tag", "network", "persist", "mine", "teams", "overlaps", "stats")

# per-layer metric -> unit, in report order
PER_LAYER = {}
for _module, _funcs in _MODULE_FUNCS.items():
    for _func in _funcs:
        PER_LAYER[f"{_module}.{_func}_s"] = "s"
    if _module == "ingest":
        PER_LAYER["ingest.write_s"] = "s"
    elif _module != "synthgen":
        PER_LAYER[f"{_module}.io_s"] = "s"
for _stage in STAGES:
    PER_LAYER[f"pipeline.stage.{_stage}_s"] = "s"
PER_LAYER.update({
    "pipeline.self_s": "s",
    "pipeline.stages_ran": "count",
    "pipeline.stages_cached": "count",
    "ingest.records_in": "count",
    "ingest.rejects": "count",
    "ingest.records_per_s": "1/s",
    "success.tagged_top10": "count",
    "pairs.pairs_out": "count",
    "persistence.persistent_pairs": "count",
    "persistence.yield": "ratio",
    "cliques.cliques_out": "count",
    "teams.team_pubs": "count",
    "overlaps.relations": "count",
    "trace.overhead_s": "s",
})

# count metric -> (manifest stage, counts key)
_MANIFEST_COUNTS = {
    "ingest.rejects": ("ingest", "rejects"),
    "success.tagged_top10": ("tag", "tagged_top10"),
    "pairs.pairs_out": ("network", "pairs"),
    "persistence.persistent_pairs": ("persist", "persistent_pairs"),
    "cliques.cliques_out": ("mine", "cliques"),
    "teams.team_pubs": ("teams", "team_publications"),
    "overlaps.relations": ("overlaps", "relations"),
}


class Tracer:
    """Records spans of rebound calls; restores the originals and writes the
    spans to ``path`` when the ``with`` block exits."""

    def __init__(self, run_id: str, path: Path):
        self.run_id = run_id
        self.path = Path(path)
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, name: str, count=None):
        """Rebind ``owner.attr`` so each call records a span called ``name``;
        ``count(result)`` adds a record count to the span. A missing
        attribute is listed in ``missing`` and its metrics read 0."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return

        def traced(*args, **kwargs):
            span = {"name": name, "start": time.perf_counter(), "end": None,
                    "parent": self._stack[-1] if self._stack else None,
                    "run": self.run_id}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                span["n"] = count(result)
            return result

        setattr(owner, attr, traced)
        self._originals.append((owner, attr, original))

    def install_synthgen(self):
        from teammine import synthgen
        for func in _MODULE_FUNCS["synthgen"]:
            self.wrap(synthgen, func, f"synthgen.{func}")

    def install_pipeline(self):
        from teammine import analytics, pipeline
        for attr, value in list(vars(pipeline).items()):
            if (isinstance(value, types.FunctionType)
                    and value.__module__.startswith("teammine.")
                    and value.__module__ != pipeline.__name__):
                count = None
                if attr == "load_publications":
                    count = lambda table: len(table) + len(table.rejects)  # noqa: E731
                self.wrap(pipeline, attr,
                          f"{value.__module__.rsplit('.', 1)[1]}.{value.__name__}", count)
        self.wrap(pipeline.Pipeline, "run", "pipeline.run")
        for stage in STAGES:
            self.wrap(pipeline.Pipeline, f"_stage_{stage}", f"pipeline.stage.{stage}")
        self.wrap(analytics.SeriesTable, "to_csv", "analytics.SeriesTable.to_csv")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)
        return False


def self_time(span: dict, children: list[dict]) -> float:
    """The span's duration minus the union of its children's intervals, so
    overlapping children are counted once."""
    covered = 0.0
    reach = span["start"]
    for start, end in sorted((c["start"], c["end"]) for c in children):
        start, end = max(start, reach), min(end, span["end"])
        if end > start:
            covered += end - start
            reach = end
    return span["end"] - span["start"] - covered


def _is_io(name: str) -> bool:
    func = name.rsplit(".", 1)[1]
    return func.startswith(("read_", "write_")) or func == "to_csv"


def layer_metrics(setup_spans: list[dict], run_spans: list[dict],
                  manifest: dict, stage_states: dict[str, str]) -> dict[str, float]:
    """Per-layer metrics of one traced command, without ``trace.overhead_s``.

    ``setup_spans`` come from the traced generator, ``run_spans`` from the
    traced ``teammine`` command, ``manifest`` is its out dir's manifest and
    ``stage_states`` maps each stage to the 'ran' or 'cached' it printed.
    """
    def total(spans, predicate) -> float:
        return sum(s["end"] - s["start"] for s in spans if predicate(s["name"]))

    metrics: dict[str, float] = {}
    for module, funcs in _MODULE_FUNCS.items():
        spans = setup_spans if module == "synthgen" else run_spans
        for func in funcs:
            metrics[f"{module}.{func}_s"] = total(spans, f"{module}.{func}".__eq__)
        if module == "ingest":
            metrics["ingest.write_s"] = total(run_spans, lambda n: n.startswith("ingest.write_"))
        elif module != "synthgen":
            metrics[f"{module}.io_s"] = total(
                run_spans, lambda n, m=module: n.startswith(m + ".") and _is_io(n))
    for stage in STAGES:
        metrics[f"pipeline.stage.{stage}_s"] = total(
            run_spans, f"pipeline.stage.{stage}".__eq__)
    metrics["pipeline.self_s"] = sum(
        self_time(span, [c for c in run_spans if c["parent"] == index])
        for index, span in enumerate(run_spans) if span["name"] == "pipeline.run")
    metrics["pipeline.stages_ran"] = sum(1 for s in stage_states.values() if s == "ran")
    metrics["pipeline.stages_cached"] = sum(1 for s in stage_states.values() if s == "cached")

    def count(stage, key):
        return manifest.get(stage, {}).get("counts", {}).get(key, 0)

    for metric, (stage, key) in _MANIFEST_COUNTS.items():
        metrics[metric] = count(stage, key)
    metrics["ingest.records_in"] = count("ingest", "publications") + count("ingest", "rejects")
    loads = [s for s in run_spans if s["name"] == "ingest.load_publications"]
    load_s = sum(s["end"] - s["start"] for s in loads)
    metrics["ingest.records_per_s"] = sum(s.get("n", 0) for s in loads) / load_s if load_s else 0.0
    pairs = metrics["pairs.pairs_out"]
    metrics["persistence.yield"] = metrics["persistence.persistent_pairs"] / pairs if pairs else 0.0
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="run one teammine command traced")
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("command", nargs=argparse.REMAINDER,
                        help="teammine arguments, after --")
    args = parser.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command
    from teammine import cli
    with Tracer("run", args.spans) as tracer:
        tracer.install_pipeline()
        if tracer.missing:
            print(f"tracer: not found, reads 0: {', '.join(tracer.missing)}", file=sys.stderr)
        return cli.main(command)


if __name__ == "__main__":
    raise SystemExit(main())
