"""Command line entry point: staged runs, corpus synthesis, verification."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from teammine.errors import ConfigError, TeammineError
from teammine.pipeline import STAGES, Pipeline, PipelineConfig, sources
from teammine.presets import PRESETS
from teammine.synthgen import GroundTruth, fig_s1_corpus, generate_corpus, verify_against_truth

# the values verify compares against the ground truth
_VERIFY_READS = ("teams", "relations", "tags")


def _build_config(args) -> PipelineConfig:
    if args.config:
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig()
    for item in args.set or ():
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, value = item.partition("=")
        config.set_option(key.strip(), value.strip())
    if getattr(args, "pubs", None):
        config.pubs_path = args.pubs
    if getattr(args, "citations", None):
        config.citations_path = args.citations
    if getattr(args, "out", None):
        config.out_dir = args.out
    return config


_CONFIG_KEY_HELP = """\
configuration keys (file lines `key = value`, or --set key=value):
  key                 default             meaning
  pubs_path           publications.jsonl  input publications
  citations_path      citations.csv       input citations
  out_dir             out                 artifact directory
  year_min, year_max  2008, 2020          data window (inclusive)
  window_len          5                   persistence window, calendar years
  min_pubs            3                   joint publications required per window
  min_size            2                   smallest team size
  citation_window     calendar_inclusive  [Y,Y+2]; calendar_after = [Y+1,Y+3]
  author_cap          0                   skip pair generation above this many
                                          authors (0 = no cap)
  margin_years        4                   drop teams touching the window edges
                                          from figure tables
"""


def _add_config_options(parser: argparse.ArgumentParser):
    parser.epilog = _CONFIG_KEY_HELP
    parser.formatter_class = argparse.RawDescriptionHelpFormatter
    parser.add_argument("--config", help="flat key = value configuration file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE",
                        help="override one configuration key (repeatable)")
    parser.add_argument("--pubs", help="publications file (JSON lines)")
    parser.add_argument("--citations", help="citations file (CSV)")
    parser.add_argument("--out", help="artifact directory")


def _cmd_stage(args) -> int:
    pipeline = Pipeline(_build_config(args))
    status = pipeline.run(args.stage)
    for stage, state in status.items():
        counts = pipeline.manifest.get(stage, {}).get("counts", {})
        summary = " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
        print(f"{stage}: {state}" + (f"  [{summary}]" if summary else ""))
    return 0


def _cmd_synth(args) -> int:
    out = Path(args.out)
    if args.preset == "fig_s1":
        if args.seed is not None:
            raise ConfigError("preset fig_s1 is a fixed corpus and takes no --seed")
        truth = fig_s1_corpus(out)
    else:
        builder = PRESETS[args.preset]
        config = builder(seed=args.seed) if args.seed is not None else builder()
        truth = generate_corpus(config, out)
    print(f"wrote {out}/publications.jsonl ({truth.n_publications} publications, "
          f"{truth.n_authors} authors, {len(truth.teams)} planted teams)")
    return 0


def _cmd_verify(args) -> int:
    out = Path(args.out)
    try:
        truth = GroundTruth.from_json(args.truth)
    except FileNotFoundError:
        raise TeammineError(f"truth file {args.truth} not found; write it with "
                            f"'teammine synth'") from None
    except (ValueError, KeyError, TypeError, AttributeError):  # not a truth object
        raise TeammineError(f"truth file {args.truth} is not a truth.json written "
                            f"by 'teammine synth'") from None
    pipeline = Pipeline(PipelineConfig(out_dir=args.out))
    pipeline.check_outputs("verify", sources(_VERIFY_READS))
    report = verify_against_truth(*map(pipeline._load, _VERIFY_READS), truth)
    payload = report.to_dict()
    with open(out / "verify_report.json", "w", encoding="utf-8", newline="") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")
    print(json.dumps(payload, sort_keys=True, indent=1))
    return 0


def _cmd_explain(args) -> int:
    pipeline = Pipeline(_build_config(args))
    print(pipeline.explain_team(args.team_id))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teammine",
        description="Mine persistent co-authorship teams and their success statistics.")
    sub = parser.add_subparsers(dest="command", required=True)

    for stage in STAGES + ("all",):
        stage_parser = sub.add_parser(stage, help=f"run the {stage} stage"
                                      if stage != "all" else "run every stage in order")
        _add_config_options(stage_parser)
        stage_parser.set_defaults(func=_cmd_stage, stage=stage)

    synth = sub.add_parser("synth", help="generate a synthetic corpus with ground truth")
    synth.add_argument("--preset", choices=sorted(PRESETS), required=True)
    synth.add_argument("--out", required=True)
    synth.add_argument("--seed", type=int, default=None)
    synth.set_defaults(func=_cmd_synth)

    verify = sub.add_parser("verify", help="compare pipeline output against ground truth")
    verify.add_argument("--out", required=True, help="artifact directory of a finished run")
    verify.add_argument("--truth", required=True, help="truth.json from the generator")
    verify.set_defaults(func=_cmd_verify)

    explain = sub.add_parser("explain", help="print everything known about one team")
    _add_config_options(explain)
    explain.add_argument("--team-id", type=int, required=True)
    explain.set_defaults(func=_cmd_explain)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (TeammineError, OSError) as exc:  # OSError: an unreadable or unwritable path
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
