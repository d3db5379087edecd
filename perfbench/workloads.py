"""Benchmark workloads: seeded synthetic corpora and the command each one times.

Every corpus comes from ``teammine.synthgen`` and is fully determined by the
workload seed, which flows only into the generator configuration. Run as a
script, this module writes one workload's corpus (publications.jsonl,
citations.csv, truth.json) into a directory; with ``--spans`` the generator
runs under the benchmark's tracer:

    PYTHONPATH=src python3 perfbench/workloads.py --workload bulk --seed 1 --dir DIR
"""

from __future__ import annotations

import argparse
import random
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

from teammine import synthgen
from teammine.presets import scale_config
from teammine.synthgen import PlantedTeam, SynthConfig

import tracer

BULK_FRACTION = 0.05


def bulk_config(seed: int, fraction: float = BULK_FRACTION) -> SynthConfig:
    """The ``scale`` preset with its team and background sizes scaled down."""
    return scale_config(seed=seed,
                        n_teams=round(60_000 * fraction),
                        background_pubs=round(625_000 * fraction),
                        n_background_authors=round(120_000 * fraction))


def dense_config(seed: int, n_teams: int = 500, background_pubs: int = 3000,
                 n_background_authors: int = 4000) -> SynthConfig:
    """Large disjoint teams plus hyper-authored background publications.

    Team sizes cycle 6..10 and durations 3..6 years; every fourth team has a
    three-member core that starts two years earlier and ends one year later.
    Background publications have up to 40 authors from a pool disjoint from
    the teams, so clique expansion and pair generation dominate the run.
    """
    rng = random.Random(seed * 7_368_787)
    year_min, year_max = 1, 13
    teams = []
    for i in range(n_teams):
        size = 6 + i % 5
        duration = 3 + (i // 5) % 4
        start = rng.randrange(3, year_max - duration + 1)
        end = start + duration - 1
        members = tuple(f"d{i}m{j}" for j in range(size))
        teams.append(PlantedTeam(members=members, intervals=((start, end),)))
        if i % 4 == 0:
            teams.append(PlantedTeam(members=members[:3],
                                     intervals=((start - 2, end + 1),)))
    return SynthConfig(
        seed=seed,
        year_min=year_min,
        year_max=year_max,
        teams=tuple(teams),
        n_background_authors=n_background_authors,
        background_pubs=background_pubs,
        background_max_authors=40,
        success_hazard=0.05,
        success_q="0.10",
    )


@dataclass(frozen=True)
class Workload:
    """One corpus recipe plus how the measured ``teammine all`` is run on it.

    ``prime_margin`` None means every repetition is a cold ``all`` into a
    fresh out dir. Otherwise set-up primes one out dir with a cold ``all`` at
    that margin and every repetition reruns ``all`` there, cycling
    ``margins`` so the stats stage always has a changed configuration.
    """
    name: str
    why: str
    config: Callable[[int], SynthConfig] | None   # None: the fixed fig_s1 corpus
    margins: tuple[int, ...] = (0,)
    prime_margin: int | None = None


WORKLOADS = {
    "bulk": Workload(
        "bulk",
        "scale preset at fraction 0.05, cold all: the ROADMAP end-to-end corpus, "
        "where ingest dominates the run and ground truth dominates set-up",
        bulk_config),
    "dense": Workload(
        "dense",
        "500 teams of 6-10 members and background papers of up to 40 authors, "
        "cold all: clique mining and pair expansion dominate",
        dense_config),
    "restage": Workload(
        "restage",
        "bulk corpus primed at margin_years=0, then all at margin_years 1 and 2: "
        "seven stages hit the cache and stats reruns from disk",
        bulk_config, margins=(1, 2), prime_margin=0),
    # tiny fixed corpus for the benchmark's self-test; not in BENCHMARK.json
    "tiny": Workload("tiny", "fig_s1 worked example, for the self-test", None),
}


def generate(workload: Workload, seed: int, out_dir: Path) -> synthgen.GroundTruth:
    """Write the workload's corpus and ground truth under out_dir."""
    if workload.config is None:
        return synthgen.fig_s1_corpus(out_dir)
    return synthgen.generate_corpus(workload.config(seed), out_dir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--spans", type=Path,
                        help="trace the generator and write its spans here")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if args.spans is None:
        generate(workload, args.seed, args.dir)
        return 0
    with tracer.Tracer("setup", args.spans) as trace:
        trace.install_synthgen()
        generate(workload, args.seed, args.dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
