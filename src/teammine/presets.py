"""Ready-made synthetic corpus configurations.

Each builder returns a SynthConfig whose planted structure passes the
generator's feasibility rules by construction; they are the corpora the test
suite and the ``synth`` CLI subcommand lean on.
"""

from __future__ import annotations

import random

from teammine.synthgen import PlantedTeam, SynthConfig


def random_planted_config(seed: int = 7, n_teams: int = 100,
                          background_pubs: int = 500,
                          n_background_authors: int = 200) -> SynthConfig:
    """Disjoint-member teams of sizes 2..6 and durations 1..8 over a 13-year
    window, with light sub-persistent background noise; each team year plants
    a top-10% success with probability 0.1."""
    rng = random.Random(seed * 1_000_003)
    year_min, year_max = 1, 13
    teams = []
    for i in range(n_teams):
        size = 2 + i % 5
        duration = 1 + i % 8
        start = rng.randrange(year_min, year_max - duration + 2)
        members = tuple(f"t{i}m{j}" for j in range(size))
        pubs_per_year = {1: 3, 2: 2}.get(duration, 1)
        teams.append(PlantedTeam(members=members,
                                 intervals=((start, start + duration - 1),),
                                 pubs_per_year=pubs_per_year))
    return SynthConfig(
        seed=seed,
        year_min=year_min,
        year_max=year_max,
        teams=tuple(teams),
        n_background_authors=n_background_authors,
        background_pubs=background_pubs,
        success_hazard=0.1,
    )


def wired_overlap_config(seed: int = 11, n_groups: int = 8,
                         background_pubs: int = 200,
                         n_background_authors: int = 100) -> SynthConfig:
    """Overlap wiring exercising every feasible taxonomy cell.

    Each group plants one pattern; author pools are disjoint across groups so
    relations stay inside their group.

    * preceding core + focal (persistence / reverse freshness extension)
    * simultaneous core + focal (no impulse / reverse synchronous extension)
    * succeeding extension + focal (freshness / reverse preceding core)
    * simultaneous offshoots without shared core (synchronous both ways)
    * preceding offshoot without shared core (persistence / reverse freshness)
    * preceding offshoot with shared core (no impulse) plus its core
    * plus one closed team per group as a baseline
    """
    rng = random.Random(seed * 911)
    year_min, year_max = 1, 16
    teams = []
    for g in range(n_groups):
        p = f"g{g}"
        s = rng.randrange(4, 8)  # room for preceding cores and core spans

        # preceding core under a three-member focal team
        teams.append(PlantedTeam((f"{p}ca", f"{p}cb"), ((s - 2, s + 6),)))
        teams.append(PlantedTeam((f"{p}ca", f"{p}cb", f"{p}cc"), ((s, s + 3),)))

        # simultaneous core under a three-member focal team
        teams.append(PlantedTeam((f"{p}sa", f"{p}sb"), ((s, s + 7),)))
        teams.append(PlantedTeam((f"{p}sa", f"{p}sb", f"{p}sc"), ((s, s + 3),)))

        # succeeding extension over a three-member focal team
        teams.append(PlantedTeam((f"{p}ea", f"{p}eb", f"{p}ec"), ((s, s + 3),)))
        teams.append(PlantedTeam((f"{p}ea", f"{p}eb", f"{p}ec", f"{p}ed"),
                                 ((s + 1, s + 2),), pubs_per_year=2))

        # simultaneous offshoots: four-member teams sharing two members
        teams.append(PlantedTeam((f"{p}oa", f"{p}ob", f"{p}oc", f"{p}od"),
                                 ((s, s + 3),)))
        teams.append(PlantedTeam((f"{p}oa", f"{p}ob", f"{p}oe", f"{p}of"),
                                 ((s, s + 2),)))

        # preceding offshoot without a shared core
        teams.append(PlantedTeam((f"{p}pa", f"{p}pb", f"{p}pc", f"{p}pd"),
                                 ((s, s + 3),)))
        teams.append(PlantedTeam((f"{p}pa", f"{p}pb", f"{p}pe", f"{p}pf"),
                                 ((s - 3, s + 4),)))

        # preceding offshoot with a shared core
        teams.append(PlantedTeam((f"{p}qa", f"{p}qb"), ((s - 3, s + 5),)))
        teams.append(PlantedTeam((f"{p}qa", f"{p}qb", f"{p}qc"), ((s, s + 3),)))
        teams.append(PlantedTeam((f"{p}qa", f"{p}qb", f"{p}qd"), ((s - 1, s + 2),)))

        # closed baseline
        teams.append(PlantedTeam((f"{p}za", f"{p}zb"), ((s, s + 4),)))
    return SynthConfig(
        seed=seed,
        year_min=year_min,
        year_max=year_max,
        teams=tuple(teams),
        n_background_authors=n_background_authors,
        background_pubs=background_pubs,
        success_hazard=0.15,
        success_q="0.10",
    )


def hazard_config(seed: int = 23, n_teams: int = 2000, duration: int = 5,
                  hazard: float = 0.2) -> SynthConfig:
    """Teams with a constant per-age success hazard, for first-success rates."""
    rng = random.Random(seed * 7919)
    year_min, year_max = 1, 13
    teams = []
    for i in range(n_teams):
        start = rng.randrange(year_min, year_max - duration + 2)
        members = tuple(f"h{i}m{j}" for j in range(2 + i % 3))
        teams.append(PlantedTeam(members=members,
                                 intervals=((start, start + duration - 1),)))
    return SynthConfig(
        seed=seed,
        year_min=year_min,
        year_max=year_max,
        teams=tuple(teams),
        success_hazard=hazard,
        success_q="0.10",
    )


def shift_config(seed: int = 31, per_group: int = 40, duration: int = 6) -> SynthConfig:
    """Three duration coh-equal groups for the first-success shift figure:

    * closed teams succeeding at age 3,
    * teams with a preceding core, succeeding at age 2,
    * teams with a preceding core that was successful before the focal team
      formed, also succeeding at age 2.

    The planted decrease versus the closed cohort mean is exactly 1.0 years.
    """
    rng = random.Random(seed * 104729)
    year_min, year_max = 1, 13
    teams = []
    for i in range(per_group):
        start = rng.randrange(3, year_max - duration - 1)
        teams.append(PlantedTeam((f"z{i}a", f"z{i}b"),
                                 ((start, start + duration - 1),),
                                 success_ages=(3,)))
    for group, success_core in (("p", False), ("e", True)):
        for i in range(per_group):
            start = rng.randrange(3, year_max - duration - 1)
            end = start + duration - 1
            core_ages = (1,) if success_core else ()
            teams.append(PlantedTeam((f"{group}{i}a", f"{group}{i}b"),
                                     ((start - 2, end + 1),),
                                     success_ages=core_ages))
            teams.append(PlantedTeam((f"{group}{i}a", f"{group}{i}b", f"{group}{i}c"),
                                     ((start, end),),
                                     success_ages=(2,)))
    return SynthConfig(
        seed=seed,
        year_min=year_min,
        year_max=year_max,
        teams=tuple(teams),
        success_q="0.01",
    )


def scale_config(seed: int = 47, n_teams: int = 60_000,
                 background_pubs: int = 702_000,
                 n_background_authors: int = 121_000) -> SynthConfig:
    """At its defaults, one million publications and over three hundred
    thousand authors: the size of acceptance criterion 9."""
    rng = random.Random(seed * 15485863)
    year_min, year_max = 1, 13
    sizes = (2, 3, 4)
    durations = (3, 4, 5, 6)
    teams = []
    for i in range(n_teams):
        size = sizes[i % len(sizes)]
        duration = durations[i % len(durations)]
        start = rng.randrange(3, year_max - duration + 1)
        members = tuple(f"t{i}m{j}" for j in range(size))
        end = start + duration - 1
        teams.append(PlantedTeam(members=members, intervals=((start, end),)))
        if i % 10 == 0 and size >= 3:
            teams.append(PlantedTeam(members=members[:2],
                                     intervals=((start - 2, end + 1),)))
    return SynthConfig(
        seed=seed,
        year_min=year_min,
        year_max=year_max,
        teams=tuple(teams),
        n_background_authors=n_background_authors,
        background_pubs=background_pubs,
        background_multi_frac=0.6,
        success_hazard=0.02,
        success_q="0.10",
    )


PRESETS = {
    "fig_s1": None,  # handled specially: pair-level corpus
    "planted": random_planted_config,
    "wired": wired_overlap_config,
    "hazard": hazard_config,
    "shift": shift_config,
    "scale": scale_config,
}
