"""Temporal co-authorship network: per author pair, the years of joint work.

A publication with a authors contributes its year once to each of the
a*(a-1)/2 unordered pairs; single-author publications contribute nothing.
Pairs are stored canonically with the lexicographically smaller id first.
"""

from __future__ import annotations

from pathlib import Path

from teammine.csvio import read_csv, write_csv

Pair = tuple[str, str]


def canonical_pair(a: str, b: str) -> Pair:
    return (a, b) if a < b else (b, a)


def build_pair_timelines(pubs, author_cap: int = 0) -> dict[Pair, list[int]]:
    """Year multiset per co-authoring pair, sorted ascending.

    author_cap, when above 0, excludes publications with more than that many
    authors from pair generation (hyper-authorship escape hatch); the
    publications themselves stay in the corpus for association and statistics.
    """
    timelines: dict[Pair, list[int]] = {}
    for rec in pubs:
        ids = rec.author_ids()
        if len(ids) < 2:
            continue
        if 0 < author_cap < len(ids):
            continue
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                timelines.setdefault(canonical_pair(ids[i], ids[j]), []).append(rec.year)
    for years in timelines.values():
        years.sort()
    return timelines


def write_pair_timelines_csv(timelines: dict[Pair, list[int]], path: str | Path):
    write_csv(path, ["author_a", "author_b", "years"],
              ((a, b, ";".join(map(str, timelines[(a, b)]))) for a, b in sorted(timelines)))


def read_pair_timelines_csv(path: str | Path) -> dict[Pair, list[int]]:
    return {(a, b): [int(y) for y in years.split(";")] for a, b, years in read_csv(path)}
