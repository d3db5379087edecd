"""Temporal co-authorship network: per author pair, the years of joint work.

A publication with a authors contributes its year once to each of the
a*(a-1)/2 unordered pairs; single-author publications contribute nothing.
Pairs are stored canonically with the lexicographically smaller id first.

``pair_timelines.csv`` holds one row per pair in ``sorted((a, b))`` order,
with the years joined by ``;``; each field is quoted by ``csvio``, as every
artifact is.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

from teammine.csvio import encode_field, read_csv

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
    setdefault = timelines.setdefault
    for rec in pubs:
        authors = rec.authors
        if len(authors) < 2 or 0 < author_cap < len(authors):
            continue
        year = rec.year
        # sorted ids make every combination a canonical pair
        for pair in combinations(sorted([a.author_id for a in authors]), 2):
            setdefault(pair, []).append(year)
    for years in timelines.values():
        if len(years) > 1:
            years.sort()
    return timelines


class _Fields(dict):
    """encode_field per distinct value, computed on first use; a tuple of
    years is encoded as its ``;``-joined text, and an id that needs no quoting
    is kept as the same string object."""

    def __missing__(self, value):
        text = ";".join(map(str, value)) if type(value) is tuple else value
        field = encode_field(text)
        if field == text:
            field = text
        self[value] = field
        return field


def write_pair_timelines_csv(timelines: dict[Pair, list[int]], path: str | Path):
    """Rows grouped by first author, which gives ``sorted(timelines)`` order
    without sorting every pair; one write per first author."""
    years_fields = _Fields()
    groups: dict[str, list[str]] = {}  # a -> [b, years field, b, years field, ...]
    for (a, b), years in timelines.items():
        group = groups.get(a)
        if group is None:
            group = groups[a] = []
        # most pairs share a single year, so that year is the memo key
        group += b, years_fields[years[0] if len(years) == 1 else tuple(years)]
    ids = _Fields()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("author_a,author_b,years\r\n")
        for a in sorted(groups):
            group = groups[a]
            head = ids[a]
            fh.write("".join([f"{head},{ids[b]},{field}\r\n"
                              for b, field in sorted(zip(group[::2], group[1::2]))]))


def read_pair_timelines_csv(path: str | Path) -> dict[Pair, list[int]]:
    return {(a, b): [int(y) for y in years.split(";")] for a, b, years in read_csv(path)}
