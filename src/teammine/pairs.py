"""Temporal co-authorship network: per author pair, the years of joint work.

A publication with a authors contributes its year once to each of the
a*(a-1)/2 unordered pairs; single-author publications contribute nothing.
A pair is canonical with the lexicographically smaller id first, and the
timelines are held per first author: ``timelines[a][b]`` is the sorted year
tuple of the pair (a, b), with ``a < b``. No inner dict is empty.

Most pairs co-publish in one year only, so every one-year pair of a year
holds the same ``(year,)`` tuple; a pair's second year moves it to a list of
its own, and the build ends by sorting each list into a tuple.

``pair_timelines.csv`` holds one row per pair in ``(a, b)`` order, with the
years joined by ``;``; each field is quoted by ``csvio``, as every artifact
is.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path

from teammine.csvio import encode_field, read_csv

Pair = tuple[str, str]
Timelines = dict[str, dict[str, tuple[int, ...]]]  # a -> b -> sorted years, a < b


def canonical_pair(a: str, b: str) -> Pair:
    return (a, b) if a < b else (b, a)


def build_pair_timelines(pubs, author_cap: int = 0) -> Timelines:
    """Year multiset per co-authoring pair, as a tuple sorted ascending, held
    per first author.

    author_cap, when above 0, excludes publications with more than that many
    authors from pair generation (hyper-authorship escape hatch); the
    publications themselves stay in the corpus for association and statistics.
    """
    timelines: dict[str, dict] = {}
    get = timelines.get
    one_year: dict[int, tuple[int]] = {}  # year -> the (year,) every one-year pair shares
    for rec in pubs:
        authors = rec.authors
        if len(authors) < 2 or 0 < author_cap < len(authors):
            continue
        year = rec.year
        single = one_year.get(year)
        if single is None:
            single = one_year[year] = (year,)
        last = None
        # sorted ids make every combination a canonical pair, grouped by a
        for a, b in combinations(sorted([entry.author_id for entry in authors]), 2):
            if a is not last:
                last = a
                inner = get(a)
                if inner is None:
                    inner = timelines[a] = {}
            years = inner.get(b)
            if years is None:
                inner[b] = single
            elif type(years) is tuple:
                inner[b] = [years[0], year]
            else:
                years.append(year)
    for inner in timelines.values():
        for b, years in inner.items():
            if type(years) is list:
                years.sort()
                inner[b] = tuple(years)
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


def write_pair_timelines_csv(timelines: Timelines, path: str | Path):
    """Rows in ``(a, b)`` order: the first authors sorted, then each one's
    second authors; one write per first author."""
    years_fields = _Fields()
    ids = _Fields()
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("author_a,author_b,years\r\n")
        for a in sorted(timelines):
            head = ids[a]
            fh.write("".join([f"{head},{ids[b]},{years_fields[years]}\r\n"
                              for b, years in sorted(timelines[a].items())]))


def read_pair_timelines_csv(path: str | Path) -> Timelines:
    """The timelines as the builder holds them, with one tuple per distinct
    ``years`` text, so the one-year pairs of a year share it again."""
    timelines: Timelines = {}
    parsed: dict[str, tuple[int, ...]] = {}
    for a, b, text in read_csv(path):
        years = parsed.get(text)
        if years is None:
            years = parsed[text] = tuple(map(int, text.split(";")))
        timelines.setdefault(a, {})[b] = years
    return timelines
