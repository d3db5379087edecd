"""Three-year citation counts and top-percentile tagging per (field, year) cell.

A publication's citation window is calendar based: with publication year Y the
default window is [Y, Y+2] (three calendar years including Y). The alternative
reading [Y+1, Y+3] is one configuration switch away.

Percentile thresholds are computed independently per (field, publication year)
cell so that high-citation fields do not dominate. Within a cell of N
publications ranked by citation count descending, the threshold for fraction q
is the count of the ceil(q*N)-th ranked publication, floored at 1 so that
all-zero cells produce no "highly cited" publications. Every publication tied
at the threshold qualifies. Publications listing several fields qualify
through any one of them.

Counting needs only the citing years of each publication, which
``ingest.CitationTable`` holds; the tags are the count of each publication
and the two sets of ids that qualify.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from teammine.csvio import read_csv, write_csv
from teammine.ingest import CitationTable, PublicationTable

TOP1 = Fraction(1, 100)
TOP10 = Fraction(1, 10)

WINDOW_INCLUSIVE = "calendar_inclusive"  # [Y, Y+2]
WINDOW_AFTER = "calendar_after"          # [Y+1, Y+3]
WINDOWS = (WINDOW_INCLUSIVE, WINDOW_AFTER)


@dataclass(frozen=True, slots=True)
class PercentileThreshold:
    field_id: str
    year: int
    q: Fraction
    threshold: int
    population: int


@dataclass
class SuccessTagTable:
    counts: dict[str, int]  # pub_id -> three-year citations, in record order
    top10: set[str]
    top1: set[str]

    def flags(self, pub_id: str) -> tuple[bool, bool]:
        """(top10, top1) of a publication; an untagged one is neither."""
        return pub_id in self.top10, pub_id in self.top1


def three_year_citations(pubs: PublicationTable, citations: CitationTable,
                         mode: str = WINDOW_INCLUSIVE) -> dict[str, int]:
    """Citation count per pub_id, in record order, inside its
    three-calendar-year window; ``mode`` is one of ``WINDOWS``, as
    ``PipelineConfig.validate`` ensures."""
    offset = 0 if mode == WINDOW_INCLUSIVE else 1
    citing_years = citations.citing_years.get
    counts = {}
    for rec in pubs:
        first = rec.year + offset
        counts[rec.pub_id] = sum(first <= year <= first + 2
                                 for year in citing_years(rec.pub_id, ()))
    return counts


Thresholds = dict[tuple[str, int], tuple[PercentileThreshold, PercentileThreshold]]


def percentile_thresholds(pubs: PublicationTable, counts: dict[str, int]) -> Thresholds:
    """The top-10% and top-1% thresholds, the minimum qualifying citation
    count, of each (field, year) cell, in cell order; one sort per cell."""
    cells: dict[tuple[str, int], list[int]] = {}
    for rec in pubs:
        c = counts[rec.pub_id]
        for field_id in rec.fields:
            cells.setdefault((field_id, rec.year), []).append(c)
    out: Thresholds = {}
    for key in sorted(cells):
        cell = sorted(cells[key], reverse=True)
        n = len(cell)
        # the count ranked ceil(q * n): index ceil(q * n) - 1, in integers
        out[key] = tuple(
            PercentileThreshold(*key, q, max(cell[(q.numerator * n - 1) // q.denominator], 1), n)
            for q in (TOP10, TOP1))
    return out


def tag_success(pubs: PublicationTable, counts: dict[str, int],
                thresholds: Thresholds) -> SuccessTagTable:
    """Tag each publication; a multi-field publication qualifies via any field.
    Every cell of ``pubs`` has thresholds when they were computed from it."""
    top10: set[str] = set()
    top1: set[str] = set()
    for rec in pubs:
        c = counts[rec.pub_id]
        for field_id in rec.fields:
            th10, th1 = thresholds[field_id, rec.year]
            if c >= th10.threshold:
                top10.add(rec.pub_id)
            if c >= th1.threshold:
                top1.add(rec.pub_id)
    return SuccessTagTable(counts, top10, top1)


def compute_tags(pubs: PublicationTable, citations: CitationTable,
                 mode: str = WINDOW_INCLUSIVE) -> tuple[SuccessTagTable, list[PercentileThreshold]]:
    """Full tagging pass: counts, thresholds, tags; the top-10% thresholds of
    every cell come before the top-1% ones."""
    counts = three_year_citations(pubs, citations, mode=mode)
    thresholds = percentile_thresholds(pubs, counts)
    tags = tag_success(pubs, counts, thresholds)
    return tags, [pair[i] for i in (0, 1) for pair in thresholds.values()]


def write_success_tags_csv(tags: SuccessTagTable, path: str | Path):
    write_csv(path, ["pub_id", "citations_3y", "top10", "top1"],
              ((pub_id, c, int(pub_id in tags.top10), int(pub_id in tags.top1))
               for pub_id, c in tags.counts.items()))


def read_success_tags_csv(path: str | Path) -> SuccessTagTable:
    tags = SuccessTagTable({}, set(), set())
    for pub_id, c, top10, top1 in read_csv(path):
        tags.counts[pub_id] = int(c)
        if top10 == "1":
            tags.top10.add(pub_id)
        if top1 == "1":
            tags.top1.add(pub_id)
    return tags


def write_thresholds_csv(thresholds: list[PercentileThreshold], path: str | Path):
    write_csv(path, ["field", "year", "q", "threshold", "population"],
              ((th.field_id, th.year, f"{float(th.q):.2f}", th.threshold, th.population)
               for th in thresholds))
