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

import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from teammine.csvio import encode_field, read_csv, write_csv
from teammine.ingest import CitationTable, PublicationTable

TOP1 = Fraction(1, 100)
TOP10 = Fraction(1, 10)

WINDOW_INCLUSIVE = "calendar_inclusive"  # [Y, Y+2]
WINDOW_AFTER = "calendar_after"          # [Y+1, Y+3]
WINDOWS = (WINDOW_INCLUSIVE, WINDOW_AFTER)


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
    counts = dict.fromkeys((rec.pub_id for rec in pubs), 0)
    for pub_id, years in citations.citing_years.items():  # the cited publications only
        rec = pubs.get(pub_id)
        if rec is not None:
            first = rec.year + offset
            counts[pub_id] = sum(first <= year <= first + 2 for year in years)
    return counts


# (field, year) cell -> (population, top-10% threshold, top-1% threshold)
Thresholds = dict[tuple[str, int], tuple[int, int, int]]


def tag_success(pubs: PublicationTable,
                counts: dict[str, int]) -> tuple[SuccessTagTable, Thresholds]:
    """The tags, and the thresholds of each (field, year) cell in cell order,
    from one sort per cell. A threshold is the minimum qualifying citation
    count; a publication is tagged when it qualifies in any of its cells."""
    cells: dict[tuple[str, int], list[str]] = {}
    for rec in pubs:
        for field_id in rec.fields:
            cells.setdefault((field_id, rec.year), []).append(rec.pub_id)
    tags = SuccessTagTable(counts, set(), set())
    thresholds: Thresholds = {}
    for key in sorted(cells):
        ids = sorted(cells[key], key=counts.__getitem__, reverse=True)
        n = len(ids)
        # the count ranked ceil(q * n): index ceil(q * n) - 1, in integers
        th10, th1 = (max(counts[ids[(q.numerator * n - 1) // q.denominator]], 1)
                     for q in (TOP10, TOP1))
        thresholds[key] = (n, th10, th1)
        for tier, th in ((tags.top10, th10), (tags.top1, th1)):
            tier.update(pub_id for pub_id in ids if counts[pub_id] >= th)
    return tags, thresholds


def compute_tags(pubs: PublicationTable, citations: CitationTable,
                 mode: str = WINDOW_INCLUSIVE) -> tuple[SuccessTagTable, Thresholds]:
    """Full tagging pass: the three-year counts, then ``tag_success``."""
    return tag_success(pubs, three_year_citations(pubs, citations, mode=mode))


# a character that makes the csv dialect quote a field
_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search
_FLAGS = {(top10, top1): f"{int(top10)},{int(top1)}" for top10 in (False, True)
          for top1 in (False, True)}


def write_success_tags_csv(tags: SuccessTagTable, path: str | Path):
    """The rows ``write_csv`` would write, formatted without a csv writer.
    Ids are written as they are unless one of them holds a character the
    dialect quotes; then every id goes through ``encode_field``."""
    counts, top10, top1 = tags.counts, tags.top10, tags.top1
    fields = map(encode_field, counts) if _NEEDS_QUOTES("".join(counts)) else counts
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("pub_id,citations_3y,top10,top1\r\n")
        fh.writelines(f"{field},{c},{_FLAGS[pub_id in top10, pub_id in top1]}\r\n"
                      for field, (pub_id, c) in zip(fields, counts.items()))


def read_success_tags_csv(path: str | Path) -> SuccessTagTable:
    tags = SuccessTagTable({}, set(), set())
    for pub_id, c, top10, top1 in read_csv(path):
        tags.counts[pub_id] = int(c)
        if top10 == "1":
            tags.top10.add(pub_id)
        if top1 == "1":
            tags.top1.add(pub_id)
    return tags


def write_thresholds_csv(thresholds: Thresholds, path: str | Path):
    """Every cell's top-10% row, then every cell's top-1% row."""
    write_csv(path, ["field", "year", "q", "threshold", "population"],
              ((field_id, year, q, cell[i], cell[0])
               for i, q in ((1, "0.10"), (2, "0.01"))
               for (field_id, year), cell in thresholds.items()))
