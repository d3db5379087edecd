"""Closed integer year intervals, stored as (start, end) tuples with start <= end.

All functions treat interval lists as sorted and pairwise disjoint; the merge
step additionally collapses contiguous intervals (end + 1 == next start), so a
normalized list never contains two intervals that could be expressed as one.
"""

from __future__ import annotations

Interval = tuple[int, int]


def merge_union(intervals: list[Interval]) -> list[Interval]:
    """Union of intervals, merging overlapping and contiguous ones."""
    if not intervals:
        return []
    out: list[Interval] = []
    for start, end in sorted(intervals):
        if out and start <= out[-1][1] + 1:
            if end > out[-1][1]:
                out[-1] = (out[-1][0], end)
        else:
            out.append((start, end))
    return out


def intersect(a: list[Interval], b: list[Interval]) -> list[Interval]:
    """Intersection of two normalized interval lists."""
    out: list[Interval] = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            out.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return out


def covers(intervals: list[Interval], span: Interval) -> bool:
    """True when one interval of the list contains the whole span."""
    lo, hi = span
    return any(s <= lo and hi <= e for s, e in intervals)


def contains_year(intervals: list[Interval], year: int) -> bool:
    return any(s <= year <= e for s, e in intervals)


def format_intervals(intervals) -> str:
    """Artifact encoding of an interval list: ``s-e;s-e``."""
    return ";".join(f"{s}-{e}" for s, e in intervals)


def parse_intervals(raw: str) -> list[Interval]:
    out = []
    for chunk in raw.split(";"):
        cut = chunk.index("-", 1)  # past a start year's own minus sign
        out.append((int(chunk[:cut]), int(chunk[cut + 1:])))
    return out
