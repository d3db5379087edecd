"""Persistence transform: pair timelines into persistent collaboration periods.

A pair collaborates persistently when it co-authors at least ``min_pubs``
publications within some ``window_len``-calendar-year window. For every such
window the interval from the first to the last co-publication year inside the
window is marked; the pair's persistent periods are the union of all marked
intervals, merged when they overlap or touch (end + 1 == next start).

A period can therefore be shorter than the window (bounded by actual
co-authorship years) or longer (chained windows), and one pair can hold
several disconnected periods.

The sweep reads ``pairs.Timelines``, one sorted year tuple per pair. A pair
with fewer than ``min_pubs`` years fills no window; such pairs are nearly all
of a co-authorship network, and they are skipped without a sweep.
"""

from __future__ import annotations

from collections.abc import Sequence
from pathlib import Path

from teammine.csvio import read_csv, write_csv
from teammine.intervals import Interval, format_intervals, merge_union, parse_intervals
from teammine.pairs import Pair, Timelines


# the study's rule: 3 joint publications within a 5-year window
WINDOW_LEN = 5
MIN_PUBS = 3


def persistent_periods(years: Sequence[int], window_len: int = WINDOW_LEN,
                       min_pubs: int = MIN_PUBS) -> list[Interval]:
    """Disjoint persistent periods for one pair's sorted year multiset.

    Only windows starting at a co-publication year need to be inspected: any
    qualifying window marks an interval contained in the one marked by the
    window that starts at its first in-window publication year.
    """
    n = len(years)
    marked: list[Interval] = []
    j = 0
    for i in range(n):
        if i > 0 and years[i] == years[i - 1]:
            continue
        limit = years[i] + window_len - 1
        while j < n and years[j] <= limit:
            j += 1
        if j - i >= min_pubs:
            marked.append((years[i], years[j - 1]))
    return merge_union(marked)


def build_persistent_network(timelines: Timelines, window_len: int = WINDOW_LEN,
                             min_pubs: int = MIN_PUBS) -> dict[Pair, list[Interval]]:
    """Persistent collaboration network: pairs that have at least one period."""
    network: dict[Pair, list[Interval]] = {}
    for a, inner in timelines.items():
        for b, years in inner.items():
            if len(years) < min_pubs:
                continue
            periods = persistent_periods(years, window_len, min_pubs)
            if periods:
                network[a, b] = periods
    return network


def write_persistent_edges_csv(network: dict[Pair, list[Interval]], path: str | Path):
    write_csv(path, ["author_a", "author_b", "periods"],
              ((a, b, format_intervals(network[(a, b)])) for a, b in sorted(network)))


def read_persistent_edges_csv(path: str | Path) -> dict[Pair, list[Interval]]:
    return {(a, b): parse_intervals(periods) for a, b, periods in read_csv(path)}
