"""The brute-force clique oracle: every (member subset, span) combination is
tried, so ``teammine.cliques.enumerate_maximal_cliques`` can be checked
against it on small networks.
"""

from teammine.cliques import MIN_SIZE, TemporalClique
from teammine.intervals import Interval
from teammine.pairs import Pair


class SizeGuardError(Exception):
    """The oracle was asked for an instance larger than its guard allows."""


def brute_force_cliques(network: dict[Pair, list[Interval]],
                        min_size: int = MIN_SIZE,
                        max_authors: int = 14,
                        max_span: int = 10) -> list[TemporalClique]:
    """Ground-truth oracle: try every (member subset, span) combination.

    Connectivity is checked through per-pair year bitmasks; a combination
    survives when no entry with superset members and superset span also
    satisfies full connectivity. Guarded to small instances by design.
    """
    authors = sorted({a for pair in network for a in pair})
    n = len(authors)
    if n == 0:
        return []
    if n > max_authors:
        raise SizeGuardError(f"{n} authors exceeds oracle guard of {max_authors}")
    y_min = min(s for periods in network.values() for s, _ in periods)
    y_max = max(e for periods in network.values() for _, e in periods)
    span_len = y_max - y_min + 1
    if span_len > max_span:
        raise SizeGuardError(f"span of {span_len} years exceeds oracle guard of {max_span}")

    index = {a: i for i, a in enumerate(authors)}
    pair_bits = [[0] * n for _ in range(n)]
    for (a, b), periods in network.items():
        bits = 0
        for s, e in periods:
            for y in range(s, e + 1):
                bits |= 1 << (y - y_min)
        pair_bits[index[a]][index[b]] = bits
        pair_bits[index[b]][index[a]] = bits

    full = (1 << span_len) - 1
    # conn[v][subset] = years in which v is connected to every member of subset
    conn = [[full] * (1 << n) for _ in range(n)]
    for v in range(n):
        row = conn[v]
        for subset in range(1, 1 << n):
            low = (subset & -subset).bit_length() - 1
            row[subset] = row[subset & (subset - 1)] & pair_bits[v][low]

    # every (member subset, span) combination that is fully connected, minus
    # those dominated by a longer span of the same member set
    by_span: dict[tuple[int, int], list[int]] = {}
    entries: list[tuple[int, int, int]] = []
    for subset in range(1, 1 << n):
        if subset.bit_count() < 2:
            continue
        mask = _subset_mask(subset, conn, full)
        if mask == 0:
            continue
        for x in range(span_len):
            if not mask >> x & 1:
                continue
            for y in range(x, span_len):
                if not mask >> y & 1:
                    break
                if x > 0 and mask >> (x - 1) & 1:
                    continue
                if y + 1 < span_len and mask >> (y + 1) & 1:
                    continue
                entries.append((subset, x, y))
                by_span.setdefault((x, y), []).append(subset)

    # remove entries dominated by superset members over a superset span
    out = []
    for subset, x, y in entries:
        dominated = False
        for x2 in range(0, x + 1):
            for y2 in range(y, span_len):
                for other in by_span.get((x2, y2), ()):
                    if other != subset and subset & other == subset:
                        dominated = True
                        break
                if dominated:
                    break
            if dominated:
                break
        if dominated or subset.bit_count() < min_size:
            continue
        members = tuple(authors[i] for i in range(n) if subset >> i & 1)
        out.append(TemporalClique(members, y_min + x, y_min + y))
    return sorted(out)


def _subset_mask(subset: int, conn, full: int) -> int:
    """Years in which the subset is fully connected, by peeling one member."""
    mask = full
    while subset.bit_count() >= 2:
        low = (subset & -subset).bit_length() - 1
        subset &= subset - 1
        mask &= conn[low][subset]
    return mask
