"""Temporal maximal clique enumeration over the persistent collaboration network.

An edge (a, b) exists in year t when t lies inside one of the pair's
persistent periods. A temporal clique is a member set plus an inclusive year
span such that every member pair is connected in every year of the span. It is
maximal when neither endpoint of the span can be moved outward nor any author
added for the same span.

The enumerator is the temporal Bron-Kerbosch of Himmel et al. (SNAM 2017)
with the pivot rule of Tomita et al. (TCS 2006), run per connected component
over integer year bitmasks (bit i is year ``offset + i``). A state is
``(R, span, P, X)``: ``span`` is one maximal connectivity run of the member
set R, and P (candidates still to branch on) and X (candidates already
branched on) map each outside author to the years of ``span`` in which that
author is connected to every member of R. A component's root has R empty,
span every year and all its authors in P. An author in P or X whose mask is
the whole span is a pivot: while one exists the state is not maximal, and
only P authors whose pair mask with the pivot misses part of the span (plus
the pivot itself) need a branch. A state without a pivot is emitted when R
is large enough. Branching on v splits v's mask into its maximal runs, one
child state per run, and then moves v from P to X. The walk uses an explicit
stack, so clique size is not bounded by the recursion limit. Completeness and
maximality are pinned by equivalence with the brute-force oracle in the
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from teammine.csvio import read_csv, write_csv
from teammine.intervals import Interval
from teammine.pairs import Pair


MIN_SIZE = 2  # the study's smallest team


@dataclass(frozen=True, slots=True, order=True)
class TemporalClique:
    members: tuple[str, ...]  # sorted author ids
    start: int
    end: int


Adjacency = dict[str, dict[str, int]]  # author -> neighbour -> year bitmask


def _build_adjacency(network: dict[Pair, list[Interval]], offset: int) -> Adjacency:
    adj: Adjacency = {}
    for (a, b), periods in network.items():
        mask = 0
        for s, e in periods:
            mask |= ((1 << (e - s + 1)) - 1) << (s - offset)
        adj.setdefault(a, {})[b] = mask
        adj.setdefault(b, {})[a] = mask
    return adj


def _components(adj: Adjacency) -> list[list[str]]:
    seen: set[str] = set()
    comps: list[list[str]] = []
    for root in sorted(adj):
        if root in seen:
            continue
        comp = [root]
        seen.add(root)
        queue = [root]
        while queue:
            node = queue.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    comp.append(nxt)
                    queue.append(nxt)
        comps.append(sorted(comp))
    return comps


def _runs(mask: int):
    """Maximal runs of consecutive set bits, lowest first, each as a mask."""
    while mask:
        run = mask & ~(mask + (mask & -mask))
        yield run
        mask ^= run


def _restrict(masks: dict[str, int], v_adj: dict[str, int], run: int) -> dict[str, int]:
    """masks AND v's pair masks AND run, empty masks dropped; walks the smaller side."""
    if len(v_adj) < len(masks):
        return {w: m for w, pair in v_adj.items() if (m := masks.get(w, 0) & pair & run)}
    return {w: m for w, old in masks.items() if (m := old & v_adj.get(w, 0) & run)}


def _branch_set(adj: Adjacency, span: int, cand: dict[str, int],
                done: dict[str, int]) -> list[str] | None:
    """Candidates to branch on, or None when no author covers the whole span.

    Any author of P or X whose mask is the whole span can be the pivot; the
    one whose pair masks cover the span for the most candidates wins (Tomita's
    rule), and the scan stops once it leaves nothing but itself to branch on.
    """
    pivot_adj, covered = None, -1
    for pivot, mask in (*done.items(), *cand.items()):
        if mask != span:
            continue
        p_adj = adj[pivot]
        if len(p_adj) < len(cand):
            n = sum(1 for w, pair in p_adj.items() if pair & span == span and w in cand)
        else:
            n = sum(1 for w in cand if p_adj.get(w, 0) & span == span)
        if n > covered:
            pivot_adj, covered = p_adj, n
            if n + (pivot in cand) == len(cand):
                break
    if pivot_adj is None:
        return None
    # the pivot has no edge to itself, so a pivot taken from P stays listed
    return [w for w in cand if pivot_adj.get(w, 0) & span != span]


def _mine_component(adj: Adjacency, members: list[str], full: int, offset: int,
                    min_size: int) -> list[TemporalClique]:
    out: list[TemporalClique] = []
    stack = [((), full, dict.fromkeys(members, full), {})]
    while stack:
        group, span, cand, done = stack.pop()
        branch = _branch_set(adj, span, cand, done)
        if branch is None:
            if len(group) >= min_size:
                out.append(TemporalClique(tuple(sorted(group)),
                                          offset + (span & -span).bit_length() - 1,
                                          offset + span.bit_length() - 1))
            branch = list(cand)
        for v in branch:
            v_adj = adj[v]
            years = cand.pop(v)
            for run in _runs(years):
                stack.append((group + (v,), run, _restrict(cand, v_adj, run),
                              _restrict(done, v_adj, run)))
            done[v] = years
    return out


def enumerate_maximal_cliques(network: dict[Pair, list[Interval]],
                              min_size: int = MIN_SIZE) -> list[TemporalClique]:
    """All temporal maximal cliques, sorted by member tuple then span."""
    if not network:
        return []
    offset = min(s for periods in network.values() for s, _ in periods)
    last = max(e for periods in network.values() for _, e in periods)
    full = (1 << (last - offset + 1)) - 1
    adj = _build_adjacency(network, offset)
    return sorted(cl for comp in _components(adj)
                  for cl in _mine_component(adj, comp, full, offset, min_size))


def write_cliques_csv(cliques: list[TemporalClique], path: str | Path):
    write_csv(path, ["members", "start", "end"],
              ((";".join(c.members), c.start, c.end) for c in cliques))


def read_cliques_csv(path: str | Path) -> list[TemporalClique]:
    return [TemporalClique(tuple(members.split(";")), int(start), int(end))
            for members, start, end in read_csv(path)]
