import random

import pytest

from teammine.cliques import TemporalClique, enumerate_maximal_cliques
from teammine.intervals import covers, merge_union

from clique_reference import SizeGuardError, brute_force_cliques


def clique(members, start, end):
    return TemporalClique(tuple(sorted(members)), start, end)


def random_network(rng, max_authors=10, max_year=8, edge_p=0.45, max_periods=2):
    n = rng.randint(2, max_authors)
    authors = [f"a{i}" for i in range(n)]
    network = {}
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < edge_p:
                periods = []
                for _ in range(rng.randint(1, max_periods)):
                    start = rng.randint(1, max_year)
                    periods.append((start, rng.randint(start, max_year)))
                network[(authors[i], authors[j])] = merge_union(periods)
    return network


def test_spec_triangle_example():
    network = {("A", "B"): [(1, 3)], ("A", "C"): [(2, 4)], ("B", "C"): [(2, 3)]}
    assert enumerate_maximal_cliques(network) == [
        clique(["A", "B"], 1, 3),
        clique(["A", "B", "C"], 2, 3),
        clique(["A", "C"], 2, 4),
    ]


def test_single_edge():
    network = {("A", "B"): [(2, 6)]}
    assert enumerate_maximal_cliques(network) == [clique(["A", "B"], 2, 6)]


def test_worked_example_network():
    network = {("A", "B"): [(2, 6)], ("B", "C"): [(1, 7)], ("A", "C"): [(2, 5)],
               ("E", "F"): [(7, 8)]}
    cliques = enumerate_maximal_cliques(network)
    assert clique(["A", "B", "C"], 2, 5) in cliques
    assert cliques == [
        clique(["A", "B"], 2, 6),
        clique(["A", "B", "C"], 2, 5),
        clique(["B", "C"], 1, 7),
        clique(["E", "F"], 7, 8),
    ]


def test_multi_period_edge_seeds_both_periods():
    network = {("A", "B"): [(1, 2), (8, 9)]}
    assert enumerate_maximal_cliques(network) == [
        clique(["A", "B"], 1, 2), clique(["A", "B"], 8, 9)]


def test_brute_force_empty():
    assert brute_force_cliques({}) == []


def test_brute_force_triangle_dominates_pairs():
    network = {("A", "B"): [(1, 5)], ("A", "C"): [(1, 5)], ("B", "C"): [(1, 5)]}
    assert brute_force_cliques(network) == [clique(["A", "B", "C"], 1, 5)]


def test_brute_force_size_guards():
    big = {(f"a{i}", f"a{i+1}"): [(1, 2)] for i in range(15)}
    with pytest.raises(SizeGuardError):
        brute_force_cliques(big)
    long_span = {("A", "B"): [(1, 40)]}
    with pytest.raises(SizeGuardError):
        brute_force_cliques(long_span)


def test_min_size_filters_pairs():
    network = {("A", "B"): [(1, 5)], ("A", "C"): [(1, 4)], ("B", "C"): [(1, 4)]}
    assert enumerate_maximal_cliques(network, 3) == [clique(["A", "B", "C"], 1, 4)]
    assert brute_force_cliques(network, 3) == [clique(["A", "B", "C"], 1, 4)]


def test_oracle_equivalence_random_instances():
    rng = random.Random(1234)
    for _ in range(300):
        network = random_network(rng)
        assert enumerate_maximal_cliques(network) == brute_force_cliques(network)


def test_soundness_and_maximality_direct():
    rng = random.Random(99)
    for _ in range(60):
        network = random_network(rng)
        edges = {}
        for pair, periods in network.items():
            edges[pair] = periods
            edges[(pair[1], pair[0])] = periods
        for cl in enumerate_maximal_cliques(network):
            span = (cl.start, cl.end)
            members = cl.members
            # full connectivity on every member pair
            for i in range(len(members)):
                for j in range(i + 1, len(members)):
                    assert covers(edges[(members[i], members[j])], span)
            # span extensions must fail
            for wider in ((cl.start - 1, cl.end), (cl.start, cl.end + 1)):
                ok = all(covers(edges[(a, b)], wider)
                         for i, a in enumerate(members) for b in members[i + 1:])
                assert not ok
            # single-author extensions must fail
            authors = {a for pair in network for a in pair}
            for outsider in authors - set(members):
                ok = all((outsider, m) in edges and covers(edges[(outsider, m)], span)
                         for m in members)
                assert not ok


def test_pairwise_non_domination():
    rng = random.Random(7)
    for _ in range(40):
        cliques = enumerate_maximal_cliques(random_network(rng))
        for a in cliques:
            for b in cliques:
                if a is b:
                    continue
                dominated = (set(a.members) <= set(b.members)
                             and b.start <= a.start and a.end <= b.end)
                assert not dominated


def test_oracle_equivalence_dense_multi_period():
    # near-complete graphs with split periods: pivots prune and runs split
    rng = random.Random(4321)
    for _ in range(150):
        network = random_network(rng, max_authors=12, edge_p=0.9, max_periods=3)
        assert enumerate_maximal_cliques(network) == brute_force_cliques(network)


def test_disjoint_teams_with_long_cores():
    network, expected = {}, []
    for t, size in enumerate(range(6, 11)):
        members = [f"t{t}m{j}" for j in range(size)]
        start, end = 3 + t % 3, 6 + t % 3
        for i in range(size):
            for j in range(i + 1, size):
                core = i < 3 and j < 3
                network[(members[i], members[j])] = [(start - 2, end + 1) if core
                                                     else (start, end)]
        expected += [clique(members, start, end), clique(members[:3], start - 2, end + 1)]
    assert enumerate_maximal_cliques(network) == sorted(expected)


def test_large_clique_needs_no_recursion():
    authors = [f"a{i:04d}" for i in range(1050)]
    network = {(a, b): [(3, 7)] for i, a in enumerate(authors) for b in authors[i + 1:]}
    assert enumerate_maximal_cliques(network) == [clique(authors, 3, 7)]


def test_deterministic_across_runs():
    rng = random.Random(5)
    network = random_network(rng, max_authors=9)
    ref = enumerate_maximal_cliques(network)
    assert enumerate_maximal_cliques(network) == ref
    assert enumerate_maximal_cliques(dict(reversed(network.items()))) == ref
