"""The bit-row class recognizers, metric queries and suspension witnesses
against the vertex scans they replaced (``tests/oracles.py``): same answers,
witnesses and order."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    asteroidal_triple_by_labels,
    cocomparability_violation_scan,
    distances_bfs,
    disk_mask_scan,
    extended_squares_scan,
    find_odd_cycle_bfs,
    interval_scan,
    interval_slice_scan,
    is_bipartite_bfs,
    is_split_by_prefixes,
    mcs_order_sorted,
    peripheral_vertices_scan,
    suspension_witness_scan,
    tree_plus_chords,
)
from strategies import connected_graphs, graphs
from tightspan import (
    DisconnectedGraphError,
    Graph,
    SplitMix64,
    extended_squares,
    find_asteroidal_triple,
    find_cocomparability_violation,
    find_odd_cycle,
    fixture,
    is_bipartite,
    is_split,
    maximal_two_sets,
    peripheral_vertices,
    random_chordal,
    random_dh,
)
from tightspan.detectors import _mcs_order
from tightspan.graphs import bits
from tightspan.helly import _suspension_witness

FAMILIES = (random_dh, random_chordal, tree_plus_chords)


def shuffled(n: int, seed: int) -> list[int]:
    """A seeded Fisher-Yates permutation of 0..n-1."""
    rng = SplitMix64(seed)
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.below(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def check_classes(g: Graph, seed: int = 0) -> tuple[bool, bool, bool]:
    """Compare every class recognizer with its oracle on g.

    Returns (split, has an asteroidal triple, bipartite), so callers can
    require that each outcome occurs.
    """
    assert _mcs_order(g) == mcs_order_sorted(g)
    coloring = is_bipartite(g)
    assert coloring == is_bipartite_bfs(g)
    assert find_odd_cycle(g) == find_odd_cycle_bfs(g)
    split = is_split(g)
    assert split == is_split_by_prefixes(g)
    triple = find_asteroidal_triple(g)
    assert triple == asteroidal_triple_by_labels(g)
    for order in (list(range(g.n)), shuffled(g.n, seed)):
        assert find_cocomparability_violation(g, order) == cocomparability_violation_scan(
            g, order
        )
    return split is not None, triple is not None, coloring is not None


def check_metric(g: Graph) -> int:
    """Compare distances, intervals, slices, disks, extended squares and
    peripheral vertices with their oracles on a connected g.

    Returns the number of extended squares.
    """
    assert Graph(g.n, g.adj).distances() == distances_bfs(g)
    d = g.distances().rows
    for x in range(g.n):
        for y in range(g.n):
            assert g.interval(x, y) == interval_scan(g, x, y)
            for k in range(d[x][y] + 1):
                assert g.interval_slice(x, y, k) == interval_slice_scan(g, x, y, k)
        for r in range(-2, g.distances().ecc[x] + 2):
            assert g.disk_mask(x, r) == disk_mask_scan(g, x, r)
    squares = extended_squares(g)
    assert squares == extended_squares_scan(g)
    assert peripheral_vertices(g) == peripheral_vertices_scan(g)
    return len(squares)


def test_corpus_matches_oracles(corpus):
    outcomes = set()
    squares = 0
    for seed, (name, g) in enumerate(corpus):
        outcomes.add(check_classes(g, seed))
        squares += check_metric(g)
    for i in range(3):
        assert {o[i] for o in outcomes} == {True, False}
    assert squares > 0


@pytest.mark.parametrize("make", FAMILIES)
def test_seeded_families_match_oracles(make):
    outcomes = set()
    squares = 0
    for n in (5, 8, 12, 30, 60, 120):
        for seed in range(3):
            g = make(n, seed)
            outcomes.add(check_classes(g, seed))
            if n <= 30:
                squares += check_metric(g)
    assert {o[0] for o in outcomes} == {True, False}  # split
    assert {o[1] for o in outcomes} == {True, False}  # asteroidal triple
    assert squares > 0 or make is random_chordal  # chordal graphs have no C4


def _shuffled_union(parts, isolated: int, seed: int) -> Graph:
    """Disjoint union of ``parts`` plus ``isolated`` lone vertices, built with
    the raw constructor and relabelled by a seeded permutation, so the
    components interleave in id order."""
    n = sum(g.n for g in parts) + isolated
    label = shuffled(n, seed)
    rows, offset = [0] * n, 0
    for g in parts:
        for v, row in enumerate(g.adj):
            for u in bits(row):
                rows[label[offset + v]] |= 1 << label[offset + u]
        offset += g.n
    return Graph(n, rows)


def test_mcs_order_matches_oracle_on_squares_cliques_and_disconnected_graphs():
    # Squares are dense and fill deep weight buckets. In a disconnected graph
    # the top bucket empties when a component runs out, and the search falls
    # back to bucket 0, where the next component starts at its lowest id.
    cases = [fixture(f"K{n}") for n in (1, 2, 3, 9, 40)]
    cases.append(Graph(6, [0] * 6))
    for make in FAMILIES:
        for n in (8, 30, 120):
            for seed in range(3):
                g = make(n, seed)
                cases += [g, g.power(2)]
                cases.append(_shuffled_union([g, make(n // 2 + 1, seed + 3)], seed, seed))
    cases.append(_shuffled_union([fixture("K5"), fixture("C6"), fixture("P4")], 3, 7))
    for g in cases:
        assert _mcs_order(g) == mcs_order_sorted(g)
    assert sum(not g.is_connected() for g in cases) > 20


@pytest.mark.parametrize("make", FAMILIES)
def test_seeded_extended_squares_and_peripherals_at_60(make):
    g = make(60, 0)
    assert extended_squares(g) == extended_squares_scan(g)
    assert peripheral_vertices(g) == peripheral_vertices_scan(g)


def test_hypothesis_graphs_match_oracles():
    outcomes = set()

    @given(graphs(max_n=12))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def check(g):
        outcomes.add(check_classes(g, g.n))
        assert extended_squares(g) == extended_squares_scan(g)

    check()
    for i in range(3):
        assert {o[i] for o in outcomes} == {True, False}


@given(connected_graphs(max_n=12))
@settings(max_examples=200, deadline=None)
def test_hypothesis_connected_metric_matches_oracles(g):
    check_metric(g)


def test_at_free_graphs_match_oracle():
    # complements of sparse graphs are dense and mostly AT-free
    outcomes = set()
    for seed in range(30):
        g = tree_plus_chords(12, seed)
        full = (1 << g.n) - 1
        co = Graph(g.n, [full & ~(row | 1 << v) for v, row in enumerate(g.adj)])
        outcomes.add(check_classes(co, seed)[1])
    assert outcomes == {True, False}


def test_distances_keep_their_disconnected_message():
    g = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])  # edges 0-1 and 2-3
    with pytest.raises(DisconnectedGraphError, match="distances need a connected graph"):
        g.distances()


def test_split_of_one_vertex_and_of_an_edgeless_pair():
    assert is_split(fixture("K1")) == is_split_by_prefixes(fixture("K1")) == ((0,), ())
    assert is_split(Graph(2, [0, 0])) == is_split_by_prefixes(Graph(2, [0, 0])) == ((0,), (1,))


def witness_outcomes(g: Graph) -> set[bool]:
    """Compare the suspension witness of every maximal 2-set and extended
    square of g with the n-vertex scan; returns which of suspended and
    unsuspended occurred."""
    outcomes = set()
    sets = [s.members for s in maximal_two_sets(g)]
    for members in sets + [sq.members for sq in extended_squares(g)]:
        mask = sum(1 << v for v in members)
        witness = _suspension_witness(g, mask)
        assert witness == suspension_witness_scan(g, mask)
        outcomes.add(witness is not None)
    return outcomes


def test_suspension_witness_matches_scan_on_corpus_and_families(corpus):
    outcomes = set()
    for name, g in corpus:
        outcomes |= witness_outcomes(g)
    for make in FAMILIES:
        for seed in range(3):
            outcomes |= witness_outcomes(make(30, seed))
    assert outcomes == {True, False}


@given(graphs(max_n=12), st.data())
@settings(max_examples=200, deadline=None)
def test_hypothesis_suspension_witness_matches_scan(g, data):
    mask = data.draw(st.integers(0, (1 << g.n) - 1))
    assert _suspension_witness(g, mask) == suspension_witness_scan(g, mask)
    assert _suspension_witness(g, 0) == suspension_witness_scan(g, 0) == 0
