"""The bit-row class recognizers, metric queries and suspension witnesses
against the vertex scans they replaced (``tests/oracles.py``): same answers,
witnesses and order."""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    asteroidal_triple_by_labels,
    cocomparability_violation_scan,
    component_labels,
    distances_bfs,
    distances_by_layers,
    disk_mask_scan,
    extended_squares_scan,
    find_long_induced_cycle_bfs,
    find_odd_cycle_bfs,
    is_bipartite_bfs,
    is_split_by_prefixes,
    mcs_order_sorted,
    peripheral_vertices_scan,
    random_connected_graph,
    suspension_witness_scan,
    tree_plus_chords,
)
from strategies import connected_graphs, graphs
import tightspan
from tightspan import (
    DisconnectedGraphError,
    Graph,
    SplitMix64,
    crown_family,
    extended_squares,
    find_asteroidal_triple,
    find_cocomparability_violation,
    find_long_induced_cycle,
    find_odd_cycle,
    fixture,
    is_bipartite,
    is_split,
    maximal_two_sets,
    parse_edge_list,
    peripheral_vertices,
    random_chordal,
    random_dh,
)
from tightspan.detectors import _mcs_order
from tightspan.graphs import bits
from tightspan.helly import _suspension_witness

# perfbench/workloads.py is only read, for the seed-1 benchmark inputs.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402

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


def assert_distances_match(g: Graph) -> None:
    """The sweep's rows of a fresh copy of g, so none is read from a cache,
    equal both per-source searches'."""
    rows = Graph(g.n, g.adj).distances()
    assert rows == distances_by_layers(g)
    assert rows == distances_bfs(g)


def check_metric(g: Graph) -> int:
    """Compare distances, disks, extended squares and peripheral vertices
    with their oracles on a connected g.

    Returns the number of extended squares.
    """
    assert_distances_match(g)
    for x, row in enumerate(g.distances()):
        for r in range(-2, max(row) + 2):
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


@pytest.mark.parametrize("seed", range(0, 120, 20))
def test_induced_cycle_witness_matches_oracle_on_seeded_graphs_and_squares(seed):
    witnesses = 0
    for s in range(seed, seed + 20):
        for n_max in (9, 24):
            g = random_connected_graph(s, 4, n_max)
            for h in (g, g.power(2)):
                cycle = find_long_induced_cycle(h)
                assert cycle == find_long_induced_cycle_bfs(h)
                witnesses += cycle is not None
    assert witnesses > 0


def test_induced_cycle_witness_matches_oracle_on_families_and_fixtures():
    cases = [fixture(name) for name in ("house", "domino", "gem", "permutation")]
    cases += [fixture(f"C{k}") for k in range(4, 12)]
    cases += [make(n, seed) for make in FAMILIES for n in (12, 40) for seed in range(3)]
    witnesses = 0
    for g in cases:
        for h in (g, g.power(2)):
            cycle = find_long_induced_cycle(h)
            assert cycle == find_long_induced_cycle_bfs(h)
            witnesses += cycle is not None
    assert witnesses > 10


def test_odd_cycle_edge_is_the_first_in_queue_order_not_in_id_order():
    # Layer 2 from vertex 0 is queued 4, 5, 3, 6, so the edge 4-5 is met
    # before 3-6, whose lower end has the lower id.
    edges = [(0, 1), (0, 2), (1, 4), (1, 5), (2, 3), (2, 6), (4, 5), (3, 6)]
    g = Graph.from_edge_list(7, edges)
    assert find_odd_cycle(g) == find_odd_cycle_bfs(g) == (4, 1, 5)


def test_bipartite_and_odd_cycle_match_oracles_on_disconnected_graphs():
    # Interleaved components: the odd cycle sits in a later component than
    # vertex 0's, and bipartite unions have several components.
    later = several = 0
    for seed in range(30):
        even = [fixture("C6"), crown_family(3 + seed % 3), fixture(f"P{1 + seed % 5}")]
        odd = (fixture(f"C{5 + 2 * (seed % 3)}"), random_dh(8 + seed, seed),
               random_chordal(8 + seed, seed))[seed % 3]
        for parts in (even, [*even, odd], [odd, *even]):
            g = _shuffled_union(parts, seed % 3, seed)
            coloring, cycle = is_bipartite(g), find_odd_cycle(g)
            assert coloring == is_bipartite_bfs(g)
            assert cycle == find_odd_cycle_bfs(g)
            labels = component_labels(g, 0)
            later += cycle is not None and labels[cycle[0]] != labels[0]
            several += coloring is not None and max(labels) > 0
    assert later > 5 and several > 5


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


def _star(n: int) -> Graph:
    return Graph.from_edge_list(n, [(0, v) for v in range(1, n)])


# A byte lane counts 255 levels: P255's last lane reaches exactly 255. P256
# and C510 need one level more, so their totals are read off once and
# restart; P257 is the first path with a lane outside 256 levels. P510 reads
# off twice, its second part full, and P511 three times, its last part one
# level. C255 and C256 sit on both sides of n = 256.
SWEEP_GRAPHS = {
    "K1": lambda: fixture("K1"),
    "K2": lambda: fixture("K2"),
    "K9": lambda: fixture("K9"),
    "star9": lambda: _star(9),
    "P255": lambda: fixture("P255"),
    "C255": lambda: fixture("C255"),
    "P256": lambda: fixture("P256"),
    "C256": lambda: fixture("C256"),
    "P257": lambda: fixture("P257"),
    "P510": lambda: fixture("P510"),
    "P511": lambda: fixture("P511"),
    "C510": lambda: fixture("C510"),
    "random_dh(512, 1)": lambda: random_dh(512, 1),
    "random_chordal(512, 1)": lambda: random_chordal(512, 1),
}


@pytest.mark.parametrize("name", SWEEP_GRAPHS)
def test_distance_sweep_matches_per_source_searches(name):
    assert_distances_match(SWEEP_GRAPHS[name]())


def test_distance_sweep_matches_per_source_searches_on_seeded_graphs():
    for seed in range(300):
        assert_distances_match(random_connected_graph(seed))
    for n in (6, 9, 12, 60):
        for seed in range(20):
            assert_distances_match(tree_plus_chords(n, seed))


@pytest.mark.parametrize("workload", ["hyperbolicity", "hull"])
def test_distance_sweep_matches_per_source_searches_on_benchmark_inputs(workload):
    inputs, _ = workloads.build_inputs(tightspan, workload, 1)
    for inp in inputs:
        assert_distances_match(parse_edge_list(inp.text))


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
