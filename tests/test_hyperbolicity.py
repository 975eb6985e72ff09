from collections import Counter
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import blocks_by_separation, four_point_hyp2, hyperbolicity_scan, tree_plus_chords
from strategies import connected_graphs, glued_graphs
from tightspan import (
    DisconnectedGraphError,
    Graph,
    HyperbolicityReport,
    SplitMix64,
    build_injective_hull,
    find_alpha1_violation,
    fixture,
    hyperbolicity,
    is_alpha1_metric,
    random_chordal,
    random_dh,
    split_family,
)
from tightspan.graphs import _blocks
from tightspan.hyperbolicity import _scan


def test_four_point_tree_is_zero():
    dm = fixture("P8").distances()
    assert four_point_hyp2(dm, 0, 3, 5, 7) == 0


def test_four_point_c4():
    dm = fixture("C4").distances()
    assert four_point_hyp2(dm, 0, 1, 2, 3) == 2  # sums 4,2,2


def test_four_point_c5():
    dm = fixture("C5").distances()
    assert four_point_hyp2(dm, 0, 1, 2, 3) == 1  # sums 4,3,2


def test_four_point_with_repeats():
    dm = fixture("C4").distances()
    assert four_point_hyp2(dm, 0, 0, 2, 2) == 0


def test_delta_tree_zero():
    report = hyperbolicity(fixture("P7"))
    assert report.delta2 == 0


def test_delta_complete_zero():
    assert hyperbolicity(fixture("K6")).delta2 == 0


def test_delta_c4():
    report = hyperbolicity(fixture("C4"))
    assert report.delta2 == 2
    assert report.witness == (0, 1, 2, 3)
    assert report.render() == "2/2"


def test_delta_small_graph():
    assert hyperbolicity(fixture("K3")).delta2 == 0


def test_delta_split_family_at_most_one():
    # chordal, hence 1-hyperbolic
    assert hyperbolicity(split_family(4)).delta2 <= 2


def test_delta_witness_attains_max():
    g = fixture("C8")
    report = hyperbolicity(g)
    dm = g.distances()
    assert four_point_hyp2(dm, *report.witness) == report.delta2


def test_alpha1_tree():
    assert is_alpha1_metric(fixture("P8"))


@pytest.mark.parametrize("seed", range(10))
def test_alpha1_chordal(seed):
    assert is_alpha1_metric(random_chordal(9, seed))


def test_alpha1_c6_violates():
    violation = find_alpha1_violation(fixture("C6"))
    assert violation is not None
    x, y, z, v = violation
    d = fixture("C6").distances().rows
    assert d[x][z] + 1 == d[x][y] and d[z][v] == 1 + d[y][v]
    assert d[x][v] < d[x][y] + d[y][v] - 1


@pytest.mark.parametrize("name", ["C4", "C5", "C6", "house", "domino", "gem"])
def test_delta_preserved_in_hull(name):
    g = fixture(name)
    hull = build_injective_hull(g).hull
    assert hyperbolicity(g).delta2 == hyperbolicity(hull).delta2


@given(connected_graphs(min_n=4, max_n=7), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_hyp2_permutation_invariant(g, rnd):
    dm = g.distances()
    quad = [rnd.randrange(g.n) for _ in range(4)]
    base = four_point_hyp2(dm, *quad)
    for perm in permutations(quad):
        assert four_point_hyp2(dm, *perm) == base


def test_delta_block_graph_zero():
    # two triangles sharing a cut vertex
    from tightspan import Graph

    bowtie = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    assert hyperbolicity(bowtie).delta2 == 0


# -- the pruned lane-parallel scan against the plain quadruple sweep ----------


def _relabelled_cycle(k: int, seed: int) -> Graph:
    perm = SplitMix64(seed).shuffled(list(range(k)))
    return Graph.from_edge_list(k, [(perm[i], perm[(i + 1) % k]) for i in range(k)])


def _lollipop(cycle: int, tail: int) -> Graph:
    """C_cycle with a path of ``tail`` extra vertices hanging off vertex 0."""
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    edges += [(cycle + i - 1 if i else 0, cycle + i) for i in range(tail)]
    return Graph.from_edge_list(cycle + tail, edges)


def _improvements(g: Graph) -> list:
    """The quadruples at which the lexicographic sweep raises its best defect."""
    dm = g.distances()
    best, out = 0, []
    for quad in combinations(range(g.n), 4):
        defect = four_point_hyp2(dm, *quad)
        if defect > best:
            best = defect
            out.append(quad)
    return out


@given(connected_graphs(min_n=1, max_n=12))
@settings(max_examples=200, deadline=None)
def test_scan_matches_oracle(g):
    assert hyperbolicity(g) == hyperbolicity_scan(g)


@pytest.mark.parametrize("k", range(4, 41))
def test_scan_matches_oracle_seeded_cycles(k):
    g = _relabelled_cycle(k, k)
    assert hyperbolicity(g) == hyperbolicity_scan(g)


@pytest.mark.parametrize("make", [random_dh, random_chordal, tree_plus_chords])
def test_scan_matches_oracle_seeded(make):
    for seed in range(40):
        g = make(4 + seed % 37, seed)
        assert hyperbolicity(g) == hyperbolicity_scan(g), seed


@pytest.mark.parametrize("cycle,tail", [(4, 62), (9, 50), (40, 24), (5, 3)])
def test_scan_matches_oracle_long_diameter(cycle, tail):
    # C4 plus a 62-vertex tail has diameter 64, so 4*diam+1 = 257 needs a
    # 10-bit lane; the scan has no vertex cap, and C256 below needs 11 bits.
    g = _lollipop(cycle, tail)
    assert hyperbolicity(g) == hyperbolicity_scan(g)


def test_best_rises_several_times_in_one_lane_word():
    # C24 with 0, 1, 2 at positions 0, 8, 16 and 3..6 at 17..20: the defect of
    # (0, 1, 2, x) grows 2, 4, 6, 8 along x = 3..6.
    positions = [0, 8, 16, 17, 18, 19, 20] + [p for p in range(24) if p % 8 and p < 17]
    positions += [21, 22, 23]
    label = {p: i for i, p in enumerate(positions)}
    g = Graph.from_edge_list(24, [(label[p], label[(p + 1) % 24]) for p in range(24)])
    rises = Counter(quad[:3] for quad in _improvements(g))
    assert rises[(0, 1, 2)] == 4
    assert hyperbolicity(g) == hyperbolicity_scan(g)


def test_tied_maxima_give_least_witness():
    edges = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (3, 6), (6, 7)]
    g = Graph.from_edge_list(8, edges)
    dm = g.distances()
    report = hyperbolicity(g)
    maximizers = [
        quad for quad in combinations(range(g.n), 4)
        if four_point_hyp2(dm, *quad) == report.delta2
    ]
    # (1, 2, 3, 7) ties the witness inside its own lane word.
    assert maximizers == [(1, 2, 3, 6), (1, 2, 3, 7), (2, 3, 5, 6), (2, 3, 5, 7)]
    assert report == hyperbolicity_scan(g)
    assert report.witness == (1, 2, 3, 6)


@pytest.mark.parametrize("g,delta2,witness", [
    # Computed once with tests/oracles.py::hyperbolicity_scan (about 2.3 s each).
    (fixture("C128"), 64, (0, 32, 64, 96)),
    (_relabelled_cycle(128, 128), 64, (0, 6, 23, 97)),
])
def test_scan_at_vertex_cap(g, delta2, witness):
    report = hyperbolicity(g)
    assert (report.delta2, report.witness) == (delta2, witness)


def test_scan_over_vertex_cap():
    # Only the CLI reader caps n at 128; the library scan answers on C129.
    # Computed once with tests/oracles.py::hyperbolicity_scan (2.6 s).
    report = hyperbolicity(fixture("C129"))
    assert (report.delta2, report.witness) == (63, (0, 32, 64, 96))


def test_scan_on_c256():
    # Diameter 128: 4*diam+1 = 513 needs an 11-bit lane. Computed once with
    # tests/oracles.py::hyperbolicity_scan (42 s); the library takes 0.3 s.
    report = hyperbolicity(fixture("C256"))
    assert (report.delta2, report.witness) == (128, (0, 64, 128, 192))


def test_scan_small_and_disconnected():
    assert hyperbolicity(fixture("P3")) == hyperbolicity_scan(fixture("P3"))
    assert hyperbolicity(fixture("P3")).witness == (0, 0, 0, 0)
    split = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])  # edges 0-1 and 2-3
    with pytest.raises(DisconnectedGraphError):
        hyperbolicity(split)


# -- delta from the blocks, then the whole-graph scan stopped at delta ---------


def _delta2_of_blocks(g: Graph, blocks) -> int:
    return max((hyperbolicity(g.induced(b)).delta2 for b in blocks), default=0)


def test_least_witness_spans_two_blocks():
    # C4 on 1..4 with a pendant 0 at vertex 1: the C4 block's own least
    # witness, mapped back, is (1, 2, 3, 4), but (0, 2, 3, 4) comes first.
    g = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 1)])
    report = hyperbolicity(g)
    assert (report.delta2, report.witness) == (2, (0, 2, 3, 4))
    assert report == hyperbolicity_scan(g)


@given(glued_graphs())
@settings(max_examples=200, deadline=None)
def test_scan_matches_oracle_glued(g):
    report = hyperbolicity(g)
    assert report == hyperbolicity_scan(g)
    assert report.delta2 == _delta2_of_blocks(g, blocks_by_separation(g))


@pytest.mark.parametrize("make", [random_dh, random_chordal, tree_plus_chords])
@pytest.mark.parametrize("seed", range(6))
def test_scan_matches_plain_lane_scan(make, seed):
    # n = 48..128 is past the O(n^4) oracle; the reference is the whole-graph
    # lane scan with no blocks and no stop.
    g = make(48 + 16 * seed, seed)
    report = hyperbolicity(g)
    assert report == _scan(g.distances().rows, 0)
    assert report.delta2 == _delta2_of_blocks(g, _blocks(g))


@pytest.mark.parametrize("n", [4, 5, 9, 40, 128])
def test_trees_give_zero_and_first_quadruple(n):
    rng = SplitMix64(n)
    for g in (fixture(f"P{n}"), Graph.from_edge_list(n, [(rng.below(v), v) for v in range(1, n)])):
        assert hyperbolicity(g) == HyperbolicityReport(0, (0, 1, 2, 3))
