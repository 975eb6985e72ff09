import importlib
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
from tightspan.detectors import is_chordal
from tightspan.dh import pruning_sequence
from tightspan.graphs import _blocks
from tightspan.hyperbolicity import _scan

# The package attribute ``tightspan.hyperbolicity`` is the function.
hyp_module = importlib.import_module("tightspan.hyperbolicity")


def test_four_point_tree_is_zero():
    d = fixture("P8").distances()
    assert four_point_hyp2(d, 0, 3, 5, 7) == 0


def test_four_point_c4():
    d = fixture("C4").distances()
    assert four_point_hyp2(d, 0, 1, 2, 3) == 2  # sums 4,2,2


def test_four_point_c5():
    d = fixture("C5").distances()
    assert four_point_hyp2(d, 0, 1, 2, 3) == 1  # sums 4,3,2


def test_four_point_with_repeats():
    d = fixture("C4").distances()
    assert four_point_hyp2(d, 0, 0, 2, 2) == 0


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
    d = g.distances()
    assert four_point_hyp2(d, *report.witness) == report.delta2


def test_alpha1_tree():
    assert is_alpha1_metric(fixture("P8"))


@pytest.mark.parametrize("seed", range(10))
def test_alpha1_chordal(seed):
    assert is_alpha1_metric(random_chordal(9, seed))


def test_alpha1_c6_violates():
    violation = find_alpha1_violation(fixture("C6"))
    assert violation is not None
    x, y, z, v = violation
    d = fixture("C6").distances()
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
    d = g.distances()
    quad = [rnd.randrange(g.n) for _ in range(4)]
    base = four_point_hyp2(d, *quad)
    for perm in permutations(quad):
        assert four_point_hyp2(d, *perm) == base


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


def _improvements(d) -> list:
    """The quadruples at which the lexicographic sweep of distance rows ``d``
    raises its best defect."""
    best, out = 0, []
    for quad in combinations(range(len(d)), 4):
        defect = four_point_hyp2(d, *quad)
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
    # C_4m reaches its diameter bound, which stops the scan; the other
    # residues mod 4 stay below it and scan to the end.
    for g in (fixture(f"C{k}"), _relabelled_cycle(k, k)):
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
    rises = Counter(quad[:3] for quad in _improvements(g.distances()))
    assert rises[(0, 1, 2)] == 4
    assert hyperbolicity(g) == hyperbolicity_scan(g)


def test_tied_maxima_give_least_witness():
    edges = [(0, 1), (0, 2), (0, 4), (1, 2), (1, 5), (1, 6), (2, 3), (3, 6), (6, 7)]
    g = Graph.from_edge_list(8, edges)
    d = g.distances()
    report = hyperbolicity(g)
    maximizers = [
        quad for quad in combinations(range(g.n), 4)
        if four_point_hyp2(d, *quad) == report.delta2
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
    assert report == _scan(g.distances(), 0)
    assert report.delta2 == _delta2_of_blocks(g, _blocks(g))


@pytest.mark.parametrize("n", [4, 5, 9, 40, 128])
def test_trees_give_zero_and_first_quadruple(n):
    rng = SplitMix64(n)
    for g in (fixture(f"P{n}"), Graph.from_edge_list(n, [(rng.below(v), v) for v in range(1, n)])):
        assert hyperbolicity(g) == HyperbolicityReport(0, (0, 1, 2, 3))


# -- stopping at a proven bound: 2*delta <= diam, and <= 2 on chordal and DH --


def _glued(a: Graph, b: Graph, cut: int) -> Graph:
    """b glued to a at one vertex: b's vertex 0 becomes a's ``cut`` and b's
    other vertices follow a's."""
    image = [cut] + list(range(a.n, a.n + b.n - 1))
    edges = a.edges() + [(image[u], image[v]) for u, v in b.edges()]
    return Graph.from_edge_list(a.n + b.n - 1, edges)


@pytest.fixture
def scans(monkeypatch):
    """Records (len(d), best, stop) of every ``_scan`` call."""
    calls = []

    def record(d, best, stop=None):
        calls.append((len(d), best, stop))
        return _scan(d, best, stop)

    monkeypatch.setattr(hyp_module, "_scan", record)
    return calls


@pytest.mark.parametrize("make", [random_dh, random_chordal])
@pytest.mark.parametrize("seed", range(3))
def test_scan_matches_oracle_on_one_hyperbolic_classes(make, seed):
    for n in range(8, 41):
        g = make(n, 100 * seed + n)
        report = hyperbolicity(g)
        assert report == hyperbolicity_scan(g), n
        assert report.delta2 <= 2, n


# DH or chordal blocks of delta 1, glued in both orders and at several cut
# vertices: the first large block reaches the bound 2, the second is skipped,
# and phase 2 scans all of g from 1. The last graph is neither chordal nor
# DH, so its bound is its diameter, 4, and both blocks are scanned.
GLUED = [
    (random_dh(11, 11), fixture("C4"), 5, [(4, 0, 2), (14, 1, 2)]),
    (fixture("C4"), random_dh(11, 11), 2, [(11, 0, 2), (14, 1, 2)]),
    (fixture("C4"), random_dh(11, 11), 0, [(4, 0, 2), (14, 1, 2)]),
    (random_chordal(13, 4), random_chordal(13, 4), 7, [(13, 0, 2), (25, 1, 2)]),
    (random_chordal(13, 4), random_chordal(13, 4), 0, [(13, 0, 2), (25, 1, 2)]),
    (random_chordal(13, 4), fixture("C4"), 3, [(4, 0, 4), (13, 2, 4), (16, 1, 2)]),
]


@pytest.mark.parametrize("a,b,cut,calls", GLUED)
def test_glued_scans_stop_at_the_bound(a, b, cut, calls, scans):
    g = _glued(a, b, cut)
    assert hyperbolicity(g) == hyperbolicity_scan(g)
    assert scans == calls


def test_least_witness_in_a_skipped_block(scans):
    # C4 - C4 glued at 3: the block {3, 4, 5, 6} is scanned first and reaches
    # 2, so {0, 1, 2, 3} is skipped, yet holds the least witness.
    g = _glued(fixture("C4"), fixture("C4"), 3)
    assert _blocks(g) == [[3, 4, 5, 6], [0, 1, 2, 3]]
    assert hyperbolicity(g) == HyperbolicityReport(2, (0, 1, 2, 3))
    assert scans == [(4, 0, 2), (7, 1, 2)]


@pytest.mark.parametrize("make", [random_dh, random_chordal])
def test_every_phase_one_scan_stops_at_two_on_one_hyperbolic_classes(make, scans):
    for n in (16, 32, 48, 64, 96):
        for seed in range(3):
            g = make(n, seed)
            assert is_chordal(g) or pruning_sequence(g) is not None
            scans.clear()
            report = hyperbolicity(g)
            assert scans, (n, seed)
            if len(scans) > 1 or scans[0][0] < g.n:  # g is not one block
                assert scans[-1] == (g.n, report.delta2 - 1, report.delta2)
                del scans[-1]
            assert all(stop == 2 for _, _, stop in scans), (n, seed)


@pytest.mark.parametrize("k", [8, 12, 40, 128])
def test_cycle_scan_stops_at_the_diameter(k, scans):
    report = hyperbolicity(fixture(f"C{k}"))
    assert scans == [(k, 0, k // 2)]
    assert report.delta2 == k // 2


@pytest.mark.parametrize("name", ["C5", "C6", "C9", "house", "domino"])
@pytest.mark.parametrize("scale,code", [(1, "B"), (100, "H"), (10_000, "I")])
def test_lane_widths_on_scaled_metrics(name, scale, code, monkeypatch):
    # A metric times c is a metric whose defects are c times as large; its
    # span 4*c*diam+1 picks the lane typecode. The offset table holds
    # 3*diam ints, so a span that needs Q is out of reach.
    d = [[scale * x for x in row] for row in fixture(name).distances()]
    codes = set()
    lanes = hyp_module._lanes
    monkeypatch.setattr(hyp_module, "_lanes", lambda c, values: codes.add(c) or lanes(c, values))
    quads = _improvements(d)
    expected = (
        HyperbolicityReport(four_point_hyp2(d, *quads[-1]), quads[-1])
        if quads else HyperbolicityReport(0, (0, 1, 2, 3))
    )
    assert _scan(d, 0) == expected
    assert _scan(d, 0, max(map(max, d))) == expected
    assert codes == {code}
