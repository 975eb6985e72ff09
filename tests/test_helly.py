import math

import pytest
from hypothesis import given, settings

from oracles import (
    disk_helly_by_definition,
    disk_helly_pairwise,
    pseudo_modular_violation_scan,
    tree_plus_chords,
    triple_disk_pseudo_modular,
)
from strategies import connected_graphs
from tightspan import (
    BudgetExceededError,
    Graph,
    all_extended_squares_suspended,
    build_injective_hull,
    crown_family,
    disk_helly_up_to_radius,
    extended_squares,
    find_pseudo_modular_violation,
    fixture,
    helly,
    hyperbolicity,
    is_chordal,
    is_dually_chordal,
    is_helly,
    is_neighborhood_helly,
    is_pseudo_modular,
    maximal_two_sets,
    pruning_sequence,
    random_chordal,
    random_dh,
    split_family,
)
from tightspan.graphs import bits


def test_two_sets_k4():
    sets = maximal_two_sets(fixture("K4"))
    assert len(sets) == 1
    assert sets[0].members == (0, 1, 2, 3)
    assert sets[0].suspended


def test_two_sets_c6():
    sets = maximal_two_sets(fixture("C6"))
    assert len(sets) == 8
    by_members = {s.members: s for s in sets}
    # alternating triples are unsuspended, consecutive triples hang on their middle
    assert not by_members[(0, 2, 4)].suspended
    assert not by_members[(1, 3, 5)].suspended
    for i in range(6):
        triple = tuple(sorted(((i - 1) % 6, i, (i + 1) % 6)))
        assert by_members[triple].suspended_by == i


def test_two_sets_split_family_count():
    assert len(maximal_two_sets(split_family(4))) == 16


def test_two_sets_deterministic_order():
    sets = maximal_two_sets(crown_family(4))
    assert [s.members for s in sets] == sorted(s.members for s in sets)


def test_neighborhood_helly():
    assert is_neighborhood_helly(fixture("P6"))
    assert not is_neighborhood_helly(fixture("C6"))
    assert is_neighborhood_helly(fixture("W4"))


def test_pseudo_modular():
    assert is_pseudo_modular(fixture("P7"))
    assert is_pseudo_modular(fixture("C4"))
    violation = find_pseudo_modular_violation(fixture("C6"))
    assert violation is not None
    u, v, w = violation
    d = fixture("C6").distances()
    assert d[u][v] == d[u][w] >= 2 and 1 <= d[v][w] <= 2


@given(connected_graphs(max_n=10))
@settings(max_examples=200, deadline=None)
def test_pseudo_modular_violation_matches_scan(g):
    assert find_pseudo_modular_violation(g) == pseudo_modular_violation_scan(g)


@pytest.mark.parametrize("make", [random_dh, random_chordal, tree_plus_chords])
def test_pseudo_modular_violation_matches_scan_seeded(make):
    found = 0
    for seed in range(40):
        g = make(5 + seed % 36, seed)
        expected = pseudo_modular_violation_scan(g)
        assert find_pseudo_modular_violation(g) == expected, seed
        found += expected is not None
    # Distance-hereditary graphs are pseudo-modular, so only the other two
    # families exercise the witness path.
    assert (found == 0) == (make is random_dh)


@given(connected_graphs(max_n=10))
@settings(max_examples=200, deadline=None)
def test_distance_hereditary_graphs_are_pseudo_modular(g):
    """Bandelt and Mulder ("Distance-hereditary graphs", J. Combin. Theory
    Ser. B 41, 1986): in a distance-hereditary graph, two vertices at
    distance k from u that are joined by a path outside the disk D(u, k - 1)
    have the same neighbours at distance k - 1 from u. Two such vertices at
    distance at most 2 either share a neighbour at level k - 1 or are joined
    outside the disk, so no pseudo-modularity violation exists.
    """
    if pruning_sequence(g) is not None:
        assert pseudo_modular_violation_scan(g) is None


@pytest.mark.parametrize("n", [96, 128, 160])
def test_distance_hereditary_graphs_are_pseudo_modular_at_recognize_sizes(n):
    # `recognize` skips the scan on DH input by the lemma above; check it at
    # the sizes of the benchmark's DH inputs with the fast scan, not the oracle.
    for seed in range(3):
        g = random_dh(n, seed)
        assert pruning_sequence(g) is not None
        assert find_pseudo_modular_violation(g) is None, seed


@pytest.mark.parametrize("name,expected", [
    ("W4", True),
    ("C4", False),
    ("P5", True),
    ("C6", False),
    ("K4", True),
])
def test_is_helly(name, expected):
    assert is_helly(fixture(name)) is expected


@pytest.mark.parametrize("name", ["C4", "C5", "P4", "house", "domino", "gem"])
def test_hull_is_helly(name):
    hull = build_injective_hull(fixture(name)).hull
    assert is_helly(hull)


@pytest.mark.parametrize("name", ["C4", "C5", "P4", "K4", "W4", "house"])
def test_helly_matches_exhaustive_disk_oracle(name):
    assert is_helly(fixture(name)) == disk_helly_by_definition(fixture(name))


@pytest.mark.parametrize("name", ["C4", "C5", "C6", "P5", "W5", "house", "gem"])
def test_pseudo_modular_matches_triple_disk_oracle(name):
    assert is_pseudo_modular(fixture(name)) == triple_disk_pseudo_modular(fixture(name))


@pytest.mark.parametrize("name", ["P5", "C4", "C6", "W4", "house", "K5"])
def test_disk_helly_radius_one_is_neighborhood_helly(name):
    g = fixture(name)
    assert disk_helly_up_to_radius(g, 1) == is_neighborhood_helly(g)


def test_disk_helly_c4():
    assert not disk_helly_up_to_radius(fixture("C4"), 1)


def test_disk_helly_c5_radius_two():
    # C5 is 1/2-hyperbolic and not Helly, so some family of radius <= 2 fails
    assert not disk_helly_up_to_radius(fixture("C5"), 2)


def test_disk_helly_deep_clique_is_budget_error():
    # K512 minus the edge 0-1 has diameter 2, so radius 2 is not clamped, and
    # its 1024 disks of radius 1 or 2 pairwise meet: Bron-Kerbosch would
    # recurse over 1000 deep; that must surface as a budget error.
    n = 512
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) != (0, 1)]
    g = Graph.from_edge_list(n, edges)
    with pytest.raises(BudgetExceededError, match=r"recursion depth after \d+ nodes"):
        disk_helly_up_to_radius(g, 2)


def test_disk_helly_radius_validation():
    with pytest.raises(ValueError):
        disk_helly_up_to_radius(fixture("C4"), 0)


@pytest.mark.parametrize("name", ["C4", "C5", "C6", "C8", "house"])
def test_disk_helly_monotone(name):
    g = fixture(name)
    seen_false = False
    for r in range(1, max(map(max, g.distances())) + 2):
        ok = disk_helly_up_to_radius(g, r)
        if seen_false:
            assert not ok
        seen_false = seen_false or not ok


@pytest.mark.parametrize("name", ["P6", "C5", "K4"])
def test_extended_squares_absent_in_c4_free_graphs(name):
    assert extended_squares(fixture(name)) == []
    assert all_extended_squares_suspended(fixture(name))


def test_extended_square_c4():
    squares = extended_squares(fixture("C4"))
    assert len(squares) == 1
    assert squares[0].members == (0, 1, 2, 3)
    assert not squares[0].suspended


def test_extended_square_w4():
    squares = extended_squares(fixture("W4"))
    assert len(squares) == 1
    assert squares[0].members == (0, 1, 2, 3, 4)
    assert squares[0].suspended_by == 4


def test_dh_helly_iff_extended_squares_suspended():
    for seed in range(40):
        g = random_dh(10, seed)
        assert is_helly(g) == all_extended_squares_suspended(g), seed


def test_dually_chordal():
    assert is_dually_chordal(fixture("P6"))
    assert not is_dually_chordal(fixture("C6"))


def test_square_chordal_hull_dually_chordal():
    for name in ("C5", "gem", "P6"):
        hull = build_injective_hull(fixture(name)).hull
        assert is_dually_chordal(hull)


def test_clique_budget():
    with pytest.raises(BudgetExceededError):
        maximal_two_sets(split_family(4), max_nodes=3)


def test_chordal_square_charges_one_node_per_vertex():
    # K4 is its own square, chordal, so its one 2-set comes off 4 MCS steps
    with pytest.raises(BudgetExceededError, match="exceeded 3 nodes"):
        maximal_two_sets(fixture("K4"), max_nodes=3)
    assert [s.members for s in maximal_two_sets(fixture("K4"), max_nodes=4)] == [(0, 1, 2, 3)]


@pytest.mark.parametrize("n", [5, 12, 30, 60, 90])
def test_mcs_cliques_match_bron_kerbosch(n):
    # random_chordal graphs, and the squares of random_chordal and random_dh
    # graphs: the DH squares are all chordal, the larger chordal squares mostly not
    graphs = [gen(n, seed) for gen in (random_chordal, random_dh) for seed in range(8)]
    read_off = 0
    for h in graphs[:8] + [g.power(2) for g in graphs]:
        cliques = helly._chordal_cliques(h)
        assert (cliques is not None) == is_chordal(h)
        if cliques is not None:
            assert cliques == helly.maximal_cliques(h.adj, h.n)
            read_off += 1
    assert read_off >= 16
    for g in graphs[8:]:
        cliques = helly.maximal_cliques(g.power(2).adj, g.n)
        assert [s.members for s in maximal_two_sets(g)] == [tuple(bits(c)) for c in cliques]


def test_dually_chordal_checks_the_square_first(monkeypatch):
    calls = []
    monkeypatch.setattr(helly, "maximal_two_sets", lambda *args: calls.append(args) or [])
    assert not is_dually_chordal(fixture("C6"))  # the octahedron is not chordal
    assert calls == []
    assert is_dually_chordal(fixture("C5")) and len(calls) == 1


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_helly_agrees_with_hull_oracle(g):
    assert is_helly(g) == (build_injective_hull(g).n_helly == 0)


@given(connected_graphs(max_n=7))
@settings(max_examples=25, deadline=None)
def test_bounded_disk_helly_implies_helly(g):
    delta2 = hyperbolicity(g).delta2
    r = math.ceil(delta2 / 2) + 1
    if disk_helly_up_to_radius(g, r):
        assert is_helly(g)


def test_helly_matches_hull_oracle_corpus(corpus, corpus_hulls):
    for name, _g in corpus:
        h = corpus_hulls[name]
        assert is_helly(h.source) == (h.n_helly == 0), name


def test_pseudo_modular_triple_disk_consistency_corpus(corpus):
    sample = corpus[:20] + corpus[::23]
    for name, g in sample:
        assert is_pseudo_modular(g) == triple_disk_pseudo_modular(g), name


@pytest.mark.parametrize("name", ["C4", "C5", "P4", "K4", "house"])
def test_disk_helly_matches_definition(name):
    g = fixture(name)
    for r in range(1, max(map(max, g.distances())) + 1):
        assert disk_helly_up_to_radius(g, r) == disk_helly_by_definition(g, r)


def test_disk_helly_matches_pairwise_rows(corpus):
    answers = set()
    for name, g in corpus:
        for r in (1, 2, 3):
            got = disk_helly_up_to_radius(g, r)
            assert got == disk_helly_pairwise(g, r), (name, r)
            answers.add((r, got))
    assert answers == {(r, ok) for r in (1, 2, 3) for ok in (False, True)}


def test_disk_helly_radius_above_diameter_changes_nothing(corpus):
    for name, g in corpus:
        d = max(map(max, g.distances()))
        expected = disk_helly_up_to_radius(g, d)
        for r in range(d + 1, d + 4):
            assert disk_helly_up_to_radius(g, r) == expected, (name, r)
            assert disk_helly_pairwise(g, r) == expected, (name, r)


def test_disk_helly_huge_radius_stops_at_diameter(monkeypatch):
    sizes = []
    original = helly.maximal_cliques

    def spy(rows, n, *args):
        sizes.append(n)
        return original(rows, n, *args)

    monkeypatch.setattr(helly, "maximal_cliques", spy)
    assert not disk_helly_up_to_radius(fixture("C4"), 10**9)
    assert sizes == [4 * 3]  # the disks of radius 0..diam(C4) = 2


def test_disk_helly_clamps_radius_at_diameter_only(monkeypatch):
    # the searches stop after layer 2r; the radius falls to the diameter only
    # when none of them was cut off
    sizes = []
    original = helly.maximal_cliques

    def spy(rows, n, *args):
        sizes.append(n)
        return original(rows, n, *args)

    monkeypatch.setattr(helly, "maximal_cliques", spy)
    g = fixture("P7")
    for r in range(1, 9):
        assert disk_helly_up_to_radius(g, r)
    assert sizes == [7 * (min(r, 6) + 1) for r in range(1, 9)]


def test_helly_matches_hull_oracle_nine_vertices():
    from oracles import random_connected_graph

    for seed in range(1000, 1020):
        g = random_connected_graph(seed, min_n=9, max_n=9)
        assert is_helly(g) == (build_injective_hull(g).n_helly == 0), seed


def test_listing_two_sets_again_holds_no_more_memory(traced_rounds):
    # Member tuples made by tuple() of a generator are resized from a guessed
    # length, so each one freed stays on the free list of its final size: with
    # the collector off, the traced memory would grow on every repeat. The
    # squares of DH graphs are chordal, so no Bron-Kerbosch closure is left
    # for the collector.
    graphs = [random_dh(n, seed) for n, seed in ((120, 1), (160, 2), (200, 3))]
    held = traced_rounds(lambda: [maximal_two_sets(g) for g in graphs])
    assert held[-1] - held[1] < 4096, held


def test_listing_cliques_again_holds_no_more_memory(traced_rounds):
    # Bron-Kerbosch's nested expand reaches itself through its closure cell;
    # unless the cell is cleared, each call's function, cells and clique list
    # wait for the cyclic collector, which is off here.
    squares = [random_chordal(n, seed).power(2) for n, seed in ((120, 1), (160, 2), (160, 3))]

    def call():
        for sq in squares:
            helly.maximal_cliques(sq.adj, sq.n)

    held = traced_rounds(call)
    assert held[-1] - held[1] < 4096, held
