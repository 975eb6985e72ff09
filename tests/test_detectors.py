import pytest
from hypothesis import given, settings

from oracles import brute_force_chordal, earlier_neighbours_are_cliques, random_connected_graph
from strategies import connected_graphs
from tightspan import (
    Graph,
    build_injective_hull,
    cocomparability_family,
    crown_family,
    detectors,
    find_asteroidal_triple,
    find_cocomparability_violation,
    find_long_induced_cycle,
    find_odd_cycle,
    fixture,
    helly,
    is_at_free,
    is_bipartite,
    is_chordal,
    is_split,
    is_square_chordal,
    maximal_two_sets,
    random_chordal,
    random_dh,
    split_family,
    verify_cocomparability_ordering,
)


def test_chordal_tree_and_c4():
    assert is_chordal(fixture("P7"))
    assert not is_chordal(fixture("C4"))


def test_chordal_witness_is_induced_long_cycle():
    for name in ("C4", "C6", "domino", "C8"):
        g = fixture(name)
        cycle = find_long_induced_cycle(g)
        assert cycle is not None and len(cycle) >= 4
        k = len(cycle)
        for i, u in enumerate(cycle):
            for j in range(i + 1, k):
                expected = j - i == 1 or (i, j) == (0, k - 1)
                assert g.has_edge(u, cycle[j]) == expected
    assert find_long_induced_cycle(fixture("gem")) is None


def test_induced_cycle_runs_no_search_on_chordal_input(monkeypatch):
    # a chordal graph has no witness, so no BFS per pair of neighbours runs
    graphs = [random_chordal(120, seed) for seed in range(4)]
    calls, frontiers = [], Graph._frontiers

    def counted(self, start_mask, allowed):
        calls.append(start_mask)
        return frontiers(self, start_mask, allowed)

    monkeypatch.setattr(Graph, "_frontiers", counted)
    for g in graphs:
        assert find_long_induced_cycle(g) is None
    assert calls == []
    assert find_long_induced_cycle(fixture("C4")) == (0, 1, 2, 3)
    assert calls


def test_chordal_closure_of_random_chordal():
    for seed in range(25):
        g = random_chordal(8, seed)
        assert is_chordal(g)
        assert is_chordal(build_injective_hull(g).hull)


def test_square_chordal():
    assert is_square_chordal(fixture("C5"))  # C5^2 = K5
    assert not is_square_chordal(fixture("C8"))
    assert find_long_induced_cycle(fixture("C8").power(2)) is not None


def test_dh_graphs_are_square_chordal():
    for seed in range(20):
        assert is_square_chordal(random_dh(11, seed))


def test_bipartite_c4():
    coloring = is_bipartite(fixture("C4"))
    assert coloring is not None
    g = fixture("C4")
    for u, v in g.edges():
        assert coloring[u] != coloring[v]


def test_bipartite_c5_absent_with_odd_witness():
    assert is_bipartite(fixture("C5")) is None
    cycle = find_odd_cycle(fixture("C5"))
    assert cycle is not None and len(cycle) % 2 == 1
    g = fixture("C5")
    for i, u in enumerate(cycle):
        assert g.has_edge(u, cycle[(i + 1) % len(cycle)])


def test_bipartite_crown_sides():
    g = crown_family(4)
    coloring = is_bipartite(g)
    assert coloring is not None
    assert len({coloring[v] for v in range(4)}) == 1
    assert len({coloring[v] for v in range(4, 8)}) == 1


def test_split_k3():
    assert is_split(fixture("K3")) == ((0, 1, 2), ())


def test_split_c4_absent():
    assert is_split(fixture("C4")) is None


def test_split_family_partition():
    g = split_family(3)
    part = is_split(g)
    assert part is not None
    clique, independent = part
    assert set(independent) == set(range(6))  # X then Y
    assert set(clique) == set(range(6, 18))  # M blocks


def test_split_partition_is_verified():
    g = fixture("gem")
    part = is_split(g)
    assert part is not None
    clique, independent = part
    assert all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1:])
    assert not any(
        g.has_edge(u, v) for i, u in enumerate(independent) for v in independent[i + 1:]
    )
    assert is_split(fixture("house")) is None  # induced C4 forbids a split partition


def test_at_free_complete():
    assert is_at_free(fixture("K6"))


def test_c6_has_asteroidal_triple():
    triple = find_asteroidal_triple(fixture("C6"))
    assert triple == (0, 2, 4)
    assert not is_at_free(fixture("C6"))


def test_cocomparability_family_at_free():
    g, _ = cocomparability_family(3)
    assert is_at_free(g)


def test_verify_cocomparability_clique():
    g = fixture("K5")
    assert verify_cocomparability_ordering(g, (3, 1, 4, 0, 2))


def test_verify_cocomparability_family_ordering():
    g, order = cocomparability_family(3)
    assert verify_cocomparability_ordering(g, order)


def test_cocomparability_violation_reported():
    # a path ordered ends-first spans the middle without covering edges
    g = fixture("P3")
    violation = find_cocomparability_violation(g, (0, 2, 1))
    assert violation is None  # 0-1 edge does not span position-wise
    violation = find_cocomparability_violation(fixture("P4"), (0, 3, 1, 2))
    assert violation is not None


def test_cocomparability_rejects_non_permutation():
    with pytest.raises(ValueError):
        verify_cocomparability_ordering(fixture("K3"), (0, 1, 1))


@given(connected_graphs(max_n=7))
@settings(max_examples=40, deadline=None)
def test_chordal_matches_brute_force(g):
    assert is_chordal(g) == brute_force_chordal(g)


@pytest.mark.parametrize("seed", range(0, 120, 10))
def test_chordal_matches_brute_force_and_cycle_witness_on_seeded_graphs(seed):
    # Graphs and their squares: the earlier-neighbour clique check against the
    # induced-cycle search, and against the exhaustive scan up to 9 vertices.
    for s in range(seed, seed + 10):
        for n_max in (9, 24):
            g = random_connected_graph(s, 4, n_max)
            for h in (g, g.power(2)):
                assert is_chordal(h) == (find_long_induced_cycle(h) is None)
                if h.n <= 9:
                    assert is_chordal(h) == brute_force_chordal(h)


def _masks_along(g, order):
    """Each vertex of ``order`` with its neighbours earlier in it, as masks."""
    earlier, out = 0, []
    for v in order:
        out.append(g.adj[v] & earlier | 1 << v)
        earlier |= 1 << v
    return out


@pytest.mark.parametrize("n", [10, 30, 60, 90])
def test_chordal_order_matches_pairwise_clique_check(n):
    # The latest-neighbour test against every pair of earlier neighbours, on
    # graphs, squares and cubes that are and are not chordal
    graphs = [gen(n, seed) for gen in (random_chordal, random_dh) for seed in range(8)]
    graphs += [random_connected_graph(seed, n // 2, n) for seed in range(4)]
    answers = set()
    for g in graphs:
        for h in (g, g.power(2), g.power(3)):
            order = detectors._mcs_order(h)
            chordal = earlier_neighbours_are_cliques(h, order)
            assert detectors._clique_masks(h) == (_masks_along(h, order) if chordal else None)
            answers.add(chordal)
    assert answers == {False, True}


def test_chordal_order_is_built_once_per_graph(monkeypatch):
    calls, original = [], detectors._clique_masks

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(detectors, "_clique_masks", counted)
    monkeypatch.setattr(helly, "_clique_masks", counted)
    for g in (fixture("C4"), random_dh(40, 1), random_chordal(40, 1)):
        for _ in range(2):
            is_chordal(g), is_square_chordal(g), find_long_induced_cycle(g)
            maximal_two_sets(g)
        assert calls == [g, g.power(2)]
        calls.clear()


@given(connected_graphs(max_n=7))
@settings(max_examples=25, deadline=None)
def test_cocomparability_verifier_matches_triple_scan(g):
    order = tuple(range(g.n))
    expected = True
    for i in range(g.n):
        for j in range(i + 1, g.n):
            for k in range(j + 1, g.n):
                if g.has_edge(order[i], order[k]):
                    if not g.has_edge(order[i], order[j]) and not g.has_edge(order[j], order[k]):
                        expected = False
    assert verify_cocomparability_ordering(g, order) == expected
