import json
import sys
from itertools import product

import pytest
from hypothesis import given, settings

from oracles import (
    brute_force_extremal,
    chebyshev_rows_pairwise,
    extremal_dfs,
    hull_json_dumps,
    is_extremal,
    is_feasible,
    is_isometric_subgraph_apsp,
)
from strategies import connected_graphs
from tightspan import (
    BudgetExceededError,
    Graph,
    build_injective_hull,
    cocomparability_family,
    crown_family,
    disk_separates,
    enumerate_extremal_functions,
    fixture,
    hellify_dh,
    helly_gap,
    hull_to_dot,
    hull_to_json,
    peripheral_vertices,
    random_dh,
    split_family,
)
from tightspan import hulls
from tightspan.hulls import _chebyshev_pairs


def test_enumerate_k1():
    assert enumerate_extremal_functions(fixture("K1")) == [(0,)]


def test_enumerate_c4():
    # 4 distance vectors plus the single all-ones hub, frozen from the
    # exhaustive scan over vectors with f(x) <= ecc(x) = 2
    assert enumerate_extremal_functions(fixture("C4")) == [
        (0, 1, 2, 1),
        (1, 0, 1, 2),
        (1, 1, 1, 1),
        (1, 2, 1, 0),
        (2, 1, 0, 1),
    ]


def test_enumerate_c5():
    vectors = enumerate_extremal_functions(fixture("C5"))
    assert len(vectors) == 6
    assert (1, 1, 1, 1, 1) in vectors


@pytest.mark.parametrize("name", ["C4", "C6", "P5", "house", "gem", "W5"])
def test_enumerate_matches_brute_force(name):
    g = fixture(name)
    assert enumerate_extremal_functions(g) == brute_force_extremal(g)


@pytest.mark.parametrize("name", ["C6", "domino", "W4"])
def test_minimality_characterization(name):
    # a feasible vector is extremal iff lowering any coordinate breaks feasibility
    g = fixture(name)
    d = g.distances().rows
    for vec in enumerate_extremal_functions(g):
        assert is_extremal(vec, d)
        for x in range(g.n):
            lowered = list(vec)
            lowered[x] -= 1
            assert not is_feasible(tuple(lowered), d)


def test_enumeration_contains_all_distance_vectors():
    g = fixture("domino")
    vectors = set(enumerate_extremal_functions(g))
    for row in g.distances().rows:
        assert tuple(row) in vectors


def test_vertex_cap():
    # Only the CLI reader caps n at 14; the library builds the 18-vertex split hull.
    h = build_injective_hull(split_family(3))
    assert (h.source.n, h.hull.n) == (18, 2**3 + 4 * 3 - 2)


def test_recursion_depth_is_a_budget_error():
    # The search is n deep. The limit is lowered so that a 300-vertex path
    # overflows it; a real 1100-vertex path takes about 2 s to get there.
    depth = 0
    frame = sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    path = Graph.from_edge_list(300, [(v, v + 1) for v in range(299)])
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 150)
    try:
        with pytest.raises(BudgetExceededError, match="ran out of recursion depth after"):
            enumerate_extremal_functions(path)
    finally:
        sys.setrecursionlimit(limit)


def test_node_budget_reported():
    with pytest.raises(BudgetExceededError, match="nodes"):
        enumerate_extremal_functions(fixture("C8"), max_nodes=5)


def test_hull_of_tree_is_tree():
    tree = fixture("P6")
    h = build_injective_hull(tree)
    assert h.hull == tree
    assert h.n_helly == 0
    assert helly_gap(h) == 0


def test_hull_c4_is_w4():
    h = build_injective_hull(fixture("C4"))
    assert (h.hull.n, h.hull.m) == (5, 8)
    assert h.hull == fixture("W4")
    assert h.n_helly == 1
    assert helly_gap(h) == 1


def test_hull_c5_is_w5():
    h = build_injective_hull(fixture("C5"))
    assert (h.hull.n, h.hull.m) == (6, 10)
    assert h.hull == fixture("W5")


def test_hull_canonical_order():
    h = build_injective_hull(fixture("C6"))
    d = h.source.distances().rows
    for z in range(h.n_real):
        assert h.vectors[z] == tuple(d[z])
    helly = [h.vectors[i] for i in h.helly_vertices()]
    assert helly == sorted(helly)
    # source vertex z is hull vertex z
    assert h.hull.induced(range(6)) == h.source


def test_hull_embedding_is_isometric():
    h = build_injective_hull(fixture("C6"))
    d = h.source.distances().rows
    dh = h.hull.distances().rows
    for z in range(6):
        for w in range(6):
            assert dh[z][w] == d[z][w]


@pytest.mark.parametrize("name", ["C4", "C6", "house", "gem"])
def test_hull_metric_matches_chebyshev_to_reals(name):
    # BFS hull distances agree with the vector formula, kept as a cross-check
    h = build_injective_hull(fixture(name))
    dh = h.hull.distances().rows
    for i in range(h.hull.n):
        for z in range(h.n_real):
            cheb = max(abs(a - b) for a, b in zip(h.vectors[i], h.vectors[z]))
            assert dh[i][z] == cheb


def test_helly_gap_at_free_instance():
    g, _ = cocomparability_family(2)
    assert helly_gap(build_injective_hull(g)) <= 2


def test_peripheral_p3():
    g = fixture("P3")
    per = peripheral_vertices(g)
    assert set(per) == {0, 2}
    # recorded witnesses really witness: no other vertex strictly extends I(y, x)
    for x, y in per.items():
        iyx = g.interval(y, x)
        for z in range(g.n):
            if z != x:
                iyz = g.interval(y, z)
                assert not (iyx < iyz)
    # the opposite endpoint is a witness too
    assert not any(g.interval(2, 0) < g.interval(2, z) for z in (1, 2))


def test_peripheral_k3():
    assert set(peripheral_vertices(fixture("K3"))) == {0, 1, 2}


def test_peripheral_of_hull_c4_excludes_hub():
    h = build_injective_hull(fixture("C4"))
    assert set(peripheral_vertices(h.hull)) == {0, 1, 2, 3}


def test_disk_separates_path_center():
    assert disk_separates(fixture("P3"), 1, 0, 0, 2)


def test_disk_separates_c4_goes_around():
    assert not disk_separates(fixture("C4"), 0, 0, 1, 3)


def test_disk_separates_precondition():
    with pytest.raises(ValueError, match="outside"):
        disk_separates(fixture("P3"), 1, 1, 0, 2)


def test_disk_separates_split_family_single_clique_vertex():
    g = split_family(4)
    # x_i = i-1, y_i = k+i-1, clique M = ids 8..23
    for m in range(8, 24):
        for i in range(4):
            assert not disk_separates(g, m, 0, i, 4 + i)


# ``dh10-<seed>`` is the linear-algorithm hull of random_dh(10, seed), read
# by the same writers as the enumeration hulls
DH_HULLS = [f"dh10-{seed}" for seed in range(20)]


def _hull(name):
    if name.startswith("dh10-"):
        return hellify_dh(random_dh(10, int(name[5:])))
    return build_injective_hull(crown_family(4) if name == "crown4" else fixture(name))


def test_hull_json_schema():
    h = build_injective_hull(fixture("C4"))
    doc = json.loads(hull_to_json(h))
    assert doc["n_real"] == 4 and doc["n_helly"] == 1
    assert doc["vertices"][0] == {"id": 0, "real": True, "vector": [0, 1, 2, 1]}
    assert doc["vertices"][4]["real"] is False
    assert [4, 0] not in doc["edges"]
    assert all(u < v for u, v in doc["edges"])


def test_hull_dot_shapes():
    h = build_injective_hull(fixture("C4"))
    dot = hull_to_dot(h)
    assert dot.startswith("graph H {\n")
    assert "shape=circle" in dot and "shape=square" in dot
    for h in map(_hull, DH_HULLS):
        dot = hull_to_dot(h)
        assert dot.startswith("graph H {\n")
        assert dot.count("shape=circle") == h.n_real and dot.count("shape=square") == h.n_helly
        assert hull_to_json(h) == hull_json_dumps(h)


@given(connected_graphs(max_n=6))
@settings(max_examples=30, deadline=None)
def test_hull_invariants_random(g):
    h = build_injective_hull(g)
    # Peripheral vertices of the hull are real
    assert all(p < h.n_real for p in peripheral_vertices(h.hull))
    # every extremal vector is bounded by eccentricity
    ecc = g.distances().ecc
    for vec in h.vectors:
        assert all(0 <= vec[x] <= ecc[x] for x in range(g.n))
    # the BFS gap equals the Chebyshev distance to the nearest real vector
    assert helly_gap(h) == max(
        (
            min(max(abs(a - b) for a, b in zip(h.vectors[i], h.vectors[z])) for z in range(g.n))
            for i in h.helly_vertices()
        ),
        default=0,
    )


# -- fast paths against their oracles -----------------------------------------

FAMILY_HULLS = {
    **{f"C{k}": lambda k=k: fixture(f"C{k}") for k in range(4, 15)},
    **{f"crown{k}": lambda k=k: crown_family(k) for k in range(4, 8)},
    "split2": lambda: split_family(2),
    "cocomparability2": lambda: cocomparability_family(2)[0],
}


def _assert_same_search(g, label=None):
    """Same vectors as the former DFS, and a budget boundary at its node count."""
    vectors, nodes = extremal_dfs(g)
    assert enumerate_extremal_functions(g, max_nodes=nodes) == vectors, label
    with pytest.raises(BudgetExceededError, match=f"exceeded {nodes - 1} search nodes"):
        enumerate_extremal_functions(g, max_nodes=nodes - 1)


SEARCH_ORACLE_FAMILIES = {
    **{f"C{k}": lambda k=k: fixture(f"C{k}") for k in range(3, 13)},
    **{f"crown{k}": lambda k=k: crown_family(k) for k in range(3, 7)},
    "split2": lambda: split_family(2),
    "cocomparability2": lambda: cocomparability_family(2)[0],
}


@pytest.mark.parametrize("name", sorted(SEARCH_ORACLE_FAMILIES))
def test_search_matches_dfs_oracle_families(name):
    _assert_same_search(SEARCH_ORACLE_FAMILIES[name](), name)


def test_search_matches_dfs_oracle_corpus(corpus):
    for name, g in corpus:
        _assert_same_search(g, name)


@given(connected_graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_search_matches_dfs_oracle_random(g):
    _assert_same_search(g)


# Search nodes of the extremal enumeration, measured with tests/oracles.extremal_dfs
# (the former DFS). Any change to the value order or the pruning moves them.
SEARCH_NODES = {
    "crown6": 5232,
    "crown7": 15065,
    "C12": 14961,
    "C13": 12421,
    "C14": 58755,
    "split2": 305,
    "cocomparability2": 312,
}


@pytest.mark.parametrize("name", sorted(SEARCH_NODES))
def test_search_node_counts_pinned(name):
    g = FAMILY_HULLS[name]()
    nodes = SEARCH_NODES[name]
    enumerate_extremal_functions(g, max_nodes=nodes)  # the whole search fits
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_extremal_functions(g, max_nodes=nodes - 1)
    assert str(exc.value) == f"hull enumeration exceeded {nodes - 1} search nodes"


@pytest.mark.parametrize("name", sorted(FAMILY_HULLS))
def test_hull_rows_match_pairwise_oracle(name):
    h = build_injective_hull(FAMILY_HULLS[name]())
    assert list(h.hull.adj) == chebyshev_rows_pairwise(h.vectors)


def test_corpus_hulls_match_oracles(corpus_hulls):
    for name, h in corpus_hulls.items():
        assert list(h.hull.adj) == chebyshev_rows_pairwise(h.vectors), name
        assert is_isometric_subgraph_apsp(h.source, h.hull, range(h.n_real)), name
        assert hull_to_json(h) == hull_json_dumps(h), name


@pytest.mark.parametrize("top, dim", [(1, 5), (2, 4), (3, 3), (4, 3), (7, 2)])
def test_chebyshev_pairs_on_full_grids(top, dim):
    # Every vector of {0..top}^dim, sorted. top + 1 = 2, 4 and 8 are powers of
    # two, where the lane width steps up: the largest lane value, top + 1,
    # sets the highest bit below the guard.
    vectors = list(product(range(top + 1), repeat=dim))
    rows = [0] * len(vectors)
    for i, j in _chebyshev_pairs(vectors):
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    assert rows == chebyshev_rows_pairwise(vectors)


def test_hull_never_builds_hull_distances():
    h = build_injective_hull(fixture("C10"))
    assert h.hull._dm is None
    h = hellify_dh(random_dh(10, 9))
    assert len(h.vectors) == h.hull.n and h.n_helly == 2
    assert h.hull._dm is None


@pytest.mark.parametrize("name", ["K1", "K2", "C4", "C5", "crown4", "C10"] + DH_HULLS)
def test_hull_json_matches_json_dumps(name):
    h = _hull(name)
    assert hull_to_json(h) == hull_json_dumps(h)


@pytest.mark.parametrize("drop", [0, 1])
def test_hull_consistency_check_fires(monkeypatch, drop):
    # Pair 0 joins real vertices 0 and 1 of C6, so the isometric embedding
    # breaks. Pair 1 joins real vertex 0 to a Helly vertex: the reals stay
    # isometric, and only the Helly vertices' distances to them change.
    pairs = hulls._chebyshev_pairs
    monkeypatch.setattr(hulls, "_chebyshev_pairs", lambda v: [p for k, p in enumerate(pairs(v)) if k != drop])
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        build_injective_hull(fixture("C6"))


@given(connected_graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_hull_fast_paths_match_oracles_random(g):
    h = build_injective_hull(g)
    assert list(h.hull.adj) == chebyshev_rows_pairwise(h.vectors)
    assert is_isometric_subgraph_apsp(g, h.hull, range(g.n))
    assert hull_to_json(h) == hull_json_dumps(h)
