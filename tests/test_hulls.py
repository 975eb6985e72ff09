import json
import random
import sys
from contextlib import contextmanager
from itertools import product

import pytest
from hypothesis import given, settings

from oracles import (
    blocks_by_separation,
    brute_force_extremal,
    chebyshev_pairs_windowed,
    chebyshev_rows_pairwise,
    extremal_dfs,
    hull_json_dumps,
    interval_scan,
    is_extremal,
    is_feasible,
    is_isometric_subgraph_apsp,
    tree_plus_chords,
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
from tightspan.graphs import _blocks
from tightspan.hulls import _chebyshev_rows, _farthest_first


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
    d = g.distances()
    for vec in enumerate_extremal_functions(g):
        assert is_extremal(vec, d)
        for x in range(g.n):
            lowered = list(vec)
            lowered[x] -= 1
            assert not is_feasible(tuple(lowered), d)


def test_enumeration_contains_all_distance_vectors():
    g = fixture("domino")
    vectors = set(enumerate_extremal_functions(g))
    for row in g.distances():
        assert tuple(row) in vectors


def test_vertex_cap():
    # Only the CLI reader caps n at 14; the library builds the 18-vertex split hull.
    h = build_injective_hull(split_family(3))
    assert (h.source.n, h.hull.n) == (18, 2**3 + 4 * 3 - 2)


@contextmanager
def _recursion_limit_above_caller(extra):
    """Lower the recursion limit to the caller's depth plus ``extra`` frames."""
    depth = 0
    frame = sys._getframe(2)  # the caller, past contextmanager's own frame
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + extra)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_recursion_depth_is_a_budget_error():
    # The search is as deep as the largest block. The limit is lowered so
    # that a 300-vertex cycle, one block, overflows it.
    cycle = Graph.from_edge_list(300, [(v, (v + 1) % 300) for v in range(300)])
    with _recursion_limit_above_caller(150):
        with pytest.raises(BudgetExceededError, match="ran out of recursion depth after"):
            enumerate_extremal_functions(cycle)


def test_hull_of_long_path_searches_nothing(monkeypatch):
    # Every block of a path is a bridge, so the hull is the path itself, built
    # without a search, under a limit a 300-vertex block would overflow.
    calls = []
    search = hulls._search
    monkeypatch.setattr(hulls, "_search", lambda *a: calls.append(a) or search(*a))
    path = Graph.from_edge_list(300, [(v, v + 1) for v in range(299)])
    with _recursion_limit_above_caller(150):
        assert enumerate_extremal_functions(path) == sorted(path.distances())
        h = build_injective_hull(path)
    assert h.hull == path and h.n_helly == 0
    assert calls == []


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
    d = h.source.distances()
    for z in range(h.n_real):
        assert h.vectors[z] == tuple(d[z])
    helly = [h.vectors[i] for i in range(h.n_real, h.hull.n)]
    assert helly == sorted(helly)
    # source vertex z is hull vertex z
    assert h.hull.induced(range(6)) == h.source


def test_hull_embedding_is_isometric():
    h = build_injective_hull(fixture("C6"))
    d = h.source.distances()
    dh = h.hull.distances()
    for z in range(6):
        for w in range(6):
            assert dh[z][w] == d[z][w]


@pytest.mark.parametrize("name", ["C4", "C6", "house", "gem"])
def test_hull_metric_matches_chebyshev_to_reals(name):
    # BFS hull distances agree with the vector formula, kept as a cross-check
    h = build_injective_hull(fixture(name))
    dh = h.hull.distances()
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
        iyx = interval_scan(g, y, x)
        for z in range(g.n):
            if z != x:
                iyz = interval_scan(g, y, z)
                assert not (iyx < iyz)
    # the opposite endpoint is a witness too
    assert not any(interval_scan(g, 2, 0) < interval_scan(g, 2, z) for z in (1, 2))


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


@pytest.mark.parametrize("z,x,y", [(2, 0, 7), (-1, 0, 2), (2, -1, 4), (2, 0, -3)])
def test_disk_separates_rejects_vertices_outside_graph(z, x, y):
    # P5 has vertices 0..4: y = 7 read as separated, z = -1 read vertex 4's
    # disk, and a negative x or y failed with "negative shift count"
    with pytest.raises(ValueError, match=r"outside 0\.\.4"):
        disk_separates(fixture("P5"), z, 0, x, y)


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


def test_hull_dot_escapes_labels():
    h = build_injective_hull(Graph.from_edge_list(2, [(0, 1)], labels=['a"b', "c\\"]))
    assert hull_to_dot(h) == (
        'graph H {\n  0 [label="a\\"b", shape=circle];\n'
        '  1 [label="c\\\\", shape=circle];\n  0 -- 1;\n}\n'
    )


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
    d = g.distances()
    for vec in h.vectors:
        assert all(0 <= vec[x] <= max(d[x]) for x in range(g.n))
    # the BFS gap equals the Chebyshev distance to the nearest real vector
    assert helly_gap(h) == max(
        (
            min(max(abs(a - b) for a, b in zip(h.vectors[i], h.vectors[z])) for z in range(g.n))
            for i in range(h.n_real, h.hull.n)
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


def _dfs_nodes(g, blocks):
    """The former DFS's node count over ``blocks``, each induced in the library's
    farthest-first order, which the search must match value for value."""
    d = g.distances()
    return sum(extremal_dfs(g.induced(_farthest_first(d, b)))[1] for b in blocks)


def _assert_same_search(g, label=None):
    """Same vectors as the former whole-graph DFS in source order, and a budget
    boundary at the sum of its node counts on the blocks that need a search."""
    nodes = _dfs_nodes(g, [b for b in blocks_by_separation(g) if len(b) > 2])
    assert enumerate_extremal_functions(g, max_nodes=nodes) == extremal_dfs(g)[0], label
    if nodes:
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


def _assert_farthest_first(g, label=None):
    """Each block's order is a permutation of it that starts at a vertex of
    largest eccentricity; each later vertex has the largest distance sum to
    those before it, and the lowest id among ties."""
    d = g.distances()
    for block in _blocks(g):
        order = _farthest_first(d, block)
        assert sorted(order) == block, label
        ecc = {a: max(d[a][b] for b in block) for a in block}
        assert ecc[order[0]] == max(ecc.values()), label
        for k, a in enumerate(order):
            score = ecc.__getitem__ if k == 0 else lambda b: sum(d[b][c] for c in order[:k])
            assert a == max(sorted(order[k:]), key=score), label


def test_farthest_first_order_corpus(corpus):
    for name, g in corpus:
        _assert_farthest_first(g, name)
    _assert_farthest_first(_glued())
    assert _farthest_first(fixture("C6").distances(), list(range(6))) == [0, 3, 1, 4, 2, 5]


@given(connected_graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_farthest_first_order_random(g):
    _assert_farthest_first(g)


# Search nodes of the extremal enumeration in the library's order, measured with
# tests/oracles.extremal_dfs (the former DFS) on the farthest-first induced copy.
# Any change to the vertex order, the value order or the pruning moves them.
SEARCH_NODES = {
    "crown6": 738,
    "crown7": 1327,
    "crown8": 2438,
    "crown9": 4583,
    "crown10": 8786,
    "C12": 7843,
    "C13": 10107,
    "C14": 26450,
    "C15": 30391,
    "C16": 85626,
    "C17": 86918,
    "split2": 292,
    "cocomparability2": 299,
}

# Searches too large for the pairwise Chebyshev oracle of FAMILY_HULLS, pinned
# by their hull sizes and, but for C18, their node counts: 2k + 2^k for the
# k-crown, (3^k + 1) / 2 for C_2k, and 683 and 1786 for C15 and C17
LARGE_SEARCHES = {
    "crown8": (lambda: crown_family(8), 2 * 8 + 2**8),
    "crown9": (lambda: crown_family(9), 2 * 9 + 2**9),
    "crown10": (lambda: crown_family(10), 2 * 10 + 2**10),
    "C15": (lambda: fixture("C15"), 683),
    "C16": (lambda: fixture("C16"), (3**8 + 1) // 2),
    "C17": (lambda: fixture("C17"), 1786),
    "C18": (lambda: fixture("C18"), (3**9 + 1) // 2),
}


@pytest.mark.parametrize("name", sorted(SEARCH_NODES))
def test_search_node_counts_pinned(name):
    build, size = LARGE_SEARCHES.get(name) or (FAMILY_HULLS[name], None)
    g = build()
    nodes = SEARCH_NODES[name]
    vectors = enumerate_extremal_functions(g, max_nodes=nodes)  # the whole search fits
    assert size is None or len(vectors) == size
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


def _windowed_rows(vectors):
    """Rows of the former packed-lane window scan, which needs the vectors
    sorted, put back into the order of ``vectors``."""
    order = sorted(range(len(vectors)), key=vectors.__getitem__)
    rows = [0] * len(vectors)
    for i, j in chebyshev_pairs_windowed([vectors[a] for a in order]):
        a, b = order[i], order[j]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    return rows


@pytest.mark.parametrize("top, dim", [(1, 5), (2, 4), (3, 3), (4, 3), (7, 2)])
def test_chebyshev_pairs_on_full_grids(top, dim):
    # Every vector of {0..top}^dim, sorted, then shuffled: the slices need no
    # order, and the hull's canonical order is not sorted. top + 1 = 2, 4 and 8
    # are powers of two, where the windowed scan's lane width steps up.
    vectors = list(product(range(top + 1), repeat=dim))
    shuffled = vectors[:]
    random.Random(top * 10 + dim).shuffle(shuffled)
    for order in (vectors, shuffled):
        rows = _chebyshev_rows(order)
        assert rows == _windowed_rows(order)
        assert rows == chebyshev_rows_pairwise(order)


# Hulls too large for the pairwise oracle, checked against the windowed scan
@pytest.mark.parametrize("name", ["C15", "crown8"])
def test_large_hull_rows_match_windowed_oracle(name):
    build, size = LARGE_SEARCHES[name]
    h = build_injective_hull(build())
    assert h.hull.n == size
    assert list(h.hull.adj) == _windowed_rows(h.vectors)


def test_c16_hull_counts_pinned():
    # the edges were counted with the windowed scan
    build, size = LARGE_SEARCHES["C16"]
    h = build_injective_hull(build())
    assert h.hull.n == size == 3281
    assert h.hull.m == 678_032


# Counts only, no oracle; the edges were counted with the former vertex order
@pytest.mark.parametrize(
    "name, vertices, edges",
    [("crown10", 1044, 534_106), ("C17", 1786, 171_870), ("C18", 9842, 4_326_142)],
)
def test_larger_hull_counts_pinned(name, vertices, edges):
    build, size = LARGE_SEARCHES[name]
    h = build_injective_hull(build())
    assert h.hull.n == size == vertices
    assert h.hull.m == edges


def test_hull_never_builds_hull_distances():
    for g in (fixture("C10"), _glued()):
        assert build_injective_hull(g).hull._dm is None
    h = hellify_dh(random_dh(10, 9))
    assert len(h.vectors) == h.hull.n and h.n_helly == 2
    assert h.hull._dm is None


@pytest.mark.parametrize("name", ["K1", "K2", "C4", "C5", "crown4", "C10"] + DH_HULLS)
def test_hull_json_matches_json_dumps(name):
    h = _hull(name)
    assert hull_to_json(h) == hull_json_dumps(h)


@pytest.mark.parametrize("drop", [0, 1])
def test_hull_consistency_check_fires(monkeypatch, drop):
    # Case 0 drops the edge between real vertices 0 and 1 of C6, so the
    # isometric embedding breaks. Case 1 drops the edge from real vertex 0 to
    # its first Helly neighbour: the reals stay isometric, and only the Helly
    # vertices' distances to them change.
    rows_of = hulls._chebyshev_rows

    def dropped(vectors):
        rows = rows_of(vectors)
        helly = rows[0] >> 6
        assert rows[0] & 2 and helly
        b = 1 if drop == 0 else 5 + (helly & -helly).bit_length()
        rows[0] ^= 1 << b
        rows[b] ^= 1
        return rows

    monkeypatch.setattr(hulls, "_chebyshev_rows", dropped)
    with pytest.raises(RuntimeError, match="internal consistency failure"):
        build_injective_hull(fixture("C6"))


@given(connected_graphs(max_n=8))
@settings(max_examples=100, deadline=None)
def test_hull_fast_paths_match_oracles_random(g):
    h = build_injective_hull(g)
    assert list(h.hull.adj) == chebyshev_rows_pairwise(h.vectors)
    assert is_isometric_subgraph_apsp(g, h.hull, range(g.n))
    assert hull_to_json(h) == hull_json_dumps(h)


# -- hulls by blocks against the whole-graph enumeration ----------------------


def _assert_blockwise(g, label=None, h=None):
    assert sorted(_blocks(g)) == blocks_by_separation(g), label
    h = h or build_injective_hull(g)
    assert sorted(h.vectors) == extremal_dfs(g)[0], label


def test_blocks_of_k1_and_k2():
    assert _blocks(fixture("K1")) == blocks_by_separation(fixture("K1")) == []
    assert _blocks(fixture("K2")) == blocks_by_separation(fixture("K2")) == [[0, 1]]


def test_blockwise_matches_whole_enumeration_corpus(corpus_hulls, corpus):
    for name, g in corpus:
        _assert_blockwise(g, name, corpus_hulls[name])


@given(connected_graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_blockwise_matches_whole_enumeration_random(g):
    _assert_blockwise(g)


@pytest.mark.parametrize("n", [6, 9, 12])
@pytest.mark.parametrize("seed", range(5))
def test_blockwise_matches_whole_enumeration_sparse(n, seed):
    _assert_blockwise(tree_plus_chords(n, seed), (n, seed))


# crown4 on 0..7, a C5 through vertex 0 and the path 5-12-13: two blocks that
# need the search and two bridges
GLUED_BLOCKS = [list(range(8)), [0, 8, 9, 10, 11], [5, 12], [12, 13]]


def _glued():
    cycle = [(0, 8), (8, 9), (9, 10), (10, 11), (11, 0)]
    return Graph.from_edge_list(14, crown_family(4).edges() + cycle + [(5, 12), (12, 13)])


def test_glued_blocks_hull():
    g = _glued()
    assert sorted(_blocks(g)) == sorted(GLUED_BLOCKS)
    assert [build_injective_hull(g.induced(b)).hull.n for b in GLUED_BLOCKS[:2]] == [24, 6]
    h = build_injective_hull(g)
    assert h.hull.n == 24 + 6 - 1 + 2 == 31
    assert sorted(h.vectors) == extremal_dfs(g)[0]


def test_build_computes_one_distance_matrix(monkeypatch):
    # the source's; the blocks read its rows, and the hull's vectors come from BFS
    fresh, distances = [], Graph.distances

    def counted(self):
        if self._dm is None:
            fresh.append(self.n)
        return distances(self)

    monkeypatch.setattr(Graph, "distances", counted)
    assert build_injective_hull(_glued()).hull.n == 31
    assert fresh == [14]


def test_blocks_share_the_node_budget():
    g = _glued()
    nodes = _dfs_nodes(g, GLUED_BLOCKS[:2])
    assert build_injective_hull(g, max_nodes=nodes).hull.n == 31
    with pytest.raises(BudgetExceededError) as exc:
        build_injective_hull(g, max_nodes=nodes - 1)
    assert str(exc.value) == f"hull enumeration exceeded {nodes - 1} search nodes"


def test_enumerating_again_holds_no_more_memory(traced_rounds):
    # The search's nested dfs reaches itself through its closure cell; unless
    # the cell is cleared, each block's function, cells, bound rows and found
    # vectors wait for the cyclic collector, which is off here.
    graphs = [fixture("C10"), crown_family(5), _glued()]

    def call():
        for g in graphs:
            enumerate_extremal_functions(g)

    held = traced_rounds(call)
    assert held[-1] - held[1] < 4096, held
