import pytest
from hypothesis import given, settings

from oracles import is_isometric_subgraph_apsp
from strategies import connected_graphs
from tightspan import (
    DisconnectedGraphError,
    Graph,
    build_injective_hull,
    fixture,
    format_edge_list,
    is_isometric_subgraph,
    parse_edge_list,
    split_family,
    to_dot,
)


def test_single_vertex():
    g = Graph.from_edge_list(1, [])
    assert g.n == 1 and g.m == 0
    assert g.distances().diameter == 0


def test_c4_construction():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert g.m == 4
    assert g.neighbors(0) == (1, 3)


def test_k4_construction():
    g = Graph.from_edge_list(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert g.m == 6
    assert all(g.degree(v) == 3 for v in range(4))


def test_duplicate_edges_collapse():
    g = Graph.from_edge_list(3, [(0, 1), (1, 0), (1, 2)])
    assert g.m == 2


def test_loop_rejected():
    with pytest.raises(ValueError, match="loop"):
        Graph.from_edge_list(3, [(0, 0), (0, 1), (1, 2)])


def test_out_of_range_rejected():
    with pytest.raises(ValueError, match="out of range"):
        Graph.from_edge_list(3, [(0, 3)])


def test_disconnected_rejected_by_default():
    with pytest.raises(DisconnectedGraphError):
        Graph.from_edge_list(4, [(0, 1), (2, 3)])


def test_disconnected_construction_defers_failure_to_metric_ops():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)], require_connected=False)
    with pytest.raises(DisconnectedGraphError):
        g.distances()


@pytest.mark.parametrize(
    "n, rows, labels, message",
    [
        (0, [], None, "graph needs at least one vertex"),
        (2, [0b10], None, "adjacency row count does not match n"),
        (2, [0b100, 0b000], None, "row 0 has bits outside 0..1"),
        (1, [0b1], None, "loop at vertex 0"),
        (2, [0b10, 0b00], None, "asymmetric edge 0-1"),
        (2, [0b10, 0b01], ["a"], "label count does not match n"),
    ],
)
def test_raw_constructor_errors(n, rows, labels, message):
    with pytest.raises(ValueError) as info:
        Graph(n, rows, labels)
    assert str(info.value) == message


def test_size_cap():
    with pytest.raises(ValueError, match="size cap"):
        Graph.from_edge_list(1000, [], max_vertices=512)


def test_distances_c4():
    dm = fixture("C4").distances()
    assert dm.diameter == 2 and dm.radius == 2
    assert dm.dist(0, 2) == 2


def test_distances_p4():
    dm = fixture("P4").distances()
    assert dm.diameter == 3 and dm.radius == 2


def test_distances_split_family_diameter():
    assert split_family(4).distances().diameter == 3


def test_interval_c4_opposite():
    g = fixture("C4")
    assert g.interval(0, 2) == {0, 1, 2, 3}


def test_interval_degenerate():
    g = fixture("C4")
    assert g.interval(1, 1) == {1}


def test_interval_c5():
    g = fixture("C5")
    assert g.interval(0, 2) == {0, 1, 2}


def test_interval_slice():
    g = fixture("C5")
    assert g.interval_slice(0, 2, 0) == {0}
    assert g.interval_slice(0, 2, 1) == {1}
    with pytest.raises(ValueError):
        g.interval_slice(0, 2, 3)


def test_disk():
    g = fixture("C4")
    assert g.disk(1, 0) == {1}
    assert g.disk(1, 1) == {0, 1, 2}
    assert fixture("C5").disk(0, 2) == {0, 1, 2, 3, 4}


def test_power_identity():
    g = fixture("C5")
    assert g.power(1) == g


def test_power_c5_squared_is_complete():
    assert fixture("C5").power(2) == fixture("K5")


def test_power_c6_squared_from_distance_table():
    g = fixture("C6")
    d = g.distances().rows
    expected = Graph.from_edge_list(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if d[u][v] <= 2]
    )
    assert g.power(2) == expected
    # C6^2 is K6 minus the antipodal matching
    assert g.power(2).m == 12


def test_level_masks_c6():
    levels = fixture("C6").level_masks()
    assert levels[0] == [0b000001, 0b100010, 0b010100, 0b001000]


def test_level_masks_need_connected_graph():
    g = Graph.from_edge_list(4, [(0, 1), (2, 3)], require_connected=False)
    with pytest.raises(DisconnectedGraphError):
        g.level_masks()
    with pytest.raises(DisconnectedGraphError):
        g.power(2)


def test_square_is_cached():
    g = fixture("C6")
    assert g.power(2) is g.power(2)


def test_power_idempotent_on_result():
    g = fixture("C6")
    assert g.power(2).power(1) == g.power(2)


def test_isometric_identity():
    g = fixture("domino")
    assert is_isometric_subgraph(g, g, tuple(range(g.n)))


def test_c4_in_k4_not_isometric():
    args = (fixture("C4"), fixture("K4"), (0, 1, 2, 3))
    assert not is_isometric_subgraph(*args)
    assert not is_isometric_subgraph_apsp(*args)


def test_shortcut_edge_breaks_isometry():
    # P4 inside C6 is isometric; a chord from 0 to 3 shortcuts its ends
    p4, c6 = fixture("P4"), fixture("C6")
    chorded = Graph.from_edge_list(6, c6.edges() + [(0, 3)])
    for host, expected in ((c6, True), (chorded, False)):
        assert is_isometric_subgraph(p4, host, (0, 1, 2, 3)) is expected
        assert is_isometric_subgraph_apsp(p4, host, (0, 1, 2, 3)) is expected


@pytest.mark.parametrize("name", ["C4", "C5", "C6", "house", "domino"])
def test_hull_with_deleted_edge_not_isometric(name):
    # deleting the hull edge between real vertices 0 and 1 makes them 2 apart,
    # while the hull stays connected through the rest of the cycle
    g = fixture(name)
    hull = build_injective_hull(g).hull
    assert hull.has_edge(0, 1)
    edges = [e for e in hull.edges() if e != (0, 1)]
    cut = Graph.from_edge_list(hull.n, edges)
    assert not is_isometric_subgraph(g, cut, range(g.n))
    assert not is_isometric_subgraph_apsp(g, cut, range(g.n))


def test_isometric_needs_connected_host():
    host = Graph.from_edge_list(5, fixture("C4").edges(), require_connected=False)
    with pytest.raises(DisconnectedGraphError):
        is_isometric_subgraph(fixture("C4"), host, (0, 1, 2, 3))


def test_isometric_rejects_partial_embedding():
    with pytest.raises(ValueError, match="cover every vertex"):
        is_isometric_subgraph(fixture("C4"), fixture("C4"), (0, 1, 2))


def test_c4_isometric_in_its_hull():
    c4 = fixture("C4")
    hull = build_injective_hull(c4).hull
    assert is_isometric_subgraph(c4, hull, (0, 1, 2, 3))


def test_isometric_rejects_non_injective():
    g = fixture("C4")
    with pytest.raises(ValueError, match="injective"):
        is_isometric_subgraph(g, g, (0, 1, 2, 2))


def test_induced_subgraph():
    house = fixture("house")
    sub = house.induced([0, 1, 4])
    assert sub == fixture("K3")


def test_edge_list_round_trip():
    g = split_family(2)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a triangle\n3 3\n\n0 1\n1 2 # chord\n0 2\n")
    assert g == fixture("K3")


@pytest.mark.parametrize(
    "text", ["", "3\n", "3 2\n0 1\n", "2 1\n0 1 2\n"]
)
def test_edge_list_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


def test_to_dot_contains_labels():
    g = Graph.from_edge_list(2, [(0, 1)], labels=["left", "right"])
    dot = to_dot(g)
    assert dot.startswith("graph G {\n")
    assert 'label="left"' in dot and "0 -- 1;" in dot


@given(connected_graphs())
@settings(max_examples=60)
def test_metric_axioms(g):
    d = g.distances().rows
    for u in range(g.n):
        assert d[u][u] == 0
        for v in range(g.n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 0) == (u == v)
            for w in range(g.n):
                assert d[u][v] <= d[u][w] + d[w][v]


@given(connected_graphs())
@settings(max_examples=40)
def test_interval_contains_endpoints_and_slice_zero(g):
    for x in range(g.n):
        for y in range(g.n):
            iv = g.interval(x, y)
            assert x in iv and y in iv
            assert g.interval_slice(x, y, 0) == {x}


@given(connected_graphs())
@settings(max_examples=40)
def test_power_edges_superset(g):
    squared = g.power(2)
    for u in range(g.n):
        assert g.adj[u] & ~squared.adj[u] == 0


@given(connected_graphs())
@settings(max_examples=40)
def test_every_graph_isometric_in_itself(g):
    assert is_isometric_subgraph(g, g, tuple(range(g.n)))


@given(connected_graphs())
@settings(max_examples=60)
def test_level_masks_match_distance_rows(g):
    d = g.distances().rows
    levels = g.level_masks()
    for u in range(g.n):
        assert len(levels[u]) == max(d[u]) + 1
        for k, mask in enumerate(levels[u]):
            assert mask == sum(1 << v for v in range(g.n) if d[u][v] == k)


@given(connected_graphs())
@settings(max_examples=60)
def test_power_matches_distance_rows(g):
    d = g.distances().rows
    for k in (1, 2, 3):
        rows = tuple(
            sum(1 << v for v in range(g.n) if 1 <= d[u][v] <= k) for u in range(g.n)
        )
        assert g.power(k).adj == rows
