import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import is_isometric_subgraph_apsp
from strategies import connected_graphs
from tightspan import (
    DisconnectedGraphError,
    Graph,
    build_injective_hull,
    fixture,
    format_edge_list,
    hellify_dh,
    is_isometric_subgraph,
    parse_edge_list,
    random_dh,
    split_family,
    to_dot,
)
from tightspan.dh import pruning_sequence, replay


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
    g = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])  # edges 0-1 and 2-3
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
    with pytest.raises(ValueError, match="^n=1000 exceeds the size cap 512$"):
        parse_edge_list("1000 0\n", max_vertices=512)


def test_library_has_no_size_cap():
    # only the reader caps n by default; a library caller builds a long path
    path = Graph.from_edge_list(1100, [(v, v + 1) for v in range(1099)])
    assert (path.n, path.m) == (1100, 1099)


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
    g = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])  # edges 0-1 and 2-3
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
    host = Graph(5, fixture("C4").adj + (0,))  # C4 and an isolated vertex
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


@pytest.mark.parametrize("embed", [(0, 1, 2, 6), (0, -1, 2, 3)])
def test_isometric_rejects_vertices_outside_host(embed):
    c4, c6 = fixture("C4"), fixture("C6")
    with pytest.raises(ValueError) as info:
        is_isometric_subgraph(c4, c6, embed)
    assert str(info.value) == "embedding has vertices outside 0..5"


def _connected_subset(g, rng):
    """A random vertex list of g whose induced subgraph is connected."""
    chosen = [rng.randrange(g.n)]
    reach = g.adj[chosen[0]]
    for _ in range(rng.randrange(g.n)):
        frontier = [v for v in range(g.n) if reach >> v & 1 and v not in chosen]
        if not frontier:
            break
        v = rng.choice(frontier)
        chosen.append(v)
        reach |= g.adj[v]
    rng.shuffle(chosen)
    return chosen


def test_isometric_matches_apsp_oracle_corpus(corpus):
    # Induced connected subgraphs in place, then with two images swapped
    outcomes = set()
    for index, (name, g) in enumerate(corpus):
        rng = random.Random(index)
        for _ in range(3):
            verts = _connected_subset(g, rng)
            sub = g.induced(verts)
            embeds = [verts]
            if len(verts) > 1:
                i, j = rng.sample(range(len(verts)), 2)
                swapped = list(verts)
                swapped[i], swapped[j] = swapped[j], swapped[i]
                embeds.append(swapped)
            for embed in embeds:
                expected = is_isometric_subgraph_apsp(sub, g, embed)
                assert is_isometric_subgraph(sub, g, embed) is expected, (name, embed)
                outcomes.add(expected)
    assert outcomes == {True, False}


def test_induced_subgraph():
    house = fixture("house")
    sub = house.induced([0, 1, 4])
    assert sub == fixture("K3")


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([], "graph needs at least one vertex"),
        ([0, 5], "vertices outside 0..4"),
        ([-1, 0], "vertices outside 0..4"),
        ([0, 1, 0], "duplicate vertices"),
    ],
)
def test_induced_rejects_bad_vertex_lists(vertices, message):
    with pytest.raises(ValueError) as info:
        fixture("house").induced(vertices)
    assert str(info.value) == message


def test_internal_builders_skip_the_public_checks(monkeypatch):
    dh_inputs = [random_dh(60, seed) for seed in range(3)]
    c6, c7 = fixture("C6"), fixture("C7")
    seq = pruning_sequence(random_dh(40, 7))
    calls = []
    checked = Graph.__init__

    def spy(self, *args, **kwargs):
        calls.append(args)
        checked(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", spy)
    for g in dh_inputs:
        hellify_dh(g)
    build_injective_hull(c6)
    c7.power(2)
    replay(seq)
    assert calls == []
    Graph(1, [0])  # the spy does see the public constructor
    assert len(calls) == 1


def test_internal_builders_output_passes_the_public_checks(corpus, corpus_hulls):
    built = []
    for name, g in corpus:
        built += [g, g.power(2), g.power(3), corpus_hulls[name].hull]
        built.append(g.induced(range(g.n - 1, -1, -1)))
    for seed in range(10):
        g = random_dh(60, seed)
        built += [g, replay(pruning_sequence(g)), hellify_dh(g).hull]
        built.append(g.induced(range(0, g.n, 2)))
    for h in built:
        assert Graph(h.n, h.adj, h.labels) == h


def test_edge_list_round_trip():
    g = split_family(2)
    assert parse_edge_list(format_edge_list(g)) == g


def test_edge_list_comments_and_blanks():
    g = parse_edge_list("# a triangle\n3 3\n\n0 1\n1 2 # chord\n0 2\n")
    assert g == fixture("K3")


@pytest.mark.parametrize(
    "text",
    # int() reads the last three's "+1", "0_1" and Arabic-Indic "1" as 1
    ["", "3\n", "3 2\n0 1\n", "2 1\n0 1 2\n", "2 1\n0 +1\n", "2 1\n0 0_1\n", "2 1\n0 \u0661\n"],
)
def test_edge_list_malformed(text):
    with pytest.raises(ValueError):
        parse_edge_list(text)


_TOKENS = st.integers(-3, 9).map(str) | st.sampled_from(
    ["-100000000000000000000", "100000000000000000000", "x", "1.5", "0x1", "#", "# c"]
    + ["+3", "1_0", "\u0663"]  # int() takes these; the format does not
)
_LINES = st.lists(_TOKENS, max_size=3).map(" ".join)


@given(st.lists(_LINES, max_size=8).map("\n".join))
@example("-99999999999999999999 0\n")
@settings(max_examples=300)
def test_parse_edge_list_fuzz(text):
    """Arbitrary text parses to a connected graph or fails with a ValueError
    (DisconnectedGraphError is one), never with any other exception."""
    try:
        g = parse_edge_list(text)
    except ValueError:
        return
    assert isinstance(g, Graph) and g.is_connected()


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
    for k in (1, 2, 3, 4, g.n):
        rows = tuple(
            sum(1 << v for v in range(g.n) if 1 <= d[u][v] <= k) for u in range(g.n)
        )
        assert g.power(k).adj == rows
    # at k >= diameter every pair is joined
    full = (1 << g.n) - 1
    assert g.power(g.n).adj == tuple(full & ~(1 << u) for u in range(g.n))
