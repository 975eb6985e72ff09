import random
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    format_edge_list_by_edges,
    hull_to_dot_by_edges,
    is_isometric_subgraph_apsp,
    json_pairs_by_edges,
    to_dot_by_edges,
)
from strategies import connected_graphs
import tightspan
from tightspan import (
    DisconnectedGraphError,
    Graph,
    InjectiveHull,
    build_injective_hull,
    crown_family,
    disk_helly_up_to_radius,
    fixture,
    format_edge_list,
    hellify_dh,
    helly_gap,
    hull_to_dot,
    is_isometric_subgraph,
    parse_edge_list,
    peripheral_vertices,
    random_dh,
    split_family,
    to_dot,
)
from tightspan.dh import pruning_sequence, replay
from tightspan.graphs import _canonical_numbers, _general_numbers, _is_canonical, _json_edges

# perfbench/workloads.py is only read, for the seed-1 benchmark inputs.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import workloads  # noqa: E402


def test_power_index_below_one_is_rejected():
    with pytest.raises(ValueError, match="power index must be >= 1"):
        fixture("C5").power(0)


def test_hash_agrees_with_equality_across_constructors_and_labels():
    c5 = fixture("C5")
    same = [
        Graph(5, c5.adj),
        Graph(5, c5.adj, labels="abcde"),
        Graph.from_edge_list(5, reversed(c5.edges())),
        parse_edge_list(format_edge_list(c5)),
    ]
    for g in same:
        assert g == c5 and hash(g) == hash(c5)
    assert len({c5, *same}) == 1
    assert fixture("P5") != c5 and c5 != c5.adj


def test_repr_names_the_counts():
    assert repr(fixture("C5")) == "Graph(n=5, m=5)"


def test_helly_gap_rejects_a_disconnected_hull():
    h = InjectiveHull(fixture("K1"), Graph(2, [0, 0]))
    with pytest.raises(RuntimeError, match="hull is disconnected"):
        helly_gap(h)


def test_single_vertex():
    g = Graph.from_edge_list(1, [])
    assert g.n == 1 and g.m == 0
    assert g.distances() == ((0,),)


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
    assert fixture("C4").distances() == ((0, 1, 2, 1), (1, 0, 1, 2), (2, 1, 0, 1), (1, 2, 1, 0))


def test_distances_p4():
    assert fixture("P4").distances() == ((0, 1, 2, 3), (1, 0, 1, 2), (2, 1, 0, 1), (3, 2, 1, 0))


def test_distances_split_family_diameter():
    assert max(map(max, split_family(4).distances())) == 3


def test_power_identity():
    g = fixture("C5")
    assert g.power(1) == g


def test_power_c5_squared_is_complete():
    assert fixture("C5").power(2) == fixture("K5")


def test_power_c6_squared_from_distance_table():
    g = fixture("C6")
    d = g.distances()
    expected = Graph.from_edge_list(
        6, [(u, v) for u in range(6) for v in range(u + 1, 6) if d[u][v] <= 2]
    )
    assert g.power(2) == expected
    # C6^2 is K6 minus the antipodal matching
    assert g.power(2).m == 12


def test_level_masks_c6():
    # C6's disks around 0, and its BFS layers from 0 as their differences
    g = fixture("C6")
    disks = [g.disk_mask(0, k) for k in range(4)]
    assert disks == [0b000001, 0b100011, 0b110111, 0b111111]
    layers = [disks[0]] + [b ^ a for a, b in zip(disks, disks[1:])]
    assert layers == [0b000001, 0b100010, 0b010100, 0b001000]


def test_level_masks_need_connected_graph():
    g = Graph(4, [0b0010, 0b0001, 0b1000, 0b0100])  # edges 0-1 and 2-3
    for read in (
        g.distances,
        lambda: g.disk_mask(0, 1),
        lambda: g.power(2),
        lambda: disk_helly_up_to_radius(g, 2),
        lambda: peripheral_vertices(g),
    ):
        with pytest.raises(DisconnectedGraphError):
            read()


def test_fresh_distances_check_connectivity_once(monkeypatch):
    adj = fixture("C6").adj
    calls, is_connected = [], Graph.is_connected

    def counted(self):
        calls.append(self.n)
        return is_connected(self)

    monkeypatch.setattr(Graph, "is_connected", counted)
    g = Graph._of(6, adj)
    assert g.distances() is g.distances()
    assert calls == [6]


def _held_bytes(rows) -> int:
    """Bytes the rows hold: the tuples and each distinct int in them."""
    ints = {id(x): x for row in rows for x in row}
    # one int object per distance, however many rows hold it
    assert len(ints) == len(set(ints.values()))
    return sys.getsizeof(rows) + sum(map(sys.getsizeof, [*rows, *ints.values()]))


@pytest.mark.parametrize(
    "make", [lambda: random_dh(512, 1), lambda: fixture("P512")], ids=["random_dh(512, 1)", "P512"]
)
def test_distance_sweep_memory_stays_near_its_rows(make):
    # Besides the rows, the sweep holds its balls, their successors and the
    # totals, n ints of n bytes, and one n-byte part per vertex per 255
    # levels: 0.13 and 0.40 of the rows here. A list kept per level would
    # add up to n such ints a level, 1.7 and 71 times the rows. P512's rows
    # hold distances above 256, one shared int each (1.8 MB apart).
    g = make()
    tracemalloc.start()
    try:
        rows = g.distances()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * _held_bytes(rows)


def test_square_is_cached():
    g = fixture("C6")
    assert g.power(2) is g.power(2)


def test_every_power_is_cached():
    g = fixture("C6")
    assert g.power(3) is g.power(3)
    assert g.power(3) != g.power(2)


@pytest.mark.parametrize("v,r", [(-1, 0), (9, 1)])
def test_disk_mask_rejects_vertex_outside_graph(v, r):
    # -1 read vertex 3's disk, and 9 raised IndexError
    with pytest.raises(ValueError, match=rf"vertex {v} outside 0\.\.3"):
        fixture("C4").disk_mask(v, r)


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


def test_isometry_check_stops_at_the_first_failing_vertex(monkeypatch):
    # a host row is searched only when it is compared: once an embedded
    # vertex's row differs, no further BFS runs
    p4, c6 = fixture("P4"), fixture("C6")
    chorded = Graph.from_edge_list(6, c6.edges() + [(1, 4)])
    for g in (p4, c6, chorded):  # connectivity and P4's rows, cached before counting
        g.is_connected()
    p4.distances()
    calls, frontiers = [], Graph._frontiers

    def counted(self, start_mask, allowed):
        calls.append(start_mask)
        return frontiers(self, start_mask, allowed)

    monkeypatch.setattr(Graph, "_frontiers", counted)
    embed = (1, 2, 3, 4)
    assert is_isometric_subgraph(p4, c6, embed)
    assert calls == [1 << z for z in embed]
    calls.clear()
    assert not is_isometric_subgraph(p4, chorded, embed)
    assert calls == [1 << 1]


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


def test_to_dot_escapes_labels():
    g = Graph.from_edge_list(2, [(0, 1)], labels=['a"b', "c\\"])
    assert to_dot(g) == 'graph G {\n  0 [label="a\\"b"];\n  1 [label="c\\\\"];\n  0 -- 1;\n}\n'


# -- the canonical-form tokenizer against the general one -------------------


def _parse_general(text, max_vertices):
    """``parse_edge_list`` with the canonical tokenizer switched off."""
    with mock.patch.object(tightspan.graphs, "_canonical_numbers", lambda text: None):
        return parse_edge_list(text, max_vertices)


def _parsed(parse, text, max_vertices):
    """What ``parse`` makes of ``text``: the graph's rows, or the error's type and message."""
    try:
        g = parse(text, max_vertices)
    except ValueError as exc:
        return type(exc), str(exc)
    return g.n, g.adj


def _path_text(n):
    return f"{n} {n - 1}\n" + "".join(f"{v} {v + 1}\n" for v in range(n - 1))


_DIGITS = "9" * 5000  # past int()'s 4300-digit limit


_NEAR_CANONICAL = {
    "digit-limit-edge": (f"3 5\n0 {_DIGITS}\n", 512),
    "digit-limit-last": (f"3 2\n0 1\n1 {_DIGITS}\n", 512),
    "digit-limit-n": (f"{_DIGITS} 0\n", 512),
    "no-final-newline": ("3 2\n0 1\n1 2", 512),
    "no-final-newline-two-digits": ("3 2\n0 1\n1 20", 512),
    "crlf": ("3 2\r\n0 1\r\n1 2\r\n", 512),
    "double-space": ("3 2\n0  1\n1 2\n", 512),
    "leading-zero-id": ("3 2\n0 01\n1 2\n", 512),
    "leading-zero-n": ("03 2\n0 1\n1 2\n", 512),
    "trailing-blank-line": ("3 2\n0 1\n1 2\n\n", 512),
    "trailing-comment": ("3 2\n0 1\n1 2\n# c\n", 512),
    "leading-space": (" 3 2\n0 1\n1 2\n", 512),
    "trailing-space": ("3 2\n0 1\n1 2 \n", 512),
    "m-one-short": ("3 1\n0 1\n1 2\n", 512),
    "m-one-over": ("3 3\n0 1\n1 2\n", 512),
    "repeat-reversed": ("3 3\n0 1\n1 2\n2 1\n", 512),
    "repeats": ("3 4\n0 1\n0 1\n1 2\n1 2\n", 512),
    "loop": ("3 3\n0 1\n1 1\n1 2\n", 512),
    "out-of-range": ("3 2\n0 1\n1 3\n", 512),
    "disconnected": ("4 2\n0 1\n2 3\n", 512),
    "repeat-leaves-isolated": ("3 2\n0 1\n0 1\n", 512),
    "K1": ("1 0\n", 512),
    "no-vertex": ("0 0\n", 512),
    "blank": ("\n", 512),
    "empty": ("", 512),
    "P512-cap-512": (_path_text(512), 512),
    "P513-cap-512": (_path_text(513), 512),
    "P4096-cap-4096": (_path_text(4096), 4096),
    "P4097-cap-4096": (_path_text(4097), 4096),
    "json-true": ("2 1\n0 true\n", 512),
    "json-float": ("2 1\n0 1.0\n", 512),
    "json-exponent": ("2 1\n0 1e0\n", 512),
    "json-null": ("2 1\n0 null\n", 512),
}


@pytest.mark.parametrize("name", _NEAR_CANONICAL)
def test_canonical_parse_matches_general_parser(name):
    text, max_vertices = _NEAR_CANONICAL[name]
    assert _parsed(parse_edge_list, text, max_vertices) == _parsed(_parse_general, text, max_vertices)


def _assert_tokenizers_agree(text):
    assert _is_canonical(text)
    assert _canonical_numbers(text) == _general_numbers(text)


def test_canonical_path_reads_the_written_form(corpus):
    for name, g in corpus:
        _assert_tokenizers_agree(format_edge_list(g))
        assert parse_edge_list(format_edge_list(g)) == g, name
    text = format_edge_list(random_dh(4096, 1))
    _assert_tokenizers_agree(text)
    assert parse_edge_list(text, 4096) == random_dh(4096, 1)


@pytest.mark.parametrize("workload", ["recognize", "hull", "hellify", "hyperbolicity"])
def test_canonical_tokenizer_matches_general_on_benchmark_inputs(workload):
    inputs, _ = workloads.build_inputs(tightspan, workload, 1)
    for inp in inputs:
        _assert_tokenizers_agree(inp.text)


@st.composite
def near_canonical_texts(draw):
    """Canonical edge lists, half of them over a spanning tree, some edited
    into another form: ids up to n, m off by one, repeats, loops, and
    whitespace, digit and line-ending changes."""
    n = draw(st.integers(0, 6))
    tree = [(draw(st.integers(0, v - 1)), v) for v in range(1, n)] if draw(st.booleans()) else []
    ids = st.integers(0, max(n, 1))
    extra = draw(st.lists(st.tuples(ids, ids), max_size=4))
    edges = draw(st.permutations(tree + extra))
    m = len(edges) + draw(st.sampled_from([0] * 6 + [-1, 1]))
    text = f"{n} {m}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(text)))
        insert = draw(st.sampled_from(["", " ", "\n", "\r", "\u2028", "0", "#", "-", "+", "\t", "\u0663"]))
        cut = draw(st.integers(0, 1))
        text = text[:at] + insert + text[at + cut :]
    return text


@given(near_canonical_texts(), st.just(512) | st.integers(0, 8))
@settings(max_examples=500)
def test_canonical_parse_matches_general_parser_fuzz(text, max_vertices):
    assert _parsed(parse_edge_list, text, max_vertices) == _parsed(_parse_general, text, max_vertices)


def test_canonical_check_keeps_no_per_line_state():
    # A repeated-group match over the whole text holds backtracking state for
    # every line, which this bound would catch.
    text = format_edge_list(random_dh(4096, 1))
    tracemalloc.start()
    try:
        assert _is_canonical(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(text) > 400_000 and peak < 64 * 1024


# -- the row-joined edge writer against the per-edge writers -----------------

_WRITER_FIXTURES = ["house", "domino", "gem", "permutation", "K1", "K2", "P5", "C4", "C5", "W5"]
_WRITER_HULLS = {
    **{f"C{k}": lambda k=k: build_injective_hull(fixture(f"C{k}")) for k in range(4, 12)},
    **{f"crown{k}": lambda k=k: build_injective_hull(crown_family(k)) for k in range(4, 8)},
    **{
        f"dh{n}-{seed}": lambda n=n, seed=seed: hellify_dh(random_dh(n, seed))
        for n in (1, 2, 3, 10, 100, 1000, 4096)
        for seed in (1, 2)
    },
}


def _assert_writers_match(g):
    assert format_edge_list(g) == format_edge_list_by_edges(g)
    assert _json_edges(g) == json_pairs_by_edges(g)
    assert to_dot(g) == to_dot_by_edges(g)


def test_writers_on_k1():
    g = fixture("K1")
    assert (format_edge_list(g), _json_edges(g)) == ("1 0\n", "[]")
    _assert_writers_match(g)


@pytest.mark.parametrize("name", _WRITER_FIXTURES)
def test_writers_match_per_edge_writers_on_fixtures(name):
    _assert_writers_match(fixture(name))


@pytest.mark.parametrize("name", sorted(_WRITER_HULLS))
def test_writers_match_per_edge_writers_on_hulls(name):
    h = _WRITER_HULLS[name]()
    _assert_writers_match(h.hull)
    assert hull_to_dot(h) == hull_to_dot_by_edges(h)


@given(connected_graphs(min_n=1, max_n=12))
@settings(max_examples=100)
def test_writers_match_per_edge_writers_random(g):
    _assert_writers_match(g)


@given(connected_graphs())
@settings(max_examples=60)
def test_metric_axioms(g):
    d = g.distances()
    for u in range(g.n):
        assert d[u][u] == 0
        for v in range(g.n):
            assert d[u][v] == d[v][u]
            assert (d[u][v] == 0) == (u == v)
            for w in range(g.n):
                assert d[u][v] <= d[u][w] + d[w][v]


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
    # each BFS layer from u is the ring between two disks, and a level set of u's row
    d = g.distances()
    full = (1 << g.n) - 1
    for u in range(g.n):
        layers = list(g._frontiers(1 << u, full))
        assert len(layers) == max(d[u]) + 1
        assert g.disk_mask(u, -1) == 0
        for k, mask in enumerate(layers):
            assert mask == sum(1 << v for v in range(g.n) if d[u][v] == k)
            assert g.disk_mask(u, k) == g.disk_mask(u, k - 1) | mask


@given(connected_graphs())
@settings(max_examples=60)
def test_power_matches_distance_rows(g):
    d = g.distances()
    for k in (1, 2, 3, 4, g.n):
        rows = tuple(
            sum(1 << v for v in range(g.n) if 1 <= d[u][v] <= k) for u in range(g.n)
        )
        assert g.power(k).adj == rows
    # at k >= diameter every pair is joined
    full = (1 << g.n) - 1
    assert g.power(g.n).adj == tuple(full & ~(1 << u) for u in range(g.n))
