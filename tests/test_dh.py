import pytest
from hypothesis import given, settings

from oracles import contains_induced, pruning_sequence_rescan, tree_plus_chords
from strategies import connected_graphs, graphs, pruning_sequences
from tightspan import (
    FALSE_TWIN,
    PENDANT,
    TRUE_TWIN,
    Graph,
    NotDistanceHereditaryError,
    PruningSequence,
    PruningStep,
    TwinClassPoset,
    build_injective_hull,
    fixture,
    hellify_dh,
    is_helly,
    pruning_sequence,
    random_chordal,
    random_dh,
    replay,
)
from tightspan.isomorphism import are_isomorphic_small

DH_OBSTRUCTIONS = [fixture(name) for name in ("house", "domino", "gem")] + [
    fixture(f"C{k}") for k in range(5, 9)
]


def brute_force_is_dh(g):
    return not any(contains_induced(g, bad) for bad in DH_OBSTRUCTIONS)


def poset_matches_graph(poset, g):
    """Check the twin-class partition and containment edges against N[.]"""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    classes, edges = poset.snapshot()
    seen = set()
    for cls in classes:
        seen |= cls
        rep = next(iter(cls))
        for v in cls:
            if closed[v] != closed[rep]:
                return False
    if seen != set(range(g.n)):
        return False
    # two distinct classes never share a closed neighborhood
    reps = {next(iter(cls)): cls for cls in classes}
    expected_edges = set()
    for a, ca in reps.items():
        for b, cb in reps.items():
            if ca is cb:
                continue
            if closed[a] != closed[b] and closed[a] & ~closed[b] == 0:
                expected_edges.add((ca, cb))
    return edges == expected_edges


def test_pruning_sequence_k1():
    seq = pruning_sequence(fixture("K1"))
    assert seq.order == (0,) and seq.steps == ()


def test_pruning_sequence_p3():
    seq = pruning_sequence(fixture("P3"))
    assert all(step.kind == PENDANT for step in seq.steps)
    assert replay(seq) == fixture("P3")


@pytest.mark.parametrize("name", ["house", "domino", "gem", "C5", "C6", "C7"])
def test_obstructions_have_no_sequence(name):
    assert pruning_sequence(fixture(name)) is None


def test_c4_has_sequence():
    seq = pruning_sequence(fixture("C4"))
    assert seq is not None
    assert replay(seq) == fixture("C4")


@given(connected_graphs(max_n=12))
@settings(max_examples=200, deadline=None)
def test_pruning_sequence_matches_rescan(g):
    assert pruning_sequence(g) == pruning_sequence_rescan(g)


@pytest.mark.parametrize("make", [random_dh, random_chordal, tree_plus_chords])
def test_pruning_sequence_matches_rescan_seeded(make):
    non_dh = 0
    for seed in range(40):
        g = make(5 + seed % 56, seed)
        expected = pruning_sequence_rescan(g)
        assert pruning_sequence(g) == expected, seed
        non_dh += expected is None
    assert (non_dh == 0) == (make is random_dh)


def _sequence(order, steps):
    """Pruning sequence from its build order and (kind, anchor) per step."""
    return PruningSequence(
        order, tuple(PruningStep(v, k, a) for v, (k, a) in zip(order[1:], steps))
    )


@pytest.mark.parametrize("g,expected", [
    # Star with centre 5: every leaf is a pendant and a false twin; pendant wins.
    (
        Graph.from_edge_list(6, [(v, 5) for v in range(5)]),
        _sequence((5, 4, 3, 2, 1, 0), [(PENDANT, 5)] * 5),
    ),
    # K5: true twins anchored to the next id, the last pair as a pendant.
    (
        fixture("K5"),
        _sequence((4, 3, 2, 1, 0), [(PENDANT, 4), (TRUE_TWIN, 3), (TRUE_TWIN, 2), (TRUE_TWIN, 1)]),
    ),
    # K_{2,6}: the false-twin bucket {0..5} shrinks to the lone 5, which is
    # then passed over until hub 6 has become a pendant.
    (
        Graph.from_edge_list(8, [(v, h) for v in range(6) for h in (6, 7)]),
        _sequence(
            (7, 5, 6, 4, 3, 2, 1, 0),
            [(PENDANT, 7), (PENDANT, 5)] + [(FALSE_TWIN, v + 1) for v in range(4, -1, -1)],
        ),
    ),
    # 0 is checked and passed over, then pairs with 2 once pendant 1 is gone.
    (
        Graph.from_edge_list(5, [(1, 2), (2, 3), (2, 4), (0, 3), (0, 4)]),
        _sequence((4, 2, 3, 0, 1), [(PENDANT, 4), (PENDANT, 2), (FALSE_TWIN, 2), (PENDANT, 2)]),
    ),
])
def test_pruning_sequence_lowest_id_rule(g, expected):
    assert pruning_sequence_rescan(g) == expected
    assert pruning_sequence(g) == expected


@pytest.mark.parametrize("g", [
    Graph.from_edge_list(4, [(0, 1), (2, 3)], require_connected=False),
    Graph(3, [0, 0, 0]),
])
def test_disconnected_graph_has_no_sequence(g):
    assert pruning_sequence(g) is None
    with pytest.raises(NotDistanceHereditaryError):
        hellify_dh(g)


@given(graphs(max_n=9))
@settings(max_examples=100, deadline=None)
def test_pruning_sequence_replays_to_its_graph(g):
    seq = pruning_sequence(g)
    assert seq is None or replay(seq) == g


def test_replay_empty_sequence():
    assert replay(PruningSequence((0,), ())) == fixture("K1")


def test_replay_pendant_chain():
    seq = PruningSequence(
        (0, 1, 2),
        (PruningStep(1, PENDANT, 0), PruningStep(2, PENDANT, 1)),
    )
    assert replay(seq) == fixture("P3")


def test_replay_rejects_bad_anchor():
    seq = PruningSequence(
        (0, 1, 2),
        (PruningStep(1, PENDANT, 2), PruningStep(2, PENDANT, 0)),
    )
    with pytest.raises(ValueError, match="step 0"):
        replay(seq)


def test_replay_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown kind"):
        replay(PruningSequence((0, 1), (PruningStep(1, "clone", 0),)))


def test_replay_rejects_disconnecting_false_twin():
    with pytest.raises(ValueError, match="isolated"):
        replay(PruningSequence((0, 1), (PruningStep(1, FALSE_TWIN, 0),)))


@pytest.mark.parametrize("seed", range(30))
def test_round_trip_random_dh(seed):
    g = random_dh(11, seed)
    seq = pruning_sequence(g)
    assert seq is not None
    assert replay(seq) == g


def test_recognition_matches_forbidden_subgraphs(corpus):
    for name, g in corpus[:60]:
        assert (pruning_sequence(g) is not None) == brute_force_is_dh(g), name


def test_poset_true_twin_pair():
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, TRUE_TWIN, 0))
    classes, edges = poset.snapshot()
    assert classes == [frozenset({0, 1})]
    assert edges == set()


def test_poset_second_vertex_pendant_becomes_twin():
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, PENDANT, 0))
    classes, _ = poset.snapshot()
    assert classes == [frozenset({0, 1})]


def test_poset_k2_plus_pendant():
    # K2 on {0,1}, then 2 hangs off 1: classes {0},{2},{1} with edges into {1}
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, TRUE_TWIN, 0))
    poset.apply(PruningStep(2, PENDANT, 1))
    classes, edges = poset.snapshot()
    assert sorted(classes, key=sorted) == [frozenset({0}), frozenset({1}), frozenset({2})]
    assert edges == {
        (frozenset({0}), frozenset({1})),
        (frozenset({2}), frozenset({1})),
    }


def test_has_dominator_k2():
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, TRUE_TWIN, 0))
    assert poset.has_dominator(0) and poset.has_dominator(1)


def test_has_dominator_p3():
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, TRUE_TWIN, 0))   # K2
    poset.apply(PruningStep(2, PENDANT, 1))     # path 0-1-2
    assert poset.has_dominator(0)      # center 1 dominates endpoint 0
    assert poset.has_dominator(2)
    assert not poset.has_dominator(1)  # center has no dominator


@pytest.mark.parametrize("seed", range(25))
def test_poset_invariants_along_random_sequences(seed):
    from tightspan.generators import random_pruning_sequence

    seq = random_pruning_sequence(10, seed)
    poset = TwinClassPoset(seq.order[0])
    for i, step in enumerate(seq.steps, start=2):
        poset.apply(step)
        prefix = PruningSequence(seq.order[:i], seq.steps[: i - 1])
        assert poset_matches_graph(poset, replay(prefix)), (seed, i)


def test_hellify_tree_is_fixed_point():
    tree = fixture("P6")
    result = hellify_dh(tree)
    assert result.hull == tree
    assert result.added == ()


def test_hellify_c4():
    result = hellify_dh(fixture("C4"))
    assert (result.hull.n, result.hull.m) == (5, 8)
    assert len(result.added) == 1
    assert are_isomorphic_small(result.hull, fixture("W4")) is not None


def test_hellify_rejects_non_dh():
    with pytest.raises(NotDistanceHereditaryError):
        hellify_dh(fixture("house"))


def test_hellify_added_labels_mention_anchor():
    result = hellify_dh(fixture("C4"))
    helly_id, anchor = result.added[0]
    assert result.hull.label(helly_id) == f"h1({anchor})"


@pytest.mark.parametrize("seed", range(40))
def test_hellify_matches_tight_span_oracle(seed):
    g = random_dh(10, seed)
    result = hellify_dh(g)
    oracle = build_injective_hull(g)
    assert result.hull.n == oracle.hull.n  # minimality
    assert are_isomorphic_small(result.hull, oracle.hull, max_vertices=20) is not None


@pytest.mark.parametrize("seed", range(40))
def test_hellify_invariants(seed):
    g = random_dh(12, seed)
    result = hellify_dh(g)
    assert result.hull.n <= 2 * g.n
    assert result.hull.m <= 4 * g.m
    assert is_helly(result.hull)
    assert pruning_sequence(result.hull) is not None
    assert replay(result.sequence) == result.hull
    # source vertex z is hull vertex z
    assert result.hull.induced(range(g.n)) == g


def _compacted_prefix(seq, length):
    """First ``length`` insertions with vertex ids squeezed to 0..length-1."""
    relabel = {v: i for i, v in enumerate(seq.order[:length])}
    steps = tuple(
        PruningStep(relabel[s.vertex], s.kind, relabel[s.anchor])
        for s in seq.steps[: length - 1]
    )
    return PruningSequence(tuple(range(length)), steps)


@pytest.mark.parametrize("seed", range(8))
def test_hellify_host_stays_helly_after_every_insertion(seed):
    g = random_dh(8, seed)
    seq = hellify_dh(g).sequence
    for i in range(1, len(seq.order) + 1):
        assert is_helly(replay(_compacted_prefix(seq, i))), (seed, i)


@given(pruning_sequences(max_n=12))
@settings(max_examples=40, deadline=None)
def test_round_trip_property(seq):
    g = replay(seq)
    found = pruning_sequence(g)
    assert found is not None
    assert replay(found) == g


@given(pruning_sequences(max_n=12))
@settings(max_examples=30, deadline=None)
def test_hellify_size_bounds_property(seq):
    g = replay(seq)
    result = hellify_dh(g)
    assert result.hull.n <= 2 * g.n and result.hull.m <= 4 * g.m


@given(connected_graphs(max_n=7))
@settings(max_examples=30, deadline=None)
def test_recognition_matches_brute_force_property(g):
    assert (pruning_sequence(g) is not None) == brute_force_is_dh(g)
