import pytest
from hypothesis import given, settings

from oracles import (
    TwinClassPoset,
    canonical_hull,
    hellify_sequence,
    is_dh_by_definition,
    poset_snapshot,
    pruning_sequence_rekey,
    pruning_sequence_rescan,
    tree_plus_chords,
)
from strategies import connected_graphs, graphs, pruning_sequences
from tightspan import (
    FALSE_TWIN,
    PENDANT,
    TRUE_TWIN,
    Graph,
    NotDistanceHereditaryError,
    PruningSequence,
    PruningStep,
    build_injective_hull,
    fixture,
    hellify_dh,
    helly_gap,
    is_helly,
    pruning_sequence,
    random_chordal,
    random_dh,
    random_pruning_sequence,
    replay,
)
from tightspan import dh
from tightspan.dh import hellify_adjacency
from tightspan.graphs import bits

def poset_matches_graph(poset, g):
    """Check the twin-class partition and containment edges against N[.]"""
    closed = [g.adj[v] | 1 << v for v in range(g.n)]
    classes, edges = poset_snapshot(poset)
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


def _ghost_uses(seq):
    """Kinds with which a vertex that already anchored a removed twin is
    itself removed later, read off the removal order (steps reversed)."""
    anchored, kinds = set(), set()
    for step in reversed(seq.steps):
        if step.vertex in anchored:
            kinds.add(step.kind)
        if step.kind != PENDANT:
            anchored.add(step.anchor)
    return kinds


def _complete_bipartite(a, b):
    return Graph.from_edge_list(a + b, [(u, a + w) for u in range(a) for w in range(b)])


# Butterfly: 0 leaves as 1's true twin, then 1 as 2's pendant, so 2's keys
# must drop 1's ghost 0 before 2 and 3 are seen as true twins.
BUTTERFLY = Graph.from_edge_list(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)])
# 0 leaves as 1's true twin, then 1, holding 0, as 2's false twin over hubs 3, 4.
TWIN_OF_GHOST_HOLDER = Graph.from_edge_list(
    5, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3), (2, 4)]
)


def test_ghost_cases_reach_both_paths():
    assert PENDANT in _ghost_uses(pruning_sequence(BUTTERFLY))
    assert FALSE_TWIN in _ghost_uses(pruning_sequence(TWIN_OF_GHOST_HOLDER))
    assert pruning_sequence(BUTTERFLY) == _sequence(
        (4, 3, 2, 1, 0), [(PENDANT, 4), (TRUE_TWIN, 3), (PENDANT, 2), (TRUE_TWIN, 1)]
    )


@pytest.mark.parametrize("g", [
    BUTTERFLY,
    TWIN_OF_GHOST_HOLDER,
    *(fixture(f"K{n}") for n in range(2, 9)),
    *(_complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 7)),
])
def test_pruning_sequence_matches_both_oracles_on_ghost_cases(g):
    expected = pruning_sequence_rescan(g)
    assert pruning_sequence_rekey(g) == expected
    assert pruning_sequence(g) == expected


def test_pruning_sequence_matches_rekey_at_scale():
    """Differential check against the former neighbour re-keying builder,
    past the sizes the per-round rescan can reach: DH graphs up to the cap,
    chordal and chorded-tree graphs, and squares, which fail part-way."""
    inputs = [random_dh(n, seed) for n in (256, 384, 512) for seed in range(2)]
    inputs.append(random_dh(4096, 0))
    inputs += [random_chordal(200, seed) for seed in range(2)]
    inputs += [tree_plus_chords(200, seed) for seed in range(2)]
    inputs += [random_dh(n, seed).power(2) for n, seed in ((60, 0), (120, 1), (200, 2))]
    results = [pruning_sequence(g) for g in inputs]
    assert results == [pruning_sequence_rekey(g) for g in inputs]
    assert {PENDANT, TRUE_TWIN, FALSE_TWIN} <= set().union(
        *(_ghost_uses(seq) for seq in results if seq is not None)
    )
    assert sum(seq is None for seq in results) == 7


@pytest.mark.parametrize("seed", range(4))
def test_pruning_sequence_bucket_updates_per_removal(monkeypatch, seed):
    """At most 4 bucket leaves per removed vertex: its own two keys and at
    most two of its anchor's. Re-keying every neighbour made 2m + 2n."""
    calls = []
    leave = dh._leave

    def spy(*args):
        calls.append(args)
        leave(*args)

    monkeypatch.setattr(dh, "_leave", spy)
    g = random_dh(512, seed)
    seq = pruning_sequence(g)
    assert len(calls) <= 4 * len(seq.steps) < 2 * g.m


@pytest.mark.parametrize("g", [
    Graph(4, [0b0010, 0b0001, 0b1000, 0b0100]),  # edges 0-1 and 2-3
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
    with pytest.raises(ValueError, match="step 0"):
        seq = PruningSequence(
            (0, 1, 2),
            (PruningStep(1, PENDANT, 2), PruningStep(2, PENDANT, 0)),
        )
        replay(seq)


def test_hellify_adjacency_rejects_bad_anchor_like_replay():
    # the sequence checks itself, so both readers fail with one message
    for reader in (replay, hellify_adjacency):
        with pytest.raises(ValueError, match="step 0: anchor 5 not yet placed"):
            reader(PruningSequence((0, 1), (PruningStep(1, PENDANT, 5),)))


@pytest.mark.parametrize("order,steps,message", [
    ((0, 0), ((0, PENDANT, 0),), "permutation"),
    ((1, 2), ((2, PENDANT, 1),), "permutation"),
    ((0, 1, 2), ((1, PENDANT, 0), (2, TRUE_TWIN, -1)), "step 1: anchor -1 not yet placed"),
    ((0, 1), (), "step count must be len\\(order\\) - 1"),
    ((0, 1, 2), ((2, PENDANT, 0), (1, PENDANT, 0)), "step 0 vertex does not match order"),
])
def test_sequence_rejects_bad_order_and_anchor(order, steps, message):
    with pytest.raises(ValueError, match=message):
        PruningSequence(order, tuple(PruningStep(*step) for step in steps))


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
    dh = 0
    for name, g in corpus:
        expected = is_dh_by_definition(g)
        assert (pruning_sequence(g) is not None) == expected, name
        dh += expected
    assert dh == 109


def test_poset_true_twin_pair():
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, TRUE_TWIN, 0))
    classes, edges = poset_snapshot(poset)
    assert classes == [frozenset({0, 1})]
    assert edges == set()


def test_poset_second_vertex_pendant_becomes_twin():
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, PENDANT, 0))
    classes, _ = poset_snapshot(poset)
    assert classes == [frozenset({0, 1})]


def test_poset_k2_plus_pendant():
    # K2 on {0,1}, then 2 hangs off 1: classes {0},{2},{1} with edges into {1}
    poset = TwinClassPoset(0)
    poset.apply(PruningStep(1, TRUE_TWIN, 0))
    poset.apply(PruningStep(2, PENDANT, 1))
    classes, edges = poset_snapshot(poset)
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


@pytest.mark.parametrize("n", range(2, 13))
def test_twin_classes_match_closed_rows_along_host_sequences(n):
    for seed in range(40):
        host = hellify_sequence(random_pruning_sequence(n, seed))
        adj = replay(host).adj
        classes = dh._TwinClasses(host.order[0])
        placed = 1 << host.order[0]
        for step in host.steps:
            classes.apply(step)
            placed |= 1 << step.vertex
            # a prefix of the host is the host induced on the placed vertices
            closed = {v: adj[v] & placed | 1 << v for v in bits(placed)}
            for v, row in closed.items():
                expected = any(y != v and row & ~other == 0 for y, other in closed.items())
                assert classes.dominated(v) == expected, (seed, step, v)


def _assert_twin_classes_match_poset(host, check_all):
    """``dominated`` equals the oracle poset's ``has_dominator`` along ``host``
    after every step: at the new vertex and the anchor's former twin class,
    and at every placed vertex when ``check_all(number placed)`` holds."""
    classes = dh._TwinClasses(host.order[0])
    poset = TwinClassPoset(host.order[0])
    for i, step in enumerate(host.steps, start=2):
        twins = set(poset.members[poset.set_of[step.anchor]])
        classes.apply(step)
        poset.apply(step)
        checked = host.order[:i] if check_all(i) else twins | {step.vertex}
        for v in checked:
            assert classes.dominated(v) == poset.has_dominator(v), (i, v)


@pytest.mark.parametrize("n", [100, 300, 1000, 3000])
def test_twin_classes_match_poset_on_long_sequences(n):
    for seed in range(3):
        host = hellify_sequence(random_pruning_sequence(n, seed))
        last = len(host.order)
        _assert_twin_classes_match_poset(host, lambda i: i & (i - 1) == 0 or i == last)


@pytest.mark.parametrize("n", [64, 256, 512])
def test_twin_classes_match_poset_on_random_dh(n):
    for seed in range(3):
        host = hellify_sequence(pruning_sequence(random_dh(n, seed)))
        _assert_twin_classes_match_poset(host, lambda i: True)


def test_hellify_tree_is_fixed_point():
    tree = fixture("P6")
    result = hellify_dh(tree)
    assert result.hull == tree
    assert result.added == ()


def test_hellify_c4():
    result = hellify_dh(fixture("C4"))
    assert (result.hull.n, result.hull.m) == (5, 8)
    assert len(result.added) == 1
    assert result.hull == fixture("W4")


def test_hellify_rejects_non_dh():
    with pytest.raises(NotDistanceHereditaryError):
        hellify_dh(fixture("house"))


def test_hellify_bound_check_fires(monkeypatch):
    # pad the core's host with isolated vertices past 2n, each with a label
    def padded(seq):
        adj, added = hellify_adjacency(seq)
        extra = range(len(adj), 2 * len(seq.order) + 1)
        return adj + [[] for _ in extra], added + [(v, 0) for v in extra]

    monkeypatch.setattr(dh, "hellify_adjacency", padded)
    with pytest.raises(RuntimeError, match="internal consistency failure: hull exceeds 2n/4m"):
        hellify_dh(fixture("C4"))


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
    assert canonical_hull(result.hull, g.n) == (oracle.hull, oracle.vectors)
    # the one hull type: vectors and gap read the same off either builder's hull
    assert sorted(result.vectors) == sorted(oracle.vectors)
    assert helly_gap(result) == helly_gap(oracle)


@pytest.mark.parametrize("seed", range(40))
def test_hellify_invariants(seed):
    g = random_dh(12, seed)
    result = hellify_dh(g)
    assert result.hull.n <= 2 * g.n
    assert result.hull.m <= 4 * g.m
    assert is_helly(result.hull)
    assert pruning_sequence(result.hull) is not None
    assert replay(hellify_sequence(pruning_sequence(g))) == result.hull
    # source vertex z is hull vertex z
    assert result.hull.induced(range(g.n)) == g


@pytest.mark.parametrize("n", [256, 384, 512])
def test_hellify_matches_poset_host_sequence_at_workload_sizes(n):
    # the hull against its host sequence walked on the independent poset
    for seed in range(2):
        g = random_dh(n, seed)
        assert replay(hellify_sequence(pruning_sequence(g))) == hellify_dh(g).hull, seed


def test_hellify_builds_one_sequence(monkeypatch):
    built = []

    class Counted(PruningSequence):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(dh, "PruningSequence", Counted)
    result = hellify_dh(random_dh(64, 0))
    assert result.added and len(built) == 1


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
    seq = hellify_sequence(pruning_sequence(g))
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
    assert (pruning_sequence(g) is not None) == is_dh_by_definition(g)
