import hashlib
import io

import pytest

from tightspan import (
    SplitMix64,
    build_injective_hull,
    cocomparability_family,
    crown_family,
    fixture,
    format_edge_list,
    helly_gap,
    is_at_free,
    is_chordal,
    is_split,
    maximal_two_sets,
    pruning_sequence,
    random_chordal,
    random_dh,
    random_pruning_sequence,
    split_family,
    verify_cocomparability_ordering,
)
from tightspan.cli import run


def _ids(k):
    xs = list(range(k))
    ys = list(range(k, 2 * k))
    ms = list(range(2 * k, 6 * k))
    return xs, ys, ms


def _family_by_rules(k, xy_cliques):
    """Rows and labels read vertex by vertex off the split-family docstring:
    x_i = i, y_i = k + i, block j = u_j, v_j, w_j, z_j at 2k + 4j."""
    layout = [("x", i) for i in range(k)] + [("y", i) for i in range(k)]
    layout += [(role, j) for j in range(k) for role in "uvwz"]

    def sees(a, b):
        (r, i), (s, j) = layout[a], layout[b]
        if r not in "xy" and s not in "xy":
            return True  # M is a clique
        if r in "xy" and s in "xy":
            return xy_cliques and r == s
        if r not in "xy":  # the X or Y end first
            (r, i), (s, j) = (s, j), (r, i)
        if r == "x":
            return s == "u" or (s == "v" and j == i) or (s == "z" and j != i)
        return s == "w" or (s == "z" and j == i) or (s == "v" and j != i)

    n = 6 * k
    rows = [sum(1 << b for b in range(n) if b != a and sees(a, b)) for a in range(n)]
    return tuple(rows), tuple(f"{r}{i + 1}" for r, i in layout), layout


@pytest.mark.parametrize("k", range(2, 13))
def test_families_follow_the_docstring_rules(k):
    rows, labels, layout = _family_by_rules(k, xy_cliques=False)
    g = split_family(k)
    assert (g.adj, g.labels) == (rows, labels)
    rows, labels, layout = _family_by_rules(k, xy_cliques=True)
    g, order = cocomparability_family(k)
    assert (g.adj, g.labels) == (rows, labels)
    x_then_m_then_y = []
    for roles in ("x", "uvwz", "y"):
        x_then_m_then_y += [a for a, (r, _) in enumerate(layout) if r in roles]
    assert order == tuple(x_then_m_then_y)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_family_distance_properties(k):
    g = split_family(k)
    assert g.n == 6 * k
    d = g.distances()
    xs, ys, ms = _ids(k)
    for i in range(k):
        for m in ms:
            assert d[xs[i]][m] <= 2
            assert d[ys[i]][m] <= 2
        assert d[xs[i]][ys[i]] == 3
        for j in range(k):
            if i != j:
                assert d[xs[i]][ys[j]] <= 2
                assert d[xs[i]][xs[j]] == 2
                assert d[ys[i]][ys[j]] == 2


def test_split_family_is_split_graph():
    g = split_family(3)
    part = is_split(g)
    assert part is not None
    clique, independent = part
    xs, ys, ms = _ids(3)
    assert set(clique) == set(ms)
    assert set(independent) == set(xs + ys)


def test_split_family_two_set_counts():
    sets = maximal_two_sets(split_family(4))
    assert len(sets) == 16
    unsuspended = [s for s in sets if not s.suspended]
    assert len(unsuspended) == 6
    assert len(unsuspended) >= 2**4 - 2 * 4 - 2


def test_split_family_rejects_small_k():
    with pytest.raises(ValueError):
        split_family(1)


@pytest.mark.parametrize("k", [2, 3, 4])
def test_cocomparability_family_distance_properties(k):
    g, _ = cocomparability_family(k)
    d = g.distances()
    xs, ys, ms = _ids(k)
    for i in range(k):
        for j in range(k):
            if i != j:
                assert d[xs[i]][xs[j]] == 1
                assert d[ys[i]][ys[j]] == 1
                assert d[xs[i]][ys[j]] <= 2
        for m in ms:
            assert d[xs[i]][m] <= 2
            assert d[ys[i]][m] <= 2
        assert d[xs[i]][ys[i]] == 3


def test_cocomparability_family_ordering_and_at_free():
    g, order = cocomparability_family(3)
    assert verify_cocomparability_ordering(g, order)
    assert is_at_free(g)


def test_cocomparability_family_two_set_counts():
    g, _ = cocomparability_family(4)
    sets = maximal_two_sets(g)
    assert len(sets) == 16
    assert sum(1 for s in sets if not s.suspended) >= 6


@pytest.mark.parametrize("k", [3, 4, 5])
def test_crown_family_distance_properties(k):
    g = crown_family(k)
    assert g.n == 2 * k
    d = g.distances()
    for i in range(k):
        assert d[i][k + i] == 3
        for j in range(k):
            if i != j:
                assert d[i][k + j] == 1
                assert d[i][j] == 2
                assert d[k + i][k + j] == 2


def test_crown_3_is_c6():
    # Around the cycle: 0 ~ 4 ~ 2 ~ 3 ~ 1 ~ 5 ~ 0.
    assert crown_family(3).induced([0, 4, 2, 3, 1, 5]) == fixture("C6")


def test_crown_4_two_sets():
    sets = maximal_two_sets(crown_family(4))
    assert len(sets) == 16
    # every set with at least two picks per side is unsuspended
    for s in sets:
        left = sum(1 for v in s.members if v < 4)
        if left >= 2 and len(s.members) - left >= 2:
            assert not s.suspended


def test_crown_4_hull_size():
    h = build_injective_hull(crown_family(4))
    assert h.hull.n >= 2**4 - 2


def test_crown_rejects_small_k():
    with pytest.raises(ValueError):
        crown_family(2)


@pytest.mark.parametrize(
    "family", [split_family, lambda k: cocomparability_family(k)[0], crown_family]
)
def test_two_set_count_is_two_to_the_k(family):
    for k in (3, 4):
        sets = maximal_two_sets(family(k))
        assert len(sets) == 2**k
        assert sum(1 for s in sets if not s.suspended) >= 2**k - 2 * k - 2


@pytest.mark.parametrize(
    "name,builder",
    [
        ("crown3", lambda: crown_family(3)),
        ("crown4", lambda: crown_family(4)),
        ("split2", lambda: split_family(2)),
        ("cocomp2", lambda: cocomparability_family(2)[0]),
    ],
)
def test_unsuspended_sets_lower_bound_helly_vertices(name, builder):
    g = builder()
    unsuspended = sum(1 for s in maximal_two_sets(g) if not s.suspended)
    assert unsuspended <= build_injective_hull(g).n_helly


@pytest.mark.parametrize("seed", range(15))
def test_random_chordal_is_chordal(seed):
    assert is_chordal(random_chordal(10, seed))


@pytest.mark.parametrize("seed", range(15))
def test_random_dh_is_dh(seed):
    assert pruning_sequence(random_dh(12, seed)) is not None


def test_generators_deterministic():
    assert random_chordal(9, 7) == random_chordal(9, 7)
    assert random_dh(11, 3) == random_dh(11, 3)
    assert random_dh(11, 3) != random_dh(11, 4)


def test_splitmix_reference_stream():
    rng = SplitMix64(42)
    assert [rng.next64() for _ in range(3)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
    ]


def test_splitmix_shuffle_deterministic():
    assert SplitMix64(5).shuffled(range(8)) == SplitMix64(5).shuffled(range(8))


def test_fixture_house_is_not_dh():
    g = fixture("house")
    assert g.n == 5 and g.m == 6
    assert pruning_sequence(g) is None


def test_fixture_w4_is_helly():
    from tightspan import is_helly

    assert is_helly(fixture("W4"))


def test_fixture_parametric():
    assert fixture("C5").n == 5
    assert fixture("W6").n == 7
    assert fixture("K3").m == 3
    assert fixture("P4").m == 3


@pytest.mark.parametrize("make", [
    lambda: fixture("K100000000"),
    lambda: fixture("W512"),
    lambda: random_chordal(100_000_000, 1),
    lambda: split_family(86),
    lambda: crown_family(257),
])
def test_generators_check_size_cap_first(make):
    with pytest.raises(ValueError, match="exceeds the size cap 512"):
        make()


def test_generators_at_size_cap():
    assert fixture("W511").n == 512
    assert crown_family(256).n == 512


def test_fixture_unknown_name():
    with pytest.raises(ValueError, match="unknown fixture"):
        fixture("moebius")


def test_permutation_fixture_regression():
    g = fixture("permutation")
    assert g.n == 6
    label = {name: v for v, name in enumerate(g.labels)}
    h = build_injective_hull(g)
    assert h.n_helly == 2
    h1 = h.n_real  # first Helly vertex in canonical order
    real_neighbors = {
        g.labels[u] for u in h.hull.neighbors(h1) if u < h.n_real
    }
    assert real_neighbors == {"a", "b", "c", "d", "f"}
    assert not h.hull.has_edge(h1, label["e"])
    assert is_at_free(h.hull)
    assert helly_gap(h) == 1


def _pinned_graphs():
    names = ["house", "domino", "gem", "permutation"]
    names += [f"C{k}" for k in range(3, 13)] + [f"W{k}" for k in range(3, 9)]
    names += [f"K{n}" for n in range(1, 7)] + [f"P{n}" for n in range(1, 10)]
    for name in names:
        yield name, fixture(name)
    for n in (1, 2, 17, 160, 320):
        for seed in (0, 1, 2):
            yield f"random_chordal({n}, {seed})", random_chordal(n, seed)


def test_generated_graphs_are_pinned():
    # One digest over every pinned graph's edge list and labels. A rewrite of
    # the generators must leave it as it is; only an intended change of a
    # generated graph updates the literal.
    h = hashlib.sha256()
    for name, g in _pinned_graphs():
        labels = " ".join(g.labels) if g.labels is not None else "-"
        h.update(f"{name}\n{format_edge_list(g)}labels {labels}\n".encode())
    assert h.hexdigest() == "11dd5ff0ec2e6cfe6f57e82de9aaceab6bb5ed3bd52883e4dcf7bdebd9f3430b"


@pytest.mark.parametrize("make, message", [
    (lambda: fixture("C0"), "cycle needs k >= 3"),
    (lambda: fixture("C2"), "cycle needs k >= 3"),
    (lambda: fixture("W2"), "wheel needs rim size k >= 3"),
    (lambda: fixture("K0"), "complete graph needs n >= 1"),
    (lambda: fixture("P0"), "path needs n >= 1"),
    (lambda: fixture("nope"), "unknown fixture 'nope'"),
    (lambda: random_chordal(0, 1), "n must be >= 1"),
    (lambda: cocomparability_family(1), "cocomparability family needs k >= 2"),
    # named: its message, and so its default id, is random_chordal's
    pytest.param(lambda: random_pruning_sequence(0, 1), "n must be >= 1", id="pruning-n-0"),
    (lambda: SplitMix64(1).below(0), "bound must be positive"),
])
def test_generator_messages_are_pinned(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_generate_fixture_without_name_is_a_usage_error(capsys):
    out = io.StringIO()
    assert run(["generate", "fixture"], out=out) == 1
    assert out.getvalue() == ""
    assert capsys.readouterr().err == "usage error: generate fixture needs --name\n"
