import pytest

from tightspan import (
    SplitMix64,
    build_injective_hull,
    cocomparability_family,
    crown_family,
    fixture,
    helly_gap,
    is_at_free,
    is_chordal,
    is_split,
    maximal_two_sets,
    pruning_sequence,
    random_chordal,
    random_dh,
    split_family,
    verify_cocomparability_ordering,
)


def _ids(k):
    xs = list(range(k))
    ys = list(range(k, 2 * k))
    ms = list(range(2 * k, 6 * k))
    return xs, ys, ms


@pytest.mark.parametrize("k", [2, 3, 4])
def test_split_family_distance_properties(k):
    g = split_family(k)
    assert g.n == 6 * k
    d = g.distances().rows
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
    d = g.distances().rows
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
    d = g.distances().rows
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
