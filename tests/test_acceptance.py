"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The shared corpus (cycles, paths, wheels, house/domino/gem, 200 seeded
random connected graphs, all n <= 8) and its hulls come from conftest.
"""

import math
import time

from oracles import brute_force_extremal, canonical_hull
from tightspan import (
    SplitMix64,
    all_extended_squares_suspended,
    build_injective_hull,
    cocomparability_family,
    crown_family,
    disk_helly_up_to_radius,
    disk_separates,
    enumerate_extremal_functions,
    fixture,
    hellify_dh,
    helly_gap,
    hyperbolicity,
    is_at_free,
    is_chordal,
    is_dually_chordal,
    is_helly,
    is_square_chordal,
    maximal_two_sets,
    peripheral_vertices,
    pruning_sequence,
    random_chordal,
    random_dh,
    split_family,
)


def report(criterion: int, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {criterion}: {status}{suffix}")
    assert ok, f"criterion {criterion} failed{suffix}"


def _dh_seed_instances(count=100, max_n=12):
    out = []
    for seed in range(count):
        rng = SplitMix64(seed * 7919 + 13)
        n = 2 + rng.below(max_n - 1)  # 2..max_n
        out.append((seed, random_dh(n, seed)))
    return out


def test_criterion_1_hull_oracle_correctness(corpus):
    start = time.monotonic()
    for name, g in corpus:
        assert enumerate_extremal_functions(g) == brute_force_extremal(g), name
    elapsed = time.monotonic() - start
    report(1, elapsed < 60.0, f"{len(corpus)} graphs vs exhaustive scan, {elapsed:.1f}s")


def test_criterion_2_small_cycle_hulls():
    h4 = build_injective_hull(fixture("C4"))
    h5 = build_injective_hull(fixture("C5"))
    ok = (
        (h4.hull.n, h4.hull.m) == (5, 8)
        and h4.hull == fixture("W4")
        and (h5.hull.n, h5.hull.m) == (6, 10)
        and h5.hull == fixture("W5")
    )
    report(2, ok, "H(C4)=W4 5v/8e, H(C5)=W5 6v/10e")


def test_criterion_3_dh_equivalence():
    start = time.monotonic()
    for seed, g in _dh_seed_instances(100, 12):
        result = hellify_dh(g)
        oracle = build_injective_hull(g)
        assert canonical_hull(result.hull, g.n) == (oracle.hull, oracle.vectors), seed
        assert result.hull.n <= 2 * g.n and result.hull.m <= 4 * g.m, seed
        assert is_helly(result.hull), seed
        assert pruning_sequence(result.hull) is not None, seed
    elapsed = time.monotonic() - start
    report(3, elapsed < 120.0, f"100 instances, {elapsed:.1f}s")


def test_criterion_4_permutation_fixture():
    g = fixture("permutation")
    h = build_injective_hull(g)
    label = {name: v for v, name in enumerate(g.labels)}
    h1 = h.n_real
    real_neighbors = {g.labels[u] for u in h.hull.neighbors(h1) if u < h.n_real}
    ok = (
        h.n_helly == 2
        and real_neighbors == {"a", "b", "c", "d", "f"}
        and not h.hull.has_edge(h1, label["e"])
        and is_at_free(h.hull)
    )
    report(4, ok, "2 Helly vertices, h1~{a,b,c,d,f}, hull AT-free")


def test_criterion_5_exponential_family_counts():
    start = time.monotonic()
    split_sets = maximal_two_sets(split_family(4))
    cocomp_sets = maximal_two_sets(cocomparability_family(4)[0])
    # the bipartite case: the k-crown's hull gains exactly 2^k Helly vertices
    crown_helly = [build_injective_hull(crown_family(k)).n_helly for k in range(3, 8)]
    # exact hull sizes 2^k + 4k - 2 past the 14-vertex CLI cap: 18/30/50/86/154
    split_n = [build_injective_hull(split_family(k)).hull.n for k in range(3, 8)]
    cocomp_n = [build_injective_hull(cocomparability_family(k)[0]).hull.n for k in range(3, 7)]
    crown8_n = build_injective_hull(crown_family(8)).hull.n
    c15_n = build_injective_hull(fixture("C15")).hull.n
    ok = (
        len(split_sets) == 16
        and sum(1 for s in split_sets if not s.suspended) == 6
        and len(cocomp_sets) == 16
        and sum(1 for s in cocomp_sets if not s.suspended) == 6
        and crown_helly == [2**k for k in range(3, 8)]
        and split_n == [2**k + 4 * k - 2 for k in range(3, 8)]
        and cocomp_n == [2**k + 4 * k - 2 for k in range(3, 7)]
        and crown8_n == 2 * 8 + 2**8
        and c15_n == 683
    )
    elapsed = time.monotonic() - start
    detail = (
        f"16/6 two-sets, crown Helly counts {crown_helly}, split hulls {split_n},"
        f" cocomparability hulls {cocomp_n}, |H(crown8)|={crown8_n}, |H(C15)|={c15_n},"
        f" {elapsed:.1f}s"
    )
    report(5, ok and elapsed < 60.0, detail)


def test_criterion_6_hyperbolicity_preserved(corpus, corpus_hulls):
    for name, g in corpus:
        hull = corpus_hulls[name].hull
        assert hyperbolicity(g).delta2 == hyperbolicity(hull).delta2, name
    # hulls above the 128-vertex CLI cap: 365, 261 and 142 vertices
    pinned = [
        (fixture("C12"), 6, (0, 3, 6, 9)),
        (fixture("C13"), 5, (0, 3, 6, 9)),
        (crown_family(7), 2, (0, 1, 2, 7)),
    ]
    for g, delta2, witness in pinned:
        hull = build_injective_hull(g).hull
        for r in (hyperbolicity(g), hyperbolicity(hull)):
            assert (r.delta2, r.witness) == (delta2, witness), g.n
    report(6, True, f"delta(G)=delta(H(G)) on {len(corpus)} graphs and H(C12), H(C13), H(crown7)")


def test_criterion_7_closure_properties(corpus, corpus_hulls):
    for seed in range(100):
        rng = SplitMix64(seed + 991)
        n = 3 + rng.below(7)  # 3..9
        g = random_chordal(n, seed)
        assert is_chordal(build_injective_hull(g).hull), seed
    square_chordal = dh = 0
    for name, g in corpus:
        hull = corpus_hulls[name].hull
        if is_square_chordal(g):
            square_chordal += 1
            assert is_square_chordal(hull), name
            assert is_dually_chordal(hull), name
        if pruning_sequence(g) is not None:
            dh += 1
            assert pruning_sequence(hull) is not None, name
    report(7, True, f"100 chordal, {square_chordal} square-chordal, {dh} DH closures")


def test_criterion_8_characterization_properties(corpus, corpus_hulls):
    for seed, g in _dh_seed_instances(40, 12):
        assert is_helly(g) == all_extended_squares_suspended(g), seed
    for name, g in corpus:
        if pruning_sequence(g) is not None:
            assert is_helly(g) == all_extended_squares_suspended(g), name
    for name, g in corpus:
        r = math.ceil(hyperbolicity(g).delta2 / 2) + 1
        if disk_helly_up_to_radius(g, r):
            assert is_helly(g), name
    for name, g in corpus:
        h = corpus_hulls[name]
        assert all(p < h.n_real for p in peripheral_vertices(h.hull)), name
        d = g.distances().rows
        for z in range(g.n):
            for x in range(g.n):
                if x == z:
                    continue
                for y in range(x + 1, g.n):
                    if y == z:
                        continue
                    for k in range(min(d[z][x], d[z][y])):
                        assert disk_separates(g, z, k, x, y) == disk_separates(
                            h.hull, z, k, x, y
                        ), (name, z, k, x, y)
    report(8, True, "extended-square iff, bounded disk-Helly, peripheral/real, disk separation")


def test_criterion_9_at_free_gap_bounds(corpus, corpus_hulls):
    checked = at_free_hulls = 0
    observed = 0
    for name, g in corpus + [("cocomp2", cocomparability_family(2)[0])]:
        if not is_at_free(g):
            continue
        h = corpus_hulls.get(name) or build_injective_hull(g)
        gap = helly_gap(h)
        assert gap <= 2, name
        observed = max(observed, gap)
        checked += 1
        if is_at_free(h.hull):
            assert gap <= 1, name
            at_free_hulls += 1
    report(9, True, f"{checked} AT-free graphs, max gap {observed}, {at_free_hulls} AT-free hulls")
