"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: the extremal
scan enumerates raw vectors with numpy, Helly checks go through exhaustive
disk families, pseudo-modularity is a direct triple scan over the distance
matrix, and induced-subgraph containment is a direct subset sweep.
"""

from itertools import combinations
from typing import Optional

import numpy as np

from tightspan import Graph, SplitMix64
from tightspan.isomorphism import are_isomorphic_small


def brute_force_extremal(g: Graph) -> list[tuple[int, ...]]:
    """Scan every vector with 0 <= f(x) <= ecc(x) for feasibility and tightness."""
    dm = g.distances()
    n, d, ecc = g.n, dm.rows, dm.ecc
    grids = np.meshgrid(*[np.arange(e + 1, dtype=np.int16) for e in ecc], indexing="ij")
    F = np.stack([ax.ravel() for ax in grids], axis=1)
    keep = np.ones(len(F), dtype=bool)
    for x in range(n):
        for y in range(x + 1, n):
            keep &= F[:, x] + F[:, y] >= d[x][y]
    F = F[keep]
    ext = np.ones(len(F), dtype=bool)
    for x in range(n):
        tight = np.zeros(len(F), dtype=bool)
        for y in range(n):
            tight |= F[:, x] + F[:, y] == d[x][y]
        ext &= tight
    return sorted(tuple(int(v) for v in row) for row in F[ext])


def triple_disk_pseudo_modular(g: Graph) -> bool:
    """Do any three pairwise intersecting disks share a vertex?

    Radii range over 0..diameter; larger radii are full disks and redundant.
    """
    dm = g.distances()
    disks = [
        frozenset(g.disk(v, r))
        for v in range(g.n)
        for r in range(dm.diameter + 1)
    ]
    for a, b, c in combinations(disks, 3):
        if a & b and a & c and b & c and not (a & b & c):
            return False
    return True


def pseudo_modular_violation_scan(g: Graph) -> Optional[tuple[int, int, int]]:
    """First triple (u, v, w) breaking the equidistant-pair condition.

    A violation is 1 <= d(v,w) <= 2 and d(u,v) = d(u,w) = k >= 2 with no
    common neighbor of v and w at distance k-1 from u. Direct scan over the
    distance matrix, O(n^3) per source; the library's bitset scan must return
    the same triple.
    """
    dm = g.distances()
    d = dm.rows
    n = g.n
    level = [[0] * (dm.ecc[u] + 1) for u in range(n)]
    for u in range(n):
        for v in range(n):
            level[u][d[u][v]] |= 1 << v
    for u in range(n):
        du = d[u]
        for v in range(n):
            k = du[v]
            if k < 2:
                continue
            for w in range(v + 1, n):
                if du[w] != k or not 1 <= d[v][w] <= 2:
                    continue
                if not g.adj[v] & g.adj[w] & level[u][k - 1]:
                    return (u, v, w)
    return None


def exhaustive_helly(g: Graph) -> bool:
    """Helly check straight from the definition, over all disk families.

    Only usable on tiny graphs: iterates every subset of the distinct disks.
    """
    dm = g.distances()
    disks = sorted(
        {frozenset(g.disk(v, r)) for v in range(g.n) for r in range(dm.diameter + 1)}
    , key=sorted)
    for size in range(2, len(disks) + 1):
        for family in combinations(disks, size):
            pairwise = all(a & b for a, b in combinations(family, 2))
            if pairwise and not frozenset.intersection(*family):
                return False
    return True


def bounded_disk_helly_by_definition(g: Graph, r: int) -> bool:
    """Definition-level check over every family of distinct disks of radius <= r."""
    disks = sorted(
        {frozenset(g.disk(v, i)) for v in range(g.n) for i in range(r + 1)},
        key=sorted,
    )
    for size in range(2, len(disks) + 1):
        for family in combinations(disks, size):
            pairwise = all(a & b for a, b in combinations(family, 2))
            if pairwise and not frozenset.intersection(*family):
                return False
    return True


def contains_induced(g: Graph, pattern: Graph) -> bool:
    """Does g contain an induced subgraph isomorphic to a connected pattern?"""
    if pattern.n > g.n:
        return False
    for verts in combinations(range(g.n), pattern.n):
        sub = g.induced(verts)
        if not sub.is_connected():
            continue
        if are_isomorphic_small(sub, pattern) is not None:
            return True
    return False


def brute_force_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 4, checked by direct cycle search."""
    n = g.n
    for size in range(4, n + 1):
        for verts in combinations(range(n), size):
            sub = g.induced(verts)
            if all(sub.degree(v) == 2 for v in range(size)) and sub.is_connected():
                return False
    return True


def random_connected_graph(seed: int, min_n: int = 4, max_n: int = 8) -> Graph:
    """Seeded random connected graph: a random spanning tree plus extra edges."""
    rng = SplitMix64(seed * 2654435761 + 1)
    n = min_n + rng.below(max_n - min_n + 1)
    edges = set()
    for v in range(1, n):
        edges.add((rng.below(v), v))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.below(100) < 30:
                edges.add((u, v))
    return Graph.from_edge_list(n, sorted(edges))
