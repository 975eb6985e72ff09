"""Constructors for exponential-hull families, random instances, and fixtures.

The three 2^k-families share a vertex numbering convention so reports are
comparable across runs: the X block first, then Y, then M grouped by block
index. Seeded generators use an explicit splitmix-style PRNG so outputs are
identical across platforms and Python versions.
"""

from __future__ import annotations

import re
from typing import Sequence

from .dh import FALSE_TWIN, PENDANT, TRUE_TWIN, PruningSequence, PruningStep, replay
from .dh import MAX_VERTICES as DH_MAX_VERTICES
from .graphs import Graph, check_size

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny portable PRNG; identical streams on every platform."""

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, bound: int) -> int:
        """Uniform-enough integer in [0, bound); modulo bias is irrelevant here."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return self.next64() % bound

    def coin(self) -> bool:
        return bool(self.next64() >> 63)

    def shuffled(self, items: Sequence) -> list:
        out = list(items)
        for i in range(len(out) - 1, 0, -1):
            j = self.below(i + 1)
            out[i], out[j] = out[j], out[i]
        return out


def _family_vertices(k: int):
    """Shared id layout: x_i = i-1, y_i = k+i-1, M block i at 2k+4(i-1)."""
    xs = list(range(k))
    ys = list(range(k, 2 * k))
    us = [2 * k + 4 * i for i in range(k)]
    vs = [2 * k + 4 * i + 1 for i in range(k)]
    ws = [2 * k + 4 * i + 2 for i in range(k)]
    zs = [2 * k + 4 * i + 3 for i in range(k)]
    labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)]
    for i in range(k):
        labels += [f"u{i + 1}", f"v{i + 1}", f"w{i + 1}", f"z{i + 1}"]
    return xs, ys, us, vs, ws, zs, labels


def _family_edges(k: int, xs, ys, us, vs, ws, zs) -> list[tuple[int, int]]:
    edges = []
    m_all = us + vs + ws + zs
    m_sorted = sorted(m_all)
    for i, a in enumerate(m_sorted):
        for b in m_sorted[i + 1 :]:
            edges.append((a, b))
    for i in range(k):
        edges.append((xs[i], us[i]))
        edges.append((xs[i], vs[i]))
        edges.append((ys[i], ws[i]))
        edges.append((ys[i], zs[i]))
        for j in range(k):
            if j != i:
                edges.append((xs[i], us[j]))
                edges.append((xs[i], zs[j]))
                edges.append((ys[i], ws[j]))
                edges.append((ys[i], vs[j]))
    return edges


def split_family(k: int) -> Graph:
    """Split graph on 6k vertices whose hull needs ~2^k new vertices.

    X and Y are independent sets; M is a clique grouped into k blocks
    (u_i, v_i, w_i, z_i). Each x_i sees u_i, v_i and, for j != i, u_j and
    z_j; each y_i sees w_i, z_i and, for j != i, w_j and v_j. The only
    distance-3 pairs are (x_i, y_i).
    """
    if k < 2:
        raise ValueError("split family needs k >= 2")
    check_size(6 * k)
    xs, ys, us, vs, ws, zs, labels = _family_vertices(k)
    edges = _family_edges(k, xs, ys, us, vs, ws, zs)
    return Graph.from_edge_list(6 * k, edges, labels)


def cocomparability_family(k: int) -> tuple[Graph, tuple[int, ...]]:
    """Like the split family but X and Y are cliques; also returns the
    X-then-M-then-Y vertex ordering, which is a cocomparability ordering."""
    if k < 2:
        raise ValueError("cocomparability family needs k >= 2")
    check_size(6 * k)
    xs, ys, us, vs, ws, zs, labels = _family_vertices(k)
    edges = _family_edges(k, xs, ys, us, vs, ws, zs)
    for block in (xs, ys):
        for i, a in enumerate(block):
            for b in block[i + 1 :]:
                edges.append((a, b))
    g = Graph.from_edge_list(6 * k, edges, labels)
    order = tuple(xs) + tuple(sorted(us + vs + ws + zs)) + tuple(ys)
    return g, order


def crown_family(k: int) -> Graph:
    """Complete bipartite graph K_{k,k} minus a perfect matching (2k vertices)."""
    if k < 3:
        raise ValueError("crown family needs k >= 3")
    check_size(2 * k)
    edges = [
        (i, k + j) for i in range(k) for j in range(k) if i != j
    ]
    labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)]
    return Graph.from_edge_list(2 * k, edges, labels)


def random_chordal(n: int, seed: int) -> Graph:
    """Random connected chordal graph grown by simplicial attachment."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n)
    rng = SplitMix64(seed)
    adj: list[set[int]] = [set() for _ in range(n)]
    for v in range(1, n):
        a = rng.below(v)
        clique = [a]
        for u in rng.shuffled(sorted(adj[a])):
            if u < v and rng.coin() and all(u in adj[c] or u == c for c in clique):
                clique.append(u)
        for c in clique:
            adj[v].add(c)
            adj[c].add(v)
    edges = [(u, v) for u in range(n) for v in adj[u] if u < v]
    return Graph.from_edge_list(n, edges)


KIND_CHOICES = (PENDANT, TRUE_TWIN, FALSE_TWIN)


def random_pruning_sequence(n: int, seed: int) -> PruningSequence:
    """Random build order of pendant/true-twin/false-twin extensions.

    The second vertex is never a false twin (that would disconnect the
    graph); the draw is mapped to a true twin, which coincides with a pendant
    at that point anyway.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    rng = SplitMix64(seed)
    steps = []
    for v in range(1, n):
        kind = KIND_CHOICES[rng.below(3)]
        if v == 1 and kind == FALSE_TWIN:
            kind = TRUE_TWIN
        anchor = rng.below(v)
        steps.append(PruningStep(v, kind, anchor))
    return PruningSequence(tuple(range(n)), tuple(steps))


def random_dh(n: int, seed: int) -> Graph:
    """Random connected distance-hereditary graph from a random pruning sequence."""
    check_size(n, DH_MAX_VERTICES)
    return replay(random_pruning_sequence(n, seed))


# -- named fixtures ---------------------------------------------------------

# The 6-vertex permutation graph whose hull gains exactly two Helly vertices,
# one of them adjacent to every real vertex except e. Square a-b-c-d with
# apex e over the a-b edge and apex f over the c-d edge; the far pair is
# (e, f) at distance 3. Twin-free, so its permutation model is essentially
# unique. e sits at id 5 so the canonically-first Helly vertex is the one
# avoiding it. Frozen here; the regression test pins the adjacency claims.
_PERMUTATION_EDGES = [
    (0, 1), (1, 2), (2, 3), (0, 3),  # square a-b-c-d
    (0, 5), (1, 5),                  # e roofs a-b
    (2, 4), (3, 4),                  # f roofs c-d
]
_PERMUTATION_LABELS = ("a", "b", "c", "d", "f", "e")


def _cycle(k: int) -> Graph:
    if k < 3:
        raise ValueError("cycle needs k >= 3")
    return Graph.from_edge_list(k, [(i, (i + 1) % k) for i in range(k)])


def _path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return Graph.from_edge_list(n, [(i, i + 1) for i in range(n - 1)])


def _complete(n: int) -> Graph:
    if n < 1:
        raise ValueError("complete graph needs n >= 1")
    return Graph.from_edge_list(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _wheel(k: int) -> Graph:
    if k < 3:
        raise ValueError("wheel needs rim size k >= 3")
    edges = [(i, (i + 1) % k) for i in range(k)] + [(i, k) for i in range(k)]
    return Graph.from_edge_list(k + 1, edges)


def _house() -> Graph:
    # square 0-1-2-3 with apex 4 over the 0-1 edge
    return Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)])


def _domino() -> Graph:
    # two squares sharing the 1-4 edge
    return Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)])


def _gem() -> Graph:
    # path 0-1-2-3 plus a universal vertex 4
    return Graph.from_edge_list(
        5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)]
    )


def _permutation() -> Graph:
    return Graph.from_edge_list(6, _PERMUTATION_EDGES, _PERMUTATION_LABELS)


_NAMED = {
    "house": _house,
    "domino": _domino,
    "gem": _gem,
    "permutation": _permutation,
}

_PARAMETRIC = re.compile(r"^([CKPW])(\d+)$")


def fixture(name: str) -> Graph:
    """Named graphs: house, domino, gem, permutation, and C<k>/W<k>/K<n>/P<n>."""
    if name in _NAMED:
        return _NAMED[name]()
    match = _PARAMETRIC.match(name)
    if match:
        kind, num = match.group(1), int(match.group(2))
        check_size(num + 1 if kind == "W" else num)
        if kind == "C":
            return _cycle(num)
        if kind == "W":
            return _wheel(num)
        if kind == "K":
            return _complete(num)
        if kind == "P":
            return _path(num)
    raise ValueError(f"unknown fixture {name!r}")
