"""Constructors for exponential-hull families, random instances, and fixtures.

Seeded generators draw from :class:`SplitMix64`, so their outputs are the
same on every platform and Python version.
"""

from __future__ import annotations

import re
from typing import Sequence

from .dh import FALSE_TWIN, KINDS, TRUE_TWIN, PruningSequence, PruningStep, replay
from .dh import MAX_VERTICES as DH_MAX_VERTICES
from .graphs import Graph, bits, check_size

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """Tiny portable PRNG."""

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


def _family(k: int, xy_cliques: bool) -> Graph:
    """Both families on one id layout, so their reports compare: x_i = i,
    y_i = k + i, and block j is u_j, v_j, w_j, z_j at 2k + 4j. Neighbourhoods
    are as in :func:`split_family`, and X and Y are cliques when ``xy_cliques``
    is set."""
    n = 6 * k
    check_size(n)
    labels = [f"x{i + 1}" for i in range(k)] + [f"y{i + 1}" for i in range(k)]
    edges = [(a, b) for a in range(2 * k, n) for b in range(a + 1, n)]
    for i in range(k):
        labels += [f"u{i + 1}", f"v{i + 1}", f"w{i + 1}", f"z{i + 1}"]
        x, y = i, k + i
        edges += [(x, 2 * k + 4 * i + 1), (y, 2 * k + 4 * i + 3)]  # v_i, z_i
        for j in range(k):
            u = 2 * k + 4 * j
            edges += [(x, u), (y, u + 2)]  # every u_j, w_j
            if j != i:
                edges += [(x, u + 3), (y, u + 1)]  # z_j, v_j
                if xy_cliques:
                    edges += [(x, j), (y, k + j)]
    return Graph.from_edge_list(n, edges, labels)


def split_family(k: int) -> Graph:
    """Split graph on 6k vertices whose hull needs ~2^k new vertices.

    X and Y are independent sets; M is a clique grouped into k blocks
    (u_i, v_i, w_i, z_i). Each x_i sees u_i, v_i and, for j != i, u_j and
    z_j; each y_i sees w_i, z_i and, for j != i, w_j and v_j. The only
    distance-3 pairs are (x_i, y_i).
    """
    if k < 2:
        raise ValueError("split family needs k >= 2")
    return _family(k, xy_cliques=False)


def cocomparability_family(k: int) -> tuple[Graph, tuple[int, ...]]:
    """Like the split family but X and Y are cliques; also returns the
    X-then-M-then-Y vertex ordering, which is a cocomparability ordering."""
    if k < 2:
        raise ValueError("cocomparability family needs k >= 2")
    g = _family(k, xy_cliques=True)  # the size check precedes listing the order
    return g, (*range(k), *range(2 * k, 6 * k), *range(k, 2 * k))


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
    """Random connected chordal graph grown by simplicial attachment: each v
    joins a clique of an older vertex a and some of a's (older) neighbours."""
    if n < 1:
        raise ValueError("n must be >= 1")
    check_size(n)
    rng = SplitMix64(seed)
    adj = [0] * n
    for v in range(1, n):
        a = rng.below(v)
        clique = 1 << a
        for u in rng.shuffled(list(bits(adj[a]))):
            if rng.coin() and not clique & ~(adj[u] | 1 << u):
                clique |= 1 << u
        adj[v] = clique
        for c in bits(clique):
            adj[c] |= 1 << v
    return Graph._of(n, adj)


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
        kind = KINDS[rng.below(3)]
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

# name -> (n, edges, labels)
_NAMED = {
    # square 0-1-2-3 with apex 4 over the 0-1 edge
    "house": (5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (1, 4)], None),
    # two squares sharing the 1-4 edge
    "domino": (6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)], None),
    # path 0-1-2-3 plus a universal vertex 4
    "gem": (5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)], None),
    # The 6-vertex permutation graph whose hull gains exactly two Helly
    # vertices, one of them adjacent to every real vertex except e. Square
    # a-b-c-d with apex e over the a-b edge and apex f over the c-d edge; the
    # far pair is (e, f) at distance 3. Twin-free, so its permutation model is
    # essentially unique. e sits at id 5 so the canonically-first Helly vertex
    # is the one avoiding it. Frozen here; the regression test pins the
    # adjacency claims.
    "permutation": (6, [
        (0, 1), (1, 2), (2, 3), (0, 3),  # square a-b-c-d
        (0, 5), (1, 5),                  # e roofs a-b
        (2, 4), (3, 4),                  # f roofs c-d
    ], ("a", "b", "c", "d", "f", "e")),
}

_PARAMETRIC = re.compile(r"^([CKPW])(\d+)$")
_TOO_SMALL = {
    "C": "cycle needs k >= 3",
    "W": "wheel needs rim size k >= 3",
    "K": "complete graph needs n >= 1",
    "P": "path needs n >= 1",
}


def fixture(name: str) -> Graph:
    """Named graphs: house, domino, gem, permutation, and C<k>/W<k>/K<n>/P<n>."""
    if name in _NAMED:
        return Graph.from_edge_list(*_NAMED[name])
    match = _PARAMETRIC.match(name)
    if not match:
        raise ValueError(f"unknown fixture {name!r}")
    kind, k = match.group(1), int(match.group(2))
    check_size(k + 1 if kind == "W" else k)
    if k < (3 if kind in "CW" else 1):
        raise ValueError(_TOO_SMALL[kind])
    # K<k> joins all pairs; C<k> and W<k> close the path P<k>; W<k> adds hub k
    full = (1 << k) - 1
    rows = [full ^ 1 << v if kind == "K" else 0b101 << v >> 1 & full for v in range(k)]
    if kind in "CW":
        rows[0] |= 1 << k - 1
        rows[-1] |= 1
    if kind == "W":
        rows = [row | 1 << k for row in rows] + [full]
    return Graph._of(len(rows), rows)
