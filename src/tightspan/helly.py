"""Direct Helly-property recognition without building the hull.

The decision procedure composes two checks: pseudo-modularity, tested per
source on that source's own BFS layers with one bitset scan per vertex, and
the neighborhood-Helly property, tested through maximal 2-sets. Maximal
2-sets are exactly the maximal cliques of the square graph, so they are
enumerated with pivoting Bron-Kerbosch on bit rows. A bounded
disk-Helly check, which reads the disk intersection graph off the level
masks without comparing disks pairwise, and the extended-square
characterization used for distance-hereditary inputs live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .detectors import is_chordal
from .errors import BudgetExceededError
from .graphs import Graph, _distance_row, bits

DEFAULT_CLIQUE_NODES = 2_000_000


@dataclass(frozen=True)
class TwoSet:
    """A maximal set of vertices with pairwise distance at most 2."""

    members: tuple[int, ...]
    suspended_by: Optional[int]

    @property
    def suspended(self) -> bool:
        return self.suspended_by is not None


@dataclass(frozen=True)
class ExtendedSquare:
    """An induced 4-cycle plus every vertex adjacent to at least 3 of its corners."""

    square: tuple[int, int, int, int]
    members: tuple[int, ...]
    suspended_by: Optional[int]

    @property
    def suspended(self) -> bool:
        return self.suspended_by is not None


def maximal_cliques(
    rows: tuple[int, ...], n: int, max_nodes: int = DEFAULT_CLIQUE_NODES
) -> list[int]:
    """All maximal cliques of a bit-row graph as vertex masks, sorted.

    Pivoting Bron-Kerbosch; the pivot is the P|X vertex covering most of P,
    ties to the lowest id, so output is deterministic before sorting anyway.
    Raises BudgetExceededError when ``max_nodes`` run out or a clique is
    larger than the recursion limit allows.
    """
    out: list[int] = []
    nodes = 0

    def expand(r: int, p: int, x: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise BudgetExceededError(f"clique enumeration exceeded {max_nodes} nodes")
        if p == 0 and x == 0:
            out.append(r)
            return
        pivot = -1
        best = -1
        rest = p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            cover = (p & rows[u]).bit_count()
            if cover > best:
                best = cover
                pivot = u
        for v in bits(p & ~rows[pivot]):
            bv = 1 << v
            expand(r | bv, p & rows[v], x & rows[v])
            p &= ~bv
            x |= bv

    try:
        expand(0, (1 << n) - 1, 0)
    except RecursionError:
        # Recursion depth is the clique size; a clique deeper than the
        # interpreter's stack allows is reported like an exhausted budget.
        raise BudgetExceededError(
            f"clique enumeration ran out of recursion depth after {nodes} nodes"
        ) from None
    out.sort(key=lambda mask: tuple(bits(mask)))
    return out


def _suspension_witness(g: Graph, mask: int) -> Optional[int]:
    """Least vertex adjacent to every member of ``mask`` except itself: the
    lowest bit of the AND of N[u] over the members u (0 for an empty mask)."""
    common = (1 << g.n) - 1
    for u in bits(mask):
        common &= g.adj[u] | 1 << u
    return (common & -common).bit_length() - 1 if common else None


def maximal_two_sets(
    g: Graph, max_nodes: int = DEFAULT_CLIQUE_NODES
) -> list[TwoSet]:
    """All maximal 2-sets, each with its suspension witness when one exists.

    Maximal 2-sets correspond one-to-one to maximal cliques of the square, so
    this enumerates cliques of ``g.power(2)``. Counts can be exponential; the
    node budget guards against that.
    """
    square = g.power(2)
    cliques = maximal_cliques(square.adj, g.n, max_nodes)
    return [
        TwoSet(tuple(bits(mask)), _suspension_witness(g, mask)) for mask in cliques
    ]


def is_neighborhood_helly(g: Graph) -> bool:
    """True iff every maximal 2-set is suspended."""
    return all(ts.suspended for ts in maximal_two_sets(g))


def find_pseudo_modular_violation(g: Graph) -> Optional[tuple[int, int, int]]:
    """First triple (u, v, w) breaking the equidistant-pair condition.

    A violation is 1 <= d(v,w) <= 2 and d(u,v) = d(u,w) = k >= 2 with no
    common neighbor of v and w at distance k-1 from u. Triples are ordered
    by u, then v, then w. For each source u and vertex v at level k, the
    violating w are ``L_k(u) & N2(v)`` above v, minus the neighborhoods of
    ``N(v) & L_{k-1}(u)``, where L are u's BFS layers and N2 the square.
    Each source runs its own BFS inside the loop, and the scan stops at the
    first violation, so a graph that fails early pays for few searches.
    """
    n = g.n
    adj = g.adj
    near = g.power(2).adj
    full = (1 << n) - 1
    for u in range(n):
        layers = list(g._frontiers(1 << u, full))
        for v, k in enumerate(_distance_row(n, layers)):
            if k < 2:
                continue
            candidates = layers[k] & near[v] >> (v + 1) << (v + 1)
            if not candidates:
                continue
            covered = 0
            for c in bits(adj[v] & layers[k - 1]):
                covered |= adj[c]
            bad = candidates & ~covered
            if bad:
                return (u, v, (bad & -bad).bit_length() - 1)
    return None


def is_pseudo_modular(g: Graph) -> bool:
    return find_pseudo_modular_violation(g) is None


def is_helly(g: Graph) -> bool:
    """Helly iff pseudo-modular and neighborhood-Helly."""
    return is_pseudo_modular(g) and is_neighborhood_helly(g)


def disk_helly_up_to_radius(g: Graph, r: int) -> bool:
    """Do all families of pairwise intersecting disks of radius <= r intersect?

    Enumerates maximal cliques of the intersection graph over the n*(r+1)
    disks D(v, i) and intersects each clique's members. Redundant nested disks
    are kept; supersets never change the answer. D(u, i) meets D(v, j) iff
    d(u, v) <= i + j, so with disk (v, i) at index i*n + v the row of D(u, i)
    is the OR over j of D(u, i + j) shifted by j*n, without its own bit; the
    disks D(u, k) are prefix ORs of u's BFS level masks. A disk of radius at
    least the diameter is all of V, so r is clamped to max(1, diameter).
    """
    if r < 1:
        raise ValueError("radius bound must be >= 1")
    n = g.n
    r = min(r, max(1, max(map(len, g.level_masks())) - 1))
    balls = []  # balls[u][k] = D(u, k) for k = 0..2r
    for layers in g.level_masks():
        ball, prefix = 0, []
        for k in range(2 * r + 1):
            if k < len(layers):
                ball |= layers[k]
            prefix.append(ball)
        balls.append(prefix)
    disks = [balls[v][i] for i in range(r + 1) for v in range(n)]
    rows = []
    for i in range(r + 1):
        for u in range(n):
            row = 0
            for j in range(r + 1):
                row |= balls[u][i + j] << (j * n)
            rows.append(row & ~(1 << (i * n + u)))
    for clique in maximal_cliques(tuple(rows), len(disks)):
        common = (1 << n) - 1
        for i in bits(clique):
            common &= disks[i]
        if common == 0:
            return False
    return True


def extended_squares(g: Graph) -> list[ExtendedSquare]:
    """One record per induced 4-cycle, with its extension and witness.

    An induced C4 on a < b < c < e meets {a, b, c} in an induced path p-m-q,
    so e runs over the common neighbours of p and q outside N[m] above c.
    The members are the vertices in at least 3 of the four closed
    neighbourhoods, taken as one majority mask.
    """
    adj = g.adj
    closed = [row | 1 << v for v, row in enumerate(adj)]
    out = []
    for a in range(g.n):
        for b in range(a + 1, g.n):
            ab = adj[a] >> b & 1
            # c makes {a, b, c} a path p-m-q: two of its three pairs are edges.
            # The middle m is c when a and b are apart, else whichever sees c.
            for c in bits((adj[a] ^ adj[b] if ab else adj[a] & adj[b]) >> (b + 1) << (b + 1)):
                p, m, q = (a, c, b) if not ab else (b, a, c) if adj[a] >> c & 1 else (a, b, c)
                for e in bits((adj[p] & adj[q] & ~closed[m]) >> (c + 1) << (c + 1)):
                    w, x, y, z = closed[a], closed[b], closed[c], closed[e]
                    members = w & x & (y | z) | y & z & (w | x)
                    witness = _suspension_witness(g, members)
                    out.append(ExtendedSquare((a, b, c, e), tuple(bits(members)), witness))
    return out


def all_extended_squares_suspended(g: Graph) -> bool:
    return all(sq.suspended for sq in extended_squares(g))


def is_dually_chordal(g: Graph) -> bool:
    """Neighborhood-Helly with a chordal square."""
    return is_neighborhood_helly(g) and is_chordal(g.power(2))
