"""Direct Helly-property recognition without building the hull.

The decision procedure composes two checks: pseudo-modularity, tested per
source on the graph's cached BFS level masks with one bitset scan per vertex,
and the neighborhood-Helly property, tested through maximal 2-sets. Maximal
2-sets are exactly the maximal cliques of the square graph, so they are
enumerated with pivoting Bron-Kerbosch on bit rows. A bounded
disk-Helly check and the extended-square characterization used for
distance-hereditary inputs live here too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .detectors import is_chordal
from .errors import BudgetExceededError
from .graphs import Graph, bits

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
        for u in bits(p | x):
            cover = (p & rows[u]).bit_count()
            if cover > best:
                best = cover
                pivot = u
        for v in bits(p & ~rows[pivot]):
            bv = 1 << v
            expand(r | bv, p & rows[v], x & rows[v])
            p &= ~bv
            x |= bv

    expand(0, (1 << n) - 1, 0)
    out.sort(key=lambda mask: tuple(bits(mask)))
    return out


def _suspension_witness(g: Graph, mask: int) -> Optional[int]:
    """Least vertex adjacent to every member of ``mask`` except itself."""
    for v in range(g.n):
        if mask & ~(g.adj[v] | 1 << v) == 0:
            return v
    return None


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


def is_neighborhood_helly(g: Graph, max_nodes: int = DEFAULT_CLIQUE_NODES) -> bool:
    """True iff every maximal 2-set is suspended."""
    return all(ts.suspended for ts in maximal_two_sets(g, max_nodes))


def find_pseudo_modular_violation(g: Graph) -> Optional[tuple[int, int, int]]:
    """First triple (u, v, w) breaking the equidistant-pair condition.

    A violation is 1 <= d(v,w) <= 2 and d(u,v) = d(u,w) = k >= 2 with no
    common neighbor of v and w at distance k-1 from u. Triples are ordered
    by u, then v, then w. For each source u and vertex v at level k, the
    violating w are ``L_k(u) & N2(v)`` above v, minus the neighborhoods of
    ``N(v) & L_{k-1}(u)``, where L are the BFS level masks and N2 the square.
    """
    n = g.n
    adj = g.adj
    near = g.power(2).adj
    for u, layers in enumerate(g.level_masks()):
        du = [0] * n
        for k in range(2, len(layers)):
            for v in bits(layers[k]):
                du[v] = k
        for v, k in enumerate(du):
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


def is_helly(g: Graph, max_nodes: int = DEFAULT_CLIQUE_NODES) -> bool:
    """Helly iff pseudo-modular and neighborhood-Helly."""
    return is_pseudo_modular(g) and is_neighborhood_helly(g, max_nodes)


def disk_helly_up_to_radius(
    g: Graph, r: int, max_nodes: int = DEFAULT_CLIQUE_NODES
) -> bool:
    """Do all families of pairwise intersecting disks of radius <= r intersect?

    Enumerates maximal cliques of the intersection graph over the n*(r+1)
    disks D(v, i) and intersects each clique's members. Redundant nested disks
    are kept; supersets never change the answer.
    """
    if r < 1:
        raise ValueError("radius bound must be >= 1")
    disks = [g.disk_mask(v, i) for v in range(g.n) for i in range(r + 1)]
    k = len(disks)
    rows = [0] * k
    for a in range(k):
        for b in range(a + 1, k):
            if disks[a] & disks[b]:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    for clique in maximal_cliques(tuple(rows), k, max_nodes):
        common = (1 << g.n) - 1
        for i in bits(clique):
            common &= disks[i]
        if common == 0:
            return False
    return True


def extended_squares(g: Graph) -> list[ExtendedSquare]:
    """One record per induced 4-cycle, with its extension and witness."""
    n = g.n
    out = []
    closed = [g.adj[v] | 1 << v for v in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            for c in range(b + 1, n):
                for e in range(c + 1, n):
                    quad = (a, b, c, e)
                    mask = (1 << a) | (1 << b) | (1 << c) | (1 << e)
                    if all((g.adj[v] & mask).bit_count() == 2 for v in quad):
                        members = tuple(
                            v for v in range(n) if (closed[v] & mask).bit_count() >= 3
                        )
                        mmask = 0
                        for v in members:
                            mmask |= 1 << v
                        out.append(
                            ExtendedSquare(quad, members, _suspension_witness(g, mmask))
                        )
    return out


def all_extended_squares_suspended(g: Graph) -> bool:
    return all(sq.suspended for sq in extended_squares(g))


def is_dually_chordal(g: Graph, max_nodes: int = DEFAULT_CLIQUE_NODES) -> bool:
    """Neighborhood-Helly with a chordal square."""
    return is_neighborhood_helly(g, max_nodes) and is_chordal(g.power(2))
