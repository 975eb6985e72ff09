"""Recognizers for the graph classes the library quantifies over.

Full cocomparability recognition is deliberately out of scope: generators
supply orderings, and this module only verifies them.
"""

from __future__ import annotations

from functools import cache
from typing import Optional, Sequence

from .graphs import Graph, bits


def _mcs_order(g: Graph) -> list[int]:
    """Maximum cardinality search order, ties broken by lowest id.

    ``buckets[w]`` masks the unnumbered vertices of weight w. The next vertex
    is the lowest bit of the top non-empty bucket; its unnumbered neighbours
    then move up one bucket a whole mask at a time, from the top bucket down.
    """
    adj = g.adj
    unnumbered = (1 << g.n) - 1
    buckets = [unnumbered] + [0] * g.n
    top = 0
    order = []
    while unnumbered:
        while not buckets[top]:  # a finished component drops back to bucket 0
            top -= 1
        bucket = buckets[top]
        bit = bucket & -bucket
        buckets[top] = bucket ^ bit
        unnumbered ^= bit
        v = bit.bit_length() - 1
        order.append(v)
        nb = adj[v] & unnumbered
        w = top
        while nb:
            moving = buckets[w] & nb
            if moving:
                buckets[w] ^= moving
                buckets[w + 1] |= moving
                nb ^= moving
            w -= 1
        top += 1
    return order


def _clique_masks(g: Graph) -> Optional[list[int]]:
    """The masks K_i, the i-th vertex of the MCS order plus its earlier
    neighbours, in that order, when each earlier neighbourhood is a clique,
    which holds iff g is chordal; None otherwise.

    It is enough that the earlier neighbours other than the latest one, p,
    are adjacent to p, since they are earlier neighbours of p itself (Tarjan
    and Yannakakis, SIAM J. Comput. 1984). When p is the vertex numbered just
    before, that is one mask test; otherwise the earlier neighbours' closed
    neighbourhoods are ANDed.
    """
    adj = g.adj
    earlier = last = closed = 0  # last: the previous vertex's bit; closed: its N[]
    ks = []
    for v in _mcs_order(g):
        prior = adj[v] & earlier
        if prior & last:
            if prior & ~closed:
                return None
        else:
            common = rest = prior
            while rest:
                low = rest & -rest
                common &= adj[low.bit_length() - 1] | low
                rest ^= low
            if common != prior:
                return None
        last = 1 << v
        ks.append(prior | last)
        closed = adj[v] | last
        earlier |= last
    return ks


def is_chordal(g: Graph) -> bool:
    """True iff g is chordal: :func:`_clique_masks`, built once per graph, finds the masks."""
    return g._cached(_clique_masks) is not None


def find_long_induced_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """Some induced cycle of length >= 4, or None when the graph is chordal.

    A witness exists iff the graph is not chordal: pick non-adjacent u, p with
    a common neighbor v, then a shortest u-p path avoiding the rest of N[v]
    closes an induced cycle through v; the least such path is taken. A
    chordal graph returns at once, without one search per pair.
    """
    if is_chordal(g):
        return None
    full = (1 << g.n) - 1
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        for i, u in enumerate(nbrs):
            for p in nbrs[i + 1 :]:
                if g.has_edge(u, p):
                    continue
                allowed = full & ~((g.adj[v] | 1 << v) & ~((1 << u) | (1 << p)))
                layers = []
                for layer in g._frontiers(1 << u, allowed):
                    layers.append(layer)
                    if layer >> p & 1:
                        return (v, *_least_path(g, layers, 1 << p))
    return None


def _least_path(g: Graph, layers: list[int], ends: int) -> list[int]:
    """The lexicographically least shortest path from the root ``layers[0]`` to
    ``ends`` in ``layers[-1]``: the first-discoverer parent chain of a queue BFS
    that scans neighbours in id order, since it meets each layer in that order.
    Walk up, keeping the vertices with a neighbour kept below, then walk down."""
    adj = g.adj
    kept = [layers[-1] & ends]
    for layer in reversed(layers[1:-1]):
        kept.append(sum(1 << x for x in bits(layer) if adj[x] & kept[-1]))
    path = [layers[0].bit_length() - 1]
    for mask in reversed(kept):
        step = adj[path[-1]] & mask  # the lowest kept neighbour
        path.append((step & -step).bit_length() - 1)
    return path


def is_square_chordal(g: Graph) -> bool:
    return is_chordal(g.power(2))


def _bfs_forest(g: Graph) -> tuple[list[int], Optional[tuple[int, int]], int]:
    """BFS layers from the lowest unseen vertex of each component up to the
    first layer with an edge (v, u), u > v, inside it: v the first such vertex
    a queue BFS meets, u its lowest such neighbour. Returns the last component's
    layers, (v, u) or None, and the odd layers, a 2-colouring if there is no edge."""
    adj, full = g.adj, (1 << g.n) - 1
    seen = odd = 0
    while seen != full:
        layers = []
        for layer in g._frontiers(~seen & (seen + 1), full):
            layers.append(layer)
            ends = sum(1 << x for x in bits(layer) if (adj[x] & layer) >> (x + 1))
            if ends:
                v = _least_path(g, layers, ends)[-1]
                above = (adj[v] & layer) >> (v + 1) << (v + 1)
                return layers, (v, (above & -above).bit_length() - 1), odd
        seen |= sum(layers)
        odd |= sum(layers[1::2])
    return layers, None, odd


def is_bipartite(g: Graph) -> Optional[tuple[int, ...]]:
    """A BFS 2-coloring (tuple of 0/1 per vertex), or None on an odd cycle."""
    _, edge, odd = g._cached(_bfs_forest)
    return None if edge else tuple(odd >> v & 1 for v in range(g.n))


def find_odd_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """An odd closed walk witnessing non-bipartiteness (not necessarily induced)."""
    layers, edge, _ = g._cached(_bfs_forest)
    if edge is None:
        return None
    # both least paths run down one BFS tree: equal up to their last common vertex
    left, right = (_least_path(g, layers, 1 << x) for x in edge)
    k = sum(a == b for a, b in zip(left, right)) - 1
    return tuple(left[:k:-1] + right[k:])


def is_split(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A (clique, independent set) partition, or None.

    Hammer and Simeone (1981): for degrees d_1 >= ... >= d_n and m the last i
    with d_i >= i - 1, the graph is split iff d_1 + ... + d_m = m(m - 1) +
    d_{m+1} + ... + d_n, with the first m vertices as the clique. No longer
    prefix of the degree order can be a clique.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    deg = [g.degree(v) for v in order]
    m = max(i for i, d in enumerate(deg, 1) if d >= i - 1)
    if sum(deg[:m]) != m * (m - 1) + sum(deg[m:]):
        return None
    return tuple(sorted(order[:m])), tuple(sorted(order[m:]))


def find_asteroidal_triple(g: Graph) -> Optional[tuple[int, int, int]]:
    """Lexicographically least asteroidal triple, or None.

    ``comp(v)[u]`` is the component of G - N[v] holding u, as a mask (0 for
    u in N[v]); a < b < c is asteroidal iff each pair shares a component
    around the third. Row v is built the first time the scan reads it,
    since the least triple is usually found after a few rows.
    """
    n = g.n

    @cache
    def comp(v: int) -> list[int]:
        row = [0] * n
        allowed = rest = ((1 << n) - 1) & ~(g.adj[v] | 1 << v)
        while rest:
            reach = sum(g._frontiers(rest & -rest, allowed))
            for u in bits(reach):
                row[u] = reach
            rest ^= reach
        return row

    for a in range(n):
        for b in range(a + 1, n):
            above = comp(a)[b] >> (b + 1) << (b + 1)
            if above:
                for c in bits(above & comp(b)[a]):
                    if comp(c)[a] >> b & 1:
                        return (a, b, c)
    return None


def is_at_free(g: Graph) -> bool:
    return find_asteroidal_triple(g) is None


def find_cocomparability_violation(
    g: Graph, order: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """First (x, y, z) with x < y < z in ``order``, xz an edge, but neither xy nor yz.

    On rows relabelled to order positions, y is the lowest position between
    x and z that neither row holds.
    """
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    pos = {v: i for i, v in enumerate(order)}
    rows = [sum(1 << pos[u] for u in bits(g.adj[v])) for v in order]
    for i, row in enumerate(rows):
        for k in bits(row >> (i + 2) << (i + 2)):
            gap = ((1 << k) - 1) >> (i + 1) << (i + 1) & ~row & ~rows[k]
            if gap:
                return order[i], order[(gap & -gap).bit_length() - 1], order[k]
    return None


def verify_cocomparability_ordering(g: Graph, order: Sequence[int]) -> bool:
    return find_cocomparability_violation(g, order) is None
