"""Recognizers for the graph classes the library quantifies over.

Chordality goes through maximum cardinality search, kept as one mask of
unnumbered vertices per weight with ties to the lowest id, and a perfect
elimination check; bipartiteness and splitness return explicit partitions,
the colouring from one BFS forest and the split from the degree sequence;
AT-freeness decomposes the graph around each closed neighborhood into
component masks and scans candidate triples on bit rows. Full
cocomparability recognition is deliberately out of scope: generators supply
orderings and this module only verifies them, on rows relabelled to order
positions.
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


def is_chordal(g: Graph) -> bool:
    """True iff the MCS order is a perfect elimination ordering in reverse."""
    order = _mcs_order(g)
    pos = [0] * g.n
    for i, v in enumerate(order):
        pos[v] = i
    earlier_mask = 0
    for v in order:
        prior = g.adj[v] & earlier_mask
        if prior:
            parent = max(bits(prior), key=lambda u: pos[u])
            if prior & ~(g.adj[parent] | 1 << parent):
                return False
        earlier_mask |= 1 << v
    return True


def find_long_induced_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """Some induced cycle of length >= 4, or None when the graph is chordal.

    A witness exists iff the graph is not chordal: pick non-adjacent u, p with
    a common neighbor v, then a shortest u-p path avoiding the rest of N[v]
    closes an induced cycle through v.
    """
    n = g.n
    full = (1 << n) - 1
    for v in range(n):
        nbrs = list(bits(g.adj[v]))
        for i, u in enumerate(nbrs):
            for p in nbrs[i + 1 :]:
                if g.has_edge(u, p):
                    continue
                allowed = full & ~((g.adj[v] | 1 << v) & ~((1 << u) | (1 << p)))
                path = _shortest_path(g, u, p, allowed)
                if path is not None:
                    return (v, *path)
    return None


def _shortest_path(g: Graph, src: int, dst: int, allowed: int) -> Optional[list[int]]:
    if not (allowed >> src & 1 and allowed >> dst & 1):
        return None
    parent = {src: -1}
    frontier = [src]
    while frontier:
        nxt = []
        for v in frontier:
            for u in bits(g.adj[v] & allowed):
                if u not in parent:
                    parent[u] = v
                    nxt.append(u)
        if dst in parent:
            break
        frontier = nxt
    if dst not in parent:
        return None
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    path.reverse()
    return path


def is_square_chordal(g: Graph) -> bool:
    return is_chordal(g.power(2))


def _bfs_forest(g: Graph) -> tuple[list[int], list[int], Optional[tuple[int, int]]]:
    """BFS from each unseen vertex in id order: depth, parent, and the first
    edge (v, u) with u > v inside one layer, where the search stops."""
    depth = [-1] * g.n
    parent = [-1] * g.n
    for start in range(g.n):
        if depth[start] != -1:
            continue
        depth[start] = 0
        queue = [start]
        for v in queue:  # the queue grows while it is read: BFS layer by layer
            for u in bits(g.adj[v]):
                if depth[u] == -1:
                    depth[u] = depth[v] + 1
                    parent[u] = v
                    queue.append(u)
                elif depth[u] == depth[v] and u > v:
                    return depth, parent, (v, u)
    return depth, parent, None


def _forest(g: Graph) -> tuple[list[int], list[int], Optional[tuple[int, int]]]:
    """:func:`_bfs_forest` of g, built once per graph."""
    if g._forest is None:
        g._forest = _bfs_forest(g)
    return g._forest


def is_bipartite(g: Graph) -> Optional[tuple[int, ...]]:
    """A BFS 2-coloring (tuple of 0/1 per vertex), or None on an odd cycle."""
    depth, _, odd = _forest(g)
    return None if odd else tuple(d & 1 for d in depth)


def find_odd_cycle(g: Graph) -> Optional[tuple[int, ...]]:
    """An odd closed walk witnessing non-bipartiteness (not necessarily induced)."""
    _, parent, odd = _forest(g)
    if odd is None:
        return None
    left, right = [odd[0]], [odd[1]]
    while left[-1] != right[-1]:
        left.append(parent[left[-1]])
        right.append(parent[right[-1]])
    return tuple(left[:-1] + right[::-1])


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
            reach = g._bfs_reach(rest & -rest, allowed)
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
