"""Independent reference implementations used to cross-check the library.

Everything here deliberately avoids the code paths under test: the extremal
scan enumerates raw vectors with numpy, ``extremal_dfs`` is the library's
former search with its undo list and per-value tightness scan, and counts
its nodes so the library's budget boundary can be checked against it;
blocks come from deleting one vertex at a time and comparing components;
feasibility and extremality are
direct pairwise checks, hull adjacency compares every pair of vectors
coordinate by coordinate, ``chebyshev_pairs_windowed`` is the library's
former packed-lane scan over a sorted first-coordinate window, the isometry
check reads both all-pairs distance matrices, the hull document goes
through ``json.dumps``, Helly checks go through exhaustive disk families, bounded disk-Helly intersects every pair
of disks, pseudo-modularity is a direct triple scan over the distance
matrix, DH pruning sequences come from a per-round rescan and from the
library's former neighbour re-keying worklist, DH recognition
checks every connected induced subgraph for isometry, and hyperbolicity is
the plain quadruple sweep, with the defect of one quadruple beside it. The
class recognizers, suspension witnesses, extended squares, disks and
peripheral vertices are the direct vertex scans the library used before its
bit-row rewrites, and the disk oracles build their disks with that scan;
``interval_scan`` reads one interval I(x, y) off the distance rows, for
checking peripheral witnesses by hand. All-pairs distance rows and the
components around a removed set come from a plain queue BFS over neighbour
sets, and the induced-cycle witness from the library's former parent-dict
search, ``shortest_path_bfs``. ``earlier_neighbours_are_cliques`` checks a
perfect elimination order pair by pair.
``canonical_hull`` puts a Hellification hull into the enumeration hull's
order, so the two compare exactly. ``TwinClassPoset`` is the library's
former dominator structure, with containment edges between true-twin
classes, and ``poset_snapshot`` reads it as value objects;
``hellify_sequence`` walks a pruning sequence on it and returns the
Hellification host's sequence. ``is_comparability`` checks Golumbic's
implication classes, for pinning which graphs are permutation graphs.
The edge-list, JSON-pairs and DOT writers at the end are the library's
former ones, which print one ``Graph.edges()`` pair at a time.
"""

import json
from bisect import bisect_right
from collections import deque
from itertools import combinations, count
from typing import Optional, Sequence

import numpy as np

from tightspan import Graph, SplitMix64
from tightspan.dh import FALSE_TWIN, PENDANT, TRUE_TWIN, PruningSequence, PruningStep
from tightspan.graphs import _distance_row, bits, dot_label
from tightspan.helly import ExtendedSquare, maximal_cliques
from tightspan.hyperbolicity import HyperbolicityReport


def brute_force_extremal(g: Graph) -> list[tuple[int, ...]]:
    """Scan every vector with 0 <= f(x) <= ecc(x) for feasibility and tightness."""
    n, d = g.n, g.distances()
    ecc = [max(row) for row in d]
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


def extremal_dfs(g: Graph) -> tuple[list[tuple[int, ...]], int]:
    """The extremal vectors, sorted, and the number of search nodes visited.

    The library's former depth-first search, unbudgeted: it keeps a
    ``witnessed`` list, undoes it after every value, and tests tightness
    against every assigned coordinate at every value. The library must try
    the same values and prune the same branches, so a budget of exactly
    ``nodes`` passes and one less fails.
    """
    d = [list(row) for row in g.distances()]
    ecc = [max(row) for row in d]
    n = g.n

    out: list[tuple[int, ...]] = []
    f = [0] * n
    witnessed = [False] * n
    # lower[i] holds the feasibility lower bounds once vertices < i are assigned
    lower = [[0] * n for _ in range(n + 1)]
    nodes = 0

    def dfs(i: int) -> None:
        nonlocal nodes
        if i == n:
            out.append(tuple(f))
            return
        cur = lower[i]
        nxt = lower[i + 1]
        di = d[i]
        for value in range(cur[i], ecc[i] + 1):
            nodes += 1
            f[i] = value
            newly = []
            for j in range(i + 1):
                # tightness witnesses extremality at both endpoints
                if f[j] + value == d[j][i]:
                    if not witnessed[j]:
                        witnessed[j] = True
                        newly.append(j)
                    if not witnessed[i]:
                        witnessed[i] = True
                        newly.append(i)
            for y in range(i + 1, n):
                t = di[y] - value
                nxt[y] = cur[y] if cur[y] >= t else t
            # A coordinate j with no tight partner yet must still be able to
            # get one from the unassigned suffix, else this branch is dead.
            viable = True
            for j in range(i + 1):
                if witnessed[j]:
                    continue
                fj = f[j]
                dj = d[j]
                if not any(
                    dj[y] - fj >= nxt[y] and dj[y] >= fj for y in range(i + 1, n)
                ):
                    viable = False
                    break
            if viable:
                dfs(i + 1)
            for j in newly:
                witnessed[j] = False

    dfs(0)
    out.sort()
    return out, nodes


def blocks_by_separation(g: Graph) -> list[list[int]]:
    """Sorted vertex sets of g's blocks, in sorted order.

    Two edges share a block iff, for every vertex w, their endpoints other
    than w stay in one component of G - w. The components come from a plain
    stack search per deleted vertex, and each edge is tested against one edge
    of every class found so far.
    """
    nbrs = [[v for v in range(g.n) if g.adj[u] >> v & 1] for u in range(g.n)]
    comp = []  # comp[w][v]: a label of v's component in G - w
    for w in range(g.n):
        label = [-1] * g.n
        for s in range(g.n):
            if s == w or label[s] >= 0:
                continue
            label[s], stack = s, [s]
            while stack:
                for v in nbrs[stack.pop()]:
                    if v != w and label[v] < 0:
                        label[v] = s
                        stack.append(v)
        comp.append(label)
    classes: list[list[tuple[int, int]]] = []
    for e in g.edges():
        for cls in classes:
            ends = {*e, *cls[0]}
            if all(len({comp[w][v] for v in ends if v != w}) == 1 for w in range(g.n)):
                cls.append(e)
                break
        else:
            classes.append([e])
    return sorted(sorted({v for e in cls for v in e}) for cls in classes)


def is_feasible(vector: tuple[int, ...], dist_rows) -> bool:
    """Pairwise check of f(x) + f(y) >= d(x,y)."""
    n = len(vector)
    for x in range(n):
        if vector[x] < 0:
            return False
        for y in range(x + 1, n):
            if vector[x] + vector[y] < dist_rows[x][y]:
                return False
    return True


def is_extremal(vector: tuple[int, ...], dist_rows) -> bool:
    """Feasible and every coordinate tight against some vertex (possibly itself)."""
    if not is_feasible(vector, dist_rows):
        return False
    n = len(vector)
    for x in range(n):
        if not any(vector[x] + vector[y] == dist_rows[x][y] for y in range(n)):
            return False
    return True


def chebyshev_rows_pairwise(vectors) -> list[int]:
    """Adjacency rows joining every two vectors at Chebyshev distance 1.

    Plain O(N^2 * n) pair loop in the given order; the hull's bit-slice rows
    must be the same.
    """
    n = len(vectors)
    rows = [0] * n
    for i in range(n):
        vi = vectors[i]
        for j in range(i + 1, n):
            if max(abs(a - b) for a, b in zip(vi, vectors[j])) == 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    return rows


def chebyshev_pairs_windowed(vectors: list[tuple[int, ...]]) -> list[tuple[int, int]]:
    """Index pairs i < j of the sorted, distinct ``vectors`` at Chebyshev distance 1.

    Vector f is packed into P = sum f[k] << (width * k). A lane holds up to
    ``top + 1`` below its guard bit, so ``(P_i + ONES) | GUARD`` minus P_j
    neither carries nor borrows across lanes and leaves ``f_i[k] - f_j[k] + 1``
    under each guard. Every guard survives and no lane exceeds 2 exactly when
    every coordinate differs by at most 1, which for distinct vectors is
    Chebyshev distance 1. A neighbour of f has first coordinate f[0] - 1,
    f[0] or f[0] + 1, so the later ones form the window up to f[0] + 1.
    """
    top = max(max(v) for v in vectors)
    width = (top + 1).bit_length() + 1
    half = 1 << (width - 1)
    ones = sum(1 << (width * k) for k in range(len(vectors[0])))
    guard = ones * half
    spill = ones * (half - 3)  # lifts a lane of 3 or more into its guard bit
    packed = [sum(x << (width * k) for k, x in enumerate(v)) for v in vectors]
    firsts = [v[0] for v in vectors]
    pairs = []
    for i, p in enumerate(packed):
        lifted = (p + ones) | guard
        for j in range(i + 1, bisect_right(firsts, firsts[i] + 1, i + 1)):
            d = lifted - packed[j]
            if d & guard == guard and not ((d ^ guard) + spill) & guard:
                pairs.append((i, j))
    return pairs


def hull_json_dumps(h) -> str:
    """The hull document through ``json.dumps``; the direct writer must match it."""
    doc = {
        "n_real": h.n_real,
        "n_helly": h.n_helly,
        "vertices": [
            {"id": i, "real": h.is_real(i), "vector": list(h.vectors[i])}
            for i in range(h.hull.n)
        ],
        "edges": [[u, v] for u, v in h.hull.edges()],
    }
    return json.dumps(doc, indent=2) + "\n"


def is_isometric_subgraph_apsp(sub: Graph, host: Graph, embed) -> bool:
    """Compare every embedded pair's distance with both all-pairs matrices."""
    ds = sub.distances()
    dh = host.distances()
    return all(
        ds[u][v] == dh[embed[u]][embed[v]] for u in range(sub.n) for v in range(u + 1, sub.n)
    )


def triple_disk_pseudo_modular(g: Graph) -> bool:
    """Do any three pairwise intersecting disks share a vertex?

    Radii range over 0..diameter; larger radii are full disks and redundant.
    """
    diameter = max(map(max, g.distances()))
    disks = [
        frozenset(bits(disk_mask_scan(g, v, r)))
        for v in range(g.n)
        for r in range(diameter + 1)
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
    d = g.distances()
    n = g.n
    level = [[0] * (max(d[u]) + 1) for u in range(n)]
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


def pruning_sequence_rescan(g: Graph) -> Optional[PruningSequence]:
    """A pruning sequence of g, or None when g is not distance-hereditary.

    Deterministic: each round removes the lowest-id vertex that is a pendant,
    a true twin, or a false twin (preferred in that order), anchored to the
    lowest-id valid partner. Regroups every live vertex by neighbourhood each
    round, O(n*(n+m)); the library's worklist builder must return the same
    sequence on connected graphs.
    """
    n = g.n
    adj = list(g.adj)
    alive = list(range(n))
    removed: list[PruningStep] = []
    while len(alive) > 1:
        true_groups: dict[int, list[int]] = {}
        false_groups: dict[int, list[int]] = {}
        for v in alive:
            true_groups.setdefault(adj[v] | 1 << v, []).append(v)
            false_groups.setdefault(adj[v], []).append(v)
        chosen = None
        for v in alive:
            if adj[v].bit_count() == 1:
                chosen = PruningStep(v, PENDANT, adj[v].bit_length() - 1)
                break
            group = true_groups[adj[v] | 1 << v]
            if len(group) > 1:
                anchor = group[0] if group[0] != v else group[1]
                chosen = PruningStep(v, TRUE_TWIN, anchor)
                break
            group = false_groups[adj[v]]
            if len(group) > 1:
                anchor = group[0] if group[0] != v else group[1]
                chosen = PruningStep(v, FALSE_TWIN, anchor)
                break
        if chosen is None:
            return None
        removed.append(chosen)
        v = chosen.vertex
        for u in bits(adj[v]):
            adj[u] &= ~(1 << v)
        adj[v] = 0
        alive.remove(v)
    order = [alive[0]] + [step.vertex for step in reversed(removed)]
    return PruningSequence(tuple(order), tuple(reversed(removed)))


def pruning_sequence_rekey(g: Graph) -> Optional[PruningSequence]:
    """The library's former worklist builder, which re-keys every neighbour.

    Live vertices sit in one bucket map keyed by the exact closed rows N[v]
    and open rows N(v); removing a vertex moves each of its neighbours to the
    buckets of its shrunk rows and schedules their new bucket-mates, O(n + m)
    bucket updates in all. Same rule as ``pruning_sequence_rescan``, fast
    enough for the differential tests at n in the hundreds and thousands.
    """
    if not g.is_connected():
        return None
    adj = list(g.adj)
    buckets: dict[int, int] = {}
    for v, row in enumerate(adj):
        bit = 1 << v
        buckets[row | bit] = buckets.get(row | bit, 0) | bit
        buckets[row] = buckets.get(row, 0) | bit

    def leave(key: int, bit: int) -> None:
        members = buckets[key] ^ bit
        if members:
            buckets[key] = members
        else:
            del buckets[key]

    todo = live = (1 << g.n) - 1
    removed: list[PruningStep] = []
    while live & (live - 1):
        if not todo:
            return None
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        row = adj[v]
        if row.bit_count() == 1:
            step = PruningStep(v, PENDANT, row.bit_length() - 1)
        else:
            kind, partners = TRUE_TWIN, buckets[row | bit] ^ bit
            if not partners:
                kind, partners = FALSE_TWIN, buckets[row] ^ bit
                if not partners:
                    continue
            step = PruningStep(v, kind, (partners & -partners).bit_length() - 1)
        removed.append(step)
        live ^= bit
        leave(row | bit, bit)
        leave(row, bit)
        for u in bits(row):
            old = adj[u]
            ubit = 1 << u
            leave(old | ubit, ubit)
            leave(old, ubit)
            adj[u] = new = old ^ bit
            for key in (new | ubit, new):
                members = buckets.get(key, 0)
                todo |= members
                buckets[key] = members | ubit
            todo |= ubit
    order = [live.bit_length() - 1] + [step.vertex for step in reversed(removed)]
    return PruningSequence(tuple(order), tuple(reversed(removed)))


def disk_helly_by_definition(g: Graph, r: Optional[int] = None) -> bool:
    """Helly check straight from the definition, over every family of
    distinct disks of radius <= r (default: the diameter, i.e. all disks).

    Only usable on tiny graphs: iterates every subset of the distinct disks.
    """
    if r is None:
        r = max(map(max, g.distances()))
    disks = sorted(
        {frozenset(bits(disk_mask_scan(g, v, i))) for v in range(g.n) for i in range(r + 1)},
        key=sorted,
    )
    for size in range(2, len(disks) + 1):
        for family in combinations(disks, size):
            pairwise = all(a & b for a, b in combinations(family, 2))
            if pairwise and not frozenset.intersection(*family):
                return False
    return True


def disk_helly_pairwise(g: Graph, r: int) -> bool:
    """Disk-Helly up to radius r with the intersection rows built pair by pair.

    Intersects the masks of every two of the n*(r+1) disks D(v, i), then
    intersects the members of each maximal clique; the library builds the
    same rows from distance bounds and must give the same answer.
    """
    disks = [disk_mask_scan(g, v, i) for v in range(g.n) for i in range(r + 1)]
    k = len(disks)
    rows = [0] * k
    for a in range(k):
        for b in range(a + 1, k):
            if disks[a] & disks[b]:
                rows[a] |= 1 << b
                rows[b] |= 1 << a
    for clique in maximal_cliques(tuple(rows), k):
        common = (1 << g.n) - 1
        for i in bits(clique):
            common &= disks[i]
        if common == 0:
            return False
    return True


def four_point_hyp2(d: Sequence[Sequence[int]], u: int, v: int, w: int, x: int) -> int:
    """Twice the four-point defect on distance rows ``d``: largest distance-sum
    minus the second largest."""
    sums = sorted((d[u][v] + d[w][x], d[u][x] + d[v][w], d[u][w] + d[v][x]))
    return sums[2] - sums[1]


def hyperbolicity_scan(g: Graph) -> HyperbolicityReport:
    """Plain O(n^4) four-point sweep over u < v < w < x in lexicographic order.

    Keeps the first quadruple whose doubled defect strictly beats the best so
    far; the library's pruned lane-parallel scan must return the same report.
    """
    d = g.distances()
    if g.n < 4:
        return HyperbolicityReport(0, (0,) * 4)
    best = 0
    witness = (0, 1, 2, 3)
    for u, v, w, x in combinations(range(g.n), 4):
        s1 = d[u][v] + d[w][x]
        s2 = d[u][x] + d[v][w]
        s3 = d[u][w] + d[v][x]
        if s1 < s2:
            s1, s2 = s2, s1
        if s1 < s3:
            s1, s3 = s3, s1
        defect = s1 - (s2 if s2 >= s3 else s3)
        if defect > best:
            best = defect
            witness = (u, v, w, x)
    return HyperbolicityReport(best, witness)


def is_dh_by_definition(g: Graph) -> bool:
    """Distance-hereditary by definition: connected, and every connected
    induced subgraph keeps the distances of g. Direct subset sweep."""
    if not g.is_connected():
        return False
    d = g.distances()
    for size in range(3, g.n + 1):
        for verts in combinations(range(g.n), size):
            sub = g.induced(verts)
            if not sub.is_connected():
                continue
            ds = sub.distances()
            if any(ds[i][j] != d[u][v] for i, u in enumerate(verts) for j, v in enumerate(verts)):
                return False
    return True


def canonical_hull(hull: Graph, n_real: int) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """A hull relabelled into canonical order, with its vectors.

    The real vertices 0..n_real-1 keep their ids; the other vertices follow,
    sorted by their vector of hull distances to the real vertices. Both are
    read off ``hull.distances()``, so a hull whose real vertices come first
    can be compared with ``==`` against the enumeration hull.
    """
    d = hull.distances()
    vector = [tuple(d[h][:n_real]) for h in range(hull.n)]
    order = list(range(n_real)) + sorted(range(n_real, hull.n), key=vector.__getitem__)
    return hull.induced(order), tuple(vector[h] for h in order)


class TwinClassPoset:
    """True-twin classes of a growing graph with containment edges.

    Invariants maintained across :meth:`apply`: two vertices share a class
    iff they are true twins, and there is an edge from class A to class B iff
    N[a] is strictly contained in N[b] for a in A, b in B. The second vertex
    ever added is handled as a true twin regardless of its step kind, since a
    pendant update assumes the anchor keeps a private neighbor.
    """

    def __init__(self, first_vertex: int):
        self.members: dict[int, set[int]] = {0: {first_vertex}}
        self.set_of: dict[int, int] = {first_vertex: 0}
        self.succ: dict[int, set[int]] = {0: set()}
        self.pred: dict[int, set[int]] = {0: set()}
        self._next_id = 1

    def _new_set(self, vertex: int) -> int:
        sid = self._next_id
        self._next_id += 1
        self.members[sid] = {vertex}
        self.set_of[vertex] = sid
        self.succ[sid] = set()
        self.pred[sid] = set()
        return sid

    def _add_edge(self, a: int, b: int) -> None:
        self.succ[a].add(b)
        self.pred[b].add(a)

    def apply(self, step: PruningStep) -> None:
        kind = step.kind
        if len(self.set_of) == 1 and kind == PENDANT:
            kind = TRUE_TWIN
        w, v = step.vertex, step.anchor
        s = self.set_of[v]
        if kind == TRUE_TWIN:
            self.members[s].add(w)
            self.set_of[w] = s
        elif kind == PENDANT:
            if len(self.members[s]) == 1:
                # S would empty: it becomes S_v in place, dropping outgoing edges.
                for y in self.succ[s]:
                    self.pred[y].discard(s)
                self.succ[s] = set()
                s_v = s
            else:
                self.members[s].discard(v)
                s_v = self._new_set(v)
                for x in self.pred[s]:
                    self._add_edge(x, s_v)
                self._add_edge(s, s_v)
            s_w = self._new_set(w)
            self._add_edge(s_w, s_v)
        else:  # FALSE_TWIN
            old_succ = list(self.succ[s])
            if len(self.members[s]) == 1:
                # S becomes S_v in place, dropping incoming edges.
                for x in self.pred[s]:
                    self.succ[x].discard(s)
                self.pred[s] = set()
                s_w = self._new_set(w)
                for y in old_succ:
                    self._add_edge(s_w, y)
            else:
                self.members[s].discard(v)
                s_v = self._new_set(v)
                self._add_edge(s_v, s)
                for y in old_succ:
                    self._add_edge(s_v, y)
                s_w = self._new_set(w)
                self._add_edge(s_w, s)
                for y in old_succ:
                    self._add_edge(s_w, y)

    def has_dominator(self, v: int) -> bool:
        """Is there a y != v with N[v] contained in N[y] in the current graph?"""
        s = self.set_of[v]
        return len(self.members[s]) > 1 or bool(self.succ[s])


def poset_snapshot(poset) -> tuple[list[frozenset[int]], set[tuple[frozenset, frozenset]]]:
    """A twin-class poset's classes and containment edges as value objects."""
    classes = [frozenset(m) for m in poset.members.values() if m]
    edges = set()
    for a, targets in poset.succ.items():
        for b in targets:
            edges.add((frozenset(poset.members[a]), frozenset(poset.members[b])))
    return classes, edges


def hellify_sequence(seq: PruningSequence) -> PruningSequence:
    """The Hellification host's pruning sequence, walked on ``TwinClassPoset``.

    Every step is kept, and each false twin whose anchor has no dominator is
    preceded by a fresh true twin of the anchor, numbered from n on.
    """
    n = len(seq.order)
    poset = TwinClassPoset(seq.order[0])
    steps, helly_ids = [], count(n)
    for step in seq.steps:
        if step.kind == FALSE_TWIN and not poset.has_dominator(step.anchor):
            helly = PruningStep(next(helly_ids), TRUE_TWIN, step.anchor)
            poset.apply(helly)
            steps.append(helly)
        poset.apply(step)
        steps.append(step)
    order = (seq.order[0],) + tuple(step.vertex for step in steps)
    return PruningSequence(order, tuple(steps))


def is_comparability(n: int, edges) -> bool:
    """Is the graph on 0..n-1 transitively orientable?

    Golumbic's implication classes (Algorithmic Graph Theory and Perfect
    Graphs, 1980): arcs ab and ab' are forced alike when b and b' are
    distinct and non-adjacent, and so are ba and b'a. The graph is a
    comparability graph iff no class holds both an arc and its reverse.
    """
    nbrs = [set() for _ in range(n)]
    for u, v in edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    parent = {}

    def find(arc):
        parent.setdefault(arc, arc)
        while parent[arc] != arc:
            parent[arc] = parent[parent[arc]]
            arc = parent[arc]
        return arc

    for a in range(n):
        for b, c in combinations(sorted(nbrs[a]), 2):
            if c not in nbrs[b]:
                parent[find((a, b))] = find((a, c))
                parent[find((b, a))] = find((c, a))
    return all(find((u, v)) != find((v, u)) for u in range(n) for v in nbrs[u])


def brute_force_chordal(g: Graph) -> bool:
    """No induced cycle of length >= 4, checked by direct cycle search."""
    n = g.n
    for size in range(4, n + 1):
        for verts in combinations(range(n), size):
            sub = g.induced(verts)
            if all(sub.degree(v) == 2 for v in range(size)) and sub.is_connected():
                return False
    return True


def earlier_neighbours_are_cliques(g: Graph, order: Sequence[int]) -> bool:
    """Each vertex's neighbours earlier in ``order`` are pairwise adjacent,
    checked pair by pair on neighbour sets: the perfect-elimination test that
    ``detectors`` ran on every vertex before it tested only the latest one."""
    nbrs = [set(bits(row)) for row in g.adj]
    seen: set = set()
    for v in order:
        if any(b not in nbrs[a] for a, b in combinations(sorted(nbrs[v] & seen), 2)):
            return False
        seen.add(v)
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


def tree_plus_chords(n: int, seed: int) -> Graph:
    """Random spanning tree plus n // 4 chords: long cycles, many levels."""
    rng = SplitMix64(seed)
    edges = {(rng.below(v), v) for v in range(1, n)}
    for _ in range(n // 4):
        u, v = sorted((rng.below(n), rng.below(n)))
        if u != v:
            edges.add((u, v))
    return Graph.from_edge_list(n, sorted(edges))


# -- the class recognizers and metric queries before their bit-row rewrites --


def mcs_order_sorted(g: Graph) -> list[int]:
    """Maximum cardinality search order, ties broken by lowest id.

    Sorts the remaining vertices on every step; ``detectors._mcs_order`` must
    give the same order.
    """
    n = g.n
    weight = [0] * n
    order = []
    remaining = set(range(n))
    while remaining:
        v = max(sorted(remaining), key=lambda u: weight[u])
        order.append(v)
        remaining.remove(v)
        for u in bits(g.adj[v]):
            if u in remaining:
                weight[u] += 1
    return order


def shortest_path_bfs(g: Graph, src: int, dst: int, allowed: int) -> Optional[list[int]]:
    """A shortest src-dst path inside ``allowed``, each vertex reached from the
    first frontier vertex that sees it, or None when dst is out of reach."""
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


def find_long_induced_cycle_bfs(g: Graph) -> Optional[tuple[int, ...]]:
    """Some induced cycle of length >= 4, or None: for the first common
    neighbour v of non-adjacent u < p, in id order, that closes one, v and a
    :func:`shortest_path_bfs` from u to p avoiding the rest of N[v]."""
    full = (1 << g.n) - 1
    for v in range(g.n):
        nbrs = list(bits(g.adj[v]))
        for i, u in enumerate(nbrs):
            for p in nbrs[i + 1 :]:
                if g.has_edge(u, p):
                    continue
                allowed = full & ~((g.adj[v] | 1 << v) & ~((1 << u) | (1 << p)))
                path = shortest_path_bfs(g, u, p, allowed)
                if path is not None:
                    return (v, *path)
    return None


def is_bipartite_bfs(g: Graph) -> Optional[tuple[int, ...]]:
    """A BFS 2-coloring (tuple of 0/1 per vertex), or None on an odd cycle."""
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in bits(g.adj[v]):
                    if color[u] == -1:
                        color[u] = 1 - color[v]
                        nxt.append(u)
                    elif color[u] == color[v]:
                        return None
            frontier = nxt
    return tuple(color)


def find_odd_cycle_bfs(g: Graph) -> Optional[tuple[int, ...]]:
    """An odd closed walk witnessing non-bipartiteness (not necessarily induced)."""
    parent = [-1] * g.n
    depth = [-1] * g.n
    for start in range(g.n):
        if depth[start] != -1:
            continue
        depth[start] = 0
        frontier = [start]
        while frontier:
            nxt = []
            for v in frontier:
                for u in bits(g.adj[v]):
                    if depth[u] == -1:
                        depth[u] = depth[v] + 1
                        parent[u] = v
                        nxt.append(u)
                    elif depth[u] == depth[v] and u > v:
                        left, right = [v], [u]
                        while left[-1] != right[-1]:
                            left.append(parent[left[-1]])
                            right.append(parent[right[-1]])
                        return tuple(left[:-1] + list(reversed(right)))
            frontier = nxt
    return None


def is_split_by_prefixes(g: Graph) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """A (clique, independent set) partition, or None.

    Works down the degree sequence: in any split graph some prefix of the
    vertices sorted by descending degree is a valid clique side, so each
    prefix is tried and verified explicitly.
    """
    order = sorted(range(g.n), key=lambda v: (-g.degree(v), v))
    for size in range(g.n, -1, -1):
        clique = order[:size]
        rest = order[size:]
        if not all(g.has_edge(u, v) for i, u in enumerate(clique) for v in clique[i + 1 :]):
            continue
        if any(g.has_edge(u, v) for i, u in enumerate(rest) for v in rest[i + 1 :]):
            continue
        return tuple(sorted(clique)), tuple(sorted(rest))
    return None


def component_labels(g: Graph, removed_mask: int) -> list[int]:
    """Connected component id per vertex of g minus ``removed_mask`` (-1 inside),
    each component found by a queue BFS over neighbour sets."""
    adj = [set(bits(row & ~removed_mask)) for row in g.adj]
    labels = [-1] * g.n
    comp = 0
    for v in range(g.n):
        if labels[v] != -1 or removed_mask >> v & 1:
            continue
        labels[v] = comp
        queue = deque([v])
        while queue:
            for u in adj[queue.popleft()]:
                if labels[u] == -1:
                    labels[u] = comp
                    queue.append(u)
        comp += 1
    return labels


def asteroidal_triple_by_labels(g: Graph) -> Optional[tuple[int, int, int]]:
    """Lexicographically least asteroidal triple, or None."""
    n = g.n
    comp = [component_labels(g, g.adj[v] | 1 << v) for v in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            if g.has_edge(a, b):
                continue
            for c in range(b + 1, n):
                if g.has_edge(a, c) or g.has_edge(b, c):
                    continue
                if (
                    comp[c][a] == comp[c][b] != -1
                    and comp[b][a] == comp[b][c] != -1
                    and comp[a][b] == comp[a][c] != -1
                ):
                    return (a, b, c)
    return None


def cocomparability_violation_scan(
    g: Graph, order: Sequence[int]
) -> Optional[tuple[int, int, int]]:
    """First (x, y, z) with x < y < z in ``order``, xz an edge, but neither xy nor yz."""
    if sorted(order) != list(range(g.n)):
        raise ValueError("order is not a permutation of the vertices")
    n = g.n
    for i in range(n):
        x = order[i]
        for k in range(i + 2, n):
            z = order[k]
            if not g.has_edge(x, z):
                continue
            for j in range(i + 1, k):
                y = order[j]
                if not g.has_edge(x, y) and not g.has_edge(y, z):
                    return (x, y, z)
    return None


def suspension_witness_scan(g: Graph, mask: int) -> Optional[int]:
    """Least vertex adjacent to every member of ``mask`` except itself."""
    for v in range(g.n):
        if mask & ~(g.adj[v] | 1 << v) == 0:
            return v
    return None


def extended_squares_scan(g: Graph) -> list[ExtendedSquare]:
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
                            ExtendedSquare(quad, members, suspension_witness_scan(g, mmask))
                        )
    return out


def peripheral_vertices_scan(g: Graph) -> dict[int, int]:
    """Vertices x admitting a witness y with no z != x giving I(y,x) < I(y,z).

    Returns {x: least witness y}. Subset comparison is proper: equality of
    intervals does not disqualify a witness.
    """
    d = g.distances()
    n = g.n
    imask = [[0] * n for _ in range(n)]
    for y in range(n):
        for x in range(n):
            dxy = d[y][x]
            mask = 0
            for v in range(n):
                if d[y][v] + d[v][x] == dxy:
                    mask |= 1 << v
            imask[y][x] = mask
    out: dict[int, int] = {}
    for x in range(n):
        for y in range(n):
            iyx = imask[y][x]
            row = imask[y]
            dominated = False
            for z in range(n):
                if z == x:
                    continue
                iyz = row[z]
                if iyx != iyz and iyx & ~iyz == 0:
                    dominated = True
                    break
            if not dominated:
                out[x] = y
                break
    return out


def distances_bfs(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distance rows by a plain queue BFS from each vertex over
    neighbour sets, with no cache read or written."""
    g._require_connected("distances")
    adj = [set(bits(row)) for row in g.adj]
    rows = []
    for s in range(g.n):
        dist = [-1] * g.n
        dist[s] = 0
        queue = deque([s])
        while queue:
            v = queue.popleft()
            for u in adj[v]:
                if dist[u] < 0:
                    dist[u] = dist[v] + 1
                    queue.append(u)
        rows.append(tuple(dist))
    return tuple(rows)


def distances_by_layers(g: Graph) -> tuple[tuple[int, ...], ...]:
    """All-pairs distance rows with row u read off one BFS from u, its layers
    from ``Graph._frontiers``: the per-source search that ``Graph.distances``
    replaced with one sweep over every source at once."""
    g._require_connected("distances")
    full = (1 << g.n) - 1
    return tuple(_distance_row(g.n, g._frontiers(1 << u, full)) for u in range(g.n))


def interval_scan(g: Graph, x: int, y: int) -> frozenset[int]:
    """Vertices on some shortest (x, y)-path."""
    d = g.distances()
    dxy = d[x][y]
    return frozenset(v for v in range(g.n) if d[x][v] + d[v][y] == dxy)


def disk_mask_scan(g: Graph, v: int, r: int) -> int:
    """Disk D(v, r) as a mask, one distance comparison per vertex."""
    d = g.distances()[v]
    mask = 0
    for u in range(g.n):
        if d[u] <= r:
            mask |= 1 << u
    return mask


def format_edge_list_by_edges(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def json_pairs_by_edges(g: Graph) -> str:
    """``g.edges()`` as ``json.dumps(..., indent=2)`` lays a list out at depth 1."""
    pairs = g.edges()
    if not pairs:
        return "[]"
    items = ",\n".join(f"    [\n      {a},\n      {b}\n    ]" for a, b in pairs)
    return f"[\n{items}\n  ]"


def to_dot_by_edges(g: Graph) -> str:
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v} [label={dot_label(g.label(v))}];")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def hull_to_dot_by_edges(h) -> str:
    lines = ["graph H {"]
    for v in range(h.hull.n):
        shape = "circle" if h.is_real(v) else "square"
        lines.append(f"  {v} [label={dot_label(h.hull.label(v))}, shape={shape}];")
    for u, v in h.hull.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
