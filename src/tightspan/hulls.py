"""Exact injective hulls (tight spans) of small connected graphs.

A hull vertex is an integer vector f over V(G) that is feasible,
``f(x) + f(y) >= d(x,y)`` for all pairs, and extremal: every coordinate is
tight against some other, so no coordinate can be lowered. Real vertices are
the distance vectors ``d_z``; everything else is a Helly vertex. Two hull
vertices are adjacent exactly when their Chebyshev distance is 1.

Enumeration assigns f depth-first in vertex order, each value between the
lower bound max(0, d(x,y) - f(y)) over assigned y and the eccentricity. Next
to each unassigned y's bound it keeps the mask of assigned x attaining it, y's
possible tight partners. The mask passed down marks the assigned coordinates
witnessed by a tight partner. Only a coordinate's lowest value can be tight,
so its tight set is its bound's mask plus itself; a branch dies when an
unwitnessed coordinate is in no unassigned vertex's mask, a test of one OR per
node. ``enumerate_extremal_functions`` searches each 2-connected block
alone, on the source's distance rows restricted to it, and extends a block
B's vector f to V by f(x) = min over a in B of f(a) + d(a, x): Helly graphs
are closed under gated amalgams, as at a cut vertex (Bandelt and Chepoi,
"Metric graph theory and geometry: a survey", 2008), and hyperconvex spaces
glued at a point stay hyperconvex (Miesch, "Gluing hyperconvex metric
spaces", 2015). Bridges need no search. Hulls can be exponential, so the
search stops once its nodes over all blocks pass ``max_nodes`` (default
``DEFAULT_MAX_NODES``) or at the recursion limit, raising
BudgetExceededError rather than truncating.

Adjacency packs each vector into one int, a lane per coordinate, and tests a
pair with one subtraction and two masks (``_chebyshev_pairs``); since the
vectors are sorted, the candidates for a vector form one contiguous window
of the list. :class:`InjectiveHull`, also returned by ``dh.hellify_dh``,
reads its vectors off one hull BFS per real vertex, never the hull's
all-pairs distances; matching the enumeration checks the embedding too.
``hull_to_json`` writes the document directly, with the bytes
``json.dumps(doc, indent=2)`` would give.

Source vertex z is hull vertex z: the hull lists the n real vertices first,
in source order, then the Helly vertices in lexicographic vector order.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

from .errors import BudgetExceededError
from .graphs import Graph, _blocks, _distance_row, _layer_masks, dot_label, json_pairs

Vector = tuple[int, ...]

DEFAULT_MAX_NODES = 10_000_000


def enumerate_extremal_functions(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES
) -> list[Vector]:
    """All extremal integer vectors of g, sorted lexicographically.

    Searched block by block on g's distance rows: a block is isometric, so the
    rows restricted to a block B are B's own distances, and each of its
    vectors f extends to V by f(x) = min over a in B of f(a) + d(a, x), taken
    at x's gate in B. Bridges add nothing to the n distance vectors, so a tree
    searches nothing. Raises BudgetExceededError once the search nodes over
    all blocks pass ``max_nodes``, or past the recursion limit, which a
    block's size counts against; results are never silently truncated.
    """
    d = g.distances().rows
    found, nodes = set(d), 0
    for block in (b for b in _blocks(g) if len(b) > 2):
        gate = [min((d[a][x], i) for i, a in enumerate(block)) for x in range(g.n)]
        nodes = _search([[d[a][b] for b in block] for a in block], gate, found, max_nodes, nodes)
    return sorted(found)


def _search(
    d: list[list[int]], gate: list[tuple[int, int]], found: set[Vector], max_nodes: int, nodes: int
) -> int:
    """The enumeration on distance rows ``d``, counting nodes on from ``nodes``;
    adds each vector f to ``found``, extended to x as f[i] + offset for x's
    (offset, i) in ``gate``, and returns the count."""
    ecc = [max(row) for row in d]
    n = len(d)

    f = [0] * n
    # lower[i] holds the feasibility lower bounds once vertices < i are assigned;
    # reach[i][y] masks the assigned x with d(x, y) - f(x) == lower[i][y]; none
    # exceeds the bound, so these are exactly y's possible tight partners
    lower = [[0] * n for _ in range(n + 1)]
    reach = [[0] * n for _ in range(n + 1)]

    def dfs(i: int, witnessed: int) -> None:
        nonlocal nodes
        if i == n:
            found.add(tuple([f[k] + off for off, k in gate]))
            return
        cur, rc, nxt, rn = lower[i], reach[i], lower[i + 1], reach[i + 1]
        di = d[i]
        lowest = cur[i]
        bit = 1 << i
        # only the lowest value is tight: with reach[i][i], or with i at 0; a pair witnesses both
        tight = rc[i] | bit
        for value in range(lowest, ecc[i] + 1):
            nodes += 1
            if nodes > max_nodes:
                raise BudgetExceededError(
                    f"hull enumeration exceeded {max_nodes} search nodes"
                )
            f[i] = value
            partners = 0
            for y in range(i + 1, n):
                t = di[y] - value
                c = cur[y]
                if t > c:
                    nxt[y] = t
                    rn[y] = bit
                else:
                    nxt[y] = c
                    rn[y] = rc[y] | bit if t == c else rc[y]
                partners |= rn[y]
            w = witnessed | tight if value == lowest else witnessed
            # dead once an unwitnessed coordinate is in no unassigned vertex's reach
            if not ~w & (2 * bit - 1) & ~partners:
                dfs(i + 1, w)

    try:
        dfs(0, 0)
    except RecursionError:
        # the depth is the block's size; past the interpreter's limit it counts as a budget
        raise BudgetExceededError(
            f"hull enumeration ran out of recursion depth after {nodes} nodes"
        ) from None
    return nodes


@dataclass(frozen=True)
class InjectiveHull:
    """H(source); hull vertex z < ``n_real`` is source vertex z.

    The Helly vertices follow, sorted by vector from build_injective_hull
    and in insertion order from ``dh.hellify_dh``, whose ``added`` pairs
    each one with the anchor whose false twin forced it.
    """

    source: Graph
    hull: Graph
    added: tuple[tuple[int, int], ...] = ()

    @cached_property
    def vectors(self) -> tuple[Vector, ...]:
        """Each hull vertex's hull distances to the real vertices, its extremal
        function; read off one BFS per real vertex, never the all-pairs matrix."""
        hull = self.hull
        full = (1 << hull.n) - 1
        rows = [_distance_row(hull.n, hull._frontiers(1 << z, full)) for z in range(self.n_real)]
        return tuple(zip(*rows))

    @property
    def n_real(self) -> int:
        return self.source.n

    @property
    def n_helly(self) -> int:
        return self.hull.n - self.n_real

    def is_real(self, hull_vertex: int) -> bool:
        return hull_vertex < self.n_real

    def helly_vertices(self) -> range:
        return range(self.n_real, self.hull.n)


def _chebyshev_pairs(vectors: list[Vector]) -> list[tuple[int, int]]:
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


def build_injective_hull(g: Graph, max_nodes: int = DEFAULT_MAX_NODES) -> InjectiveHull:
    """Construct H(g) on its extremal vectors, its blocks' glued at the cut
    vertices, and check its vectors, read off the hull."""
    reals = g.distances().rows
    vectors = enumerate_extremal_functions(g, max_nodes)
    real_set = set(reals)
    # canonical order: reals in source order, then the Helly vectors sorted
    canonical = reals + tuple(v for v in vectors if v not in real_set)
    at = {v: k for k, v in enumerate(canonical)}
    pos = [at[v] for v in vectors]
    rows = [0] * len(canonical)
    for i, j in _chebyshev_pairs(vectors):
        a, b = pos[i], pos[j]
        rows[a] |= 1 << b
        rows[b] |= 1 << a
    labels = [g.label(z) for z in range(g.n)]
    labels += [f"h{k}" for k in range(1, len(canonical) - g.n + 1)]
    h = InjectiveHull(g, Graph._of(len(canonical), rows, labels))
    if h.vectors != canonical:
        raise RuntimeError("internal consistency failure: hull distances differ from the vectors")
    return h


def helly_gap(h: InjectiveHull) -> int:
    """Largest hull distance from a Helly vertex to its nearest real vertex.

    One multi-source BFS from the real vertices. Reading it off ``vectors``
    would cost one BFS per real vertex on a DH hull, which builds them lazily.
    """
    full = (1 << h.hull.n) - 1
    seen = 0
    for gap, layer in enumerate(h.hull._frontiers((1 << h.n_real) - 1, full)):
        seen |= layer
    if seen != full:
        raise RuntimeError("internal consistency failure: hull is disconnected")
    return gap


def peripheral_vertices(g: Graph) -> dict[int, int]:
    """Vertices x admitting a witness y with no z != x giving I(y,x) < I(y,z).

    Returns {x: least witness y}. Subset comparison is proper: equality of
    intervals does not disqualify a witness.
    """
    rows = g.distances().rows
    layers = [_layer_masks(row) for row in rows]
    # I(y, x) is the sum over k of L_k(y) & L_{d-k}(x) with d = d(y, x), L the layers
    imask = [
        [sum(ly[k] & lx[d - k] for k in range(d + 1)) for lx, d in zip(layers, row)]
        for ly, row in zip(layers, rows)
    ]
    out: dict[int, int] = {}
    for x in range(g.n):
        for y, row in enumerate(imask):
            # I(y, x) < I(y, z) already implies z != x
            iyx = row[x]
            if not any(iyx != iyz and iyx & ~iyz == 0 for iyz in row):
                out[x] = y
                break
    return out


def disk_separates(g: Graph, z: int, k: int, x: int, y: int) -> bool:
    """True iff removing the disk D(z, k) disconnects x from y."""
    forbidden = g.disk_mask(z, k)
    if forbidden >> x & 1 or forbidden >> y & 1:
        raise ValueError(f"vertices {x},{y} must lie outside D({z},{k})")
    allowed = ((1 << g.n) - 1) & ~forbidden
    reach = g._bfs_reach(1 << x, allowed)
    return not reach >> y & 1


# -- serialization ---------------------------------------------------------


def hull_to_json(h: InjectiveHull) -> str:
    """The hull as JSON: ``n_real``, ``n_helly``, ``vertices`` and ``edges``.

    The bytes are those of ``json.dumps(doc, indent=2) + "\\n"``, written
    directly: each vertex is ``{"id", "real", "vector"}`` and each edge a
    ``[u, v]`` pair with u < v.
    """
    sep = ",\n        "
    vertices = ",\n".join(
        f'    {{\n      "id": {i},\n      "real": {"true" if h.is_real(i) else "false"},\n'
        f'      "vector": [\n        {sep.join(map(str, vec))}\n      ]\n    }}'
        for i, vec in enumerate(h.vectors)
    )
    return (
        f'{{\n  "n_real": {h.n_real},\n  "n_helly": {h.n_helly},\n'
        f'  "vertices": [\n{vertices}\n  ],\n'
        f'  "edges": {json_pairs(h.hull.edges())}\n}}\n'
    )


def hull_to_dot(h: InjectiveHull) -> str:
    """DOT rendering with real vertices as circles and Helly vertices as squares."""
    lines = ["graph H {"]
    for v in range(h.hull.n):
        shape = "circle" if h.is_real(v) else "square"
        lines.append(f"  {v} [label={dot_label(h.hull.label(v))}, shape={shape}];")
    for u, v in h.hull.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
