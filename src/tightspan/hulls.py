"""Exact injective hulls (tight spans) of small connected graphs.

A hull vertex is an integer vector f over V(G) that is feasible,
``f(x) + f(y) >= d(x,y)`` for all pairs, and extremal: every coordinate is
tight against some other, so no coordinate can be lowered. Real vertices are
the distance vectors ``d_z``; everything else is a Helly vertex. Two hull
vertices are adjacent exactly when their Chebyshev distance is 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_, getitem
from typing import Sequence

from .errors import BudgetExceededError
from .graphs import Graph, _blocks, _dot, _json_edges, _source_rows

Vector = tuple[int, ...]

DEFAULT_MAX_NODES = 10_000_000


def enumerate_extremal_functions(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES
) -> list[Vector]:
    """All extremal integer vectors of g, sorted lexicographically.

    Searched block by block on g's distance rows, each block in
    ``_farthest_first`` order: a block is isometric, so the rows restricted to
    a block B are B's own distances, and each of its vectors f extends to V by
    f(x) = min over a in B of f(a) + d(a, x), taken at x's gate in B, which
    also maps it back to source order. That covers every vector: Helly graphs
    are closed under gated amalgams, as at a cut vertex (Bandelt and Chepoi,
    "Metric graph theory and geometry: a survey", 2008), and hyperconvex
    spaces glued at a point stay hyperconvex (Miesch, "Gluing hyperconvex
    metric spaces", 2015). Bridges add nothing to the n distance vectors, so
    a tree searches nothing. Raises BudgetExceededError once the search nodes
    over all blocks pass ``max_nodes``, or past the recursion limit, which a
    block's size counts against; results are never silently truncated.
    """
    d = g.distances()
    found, nodes = set(d), 0
    for block in (b for b in _blocks(g) if len(b) > 2):
        block = _farthest_first(d, block)
        gate = [min((d[a][x], i) for i, a in enumerate(block)) for x in range(g.n)]
        nodes = _search([[d[a][b] for b in block] for a in block], gate, found, max_nodes, nodes)
    return sorted(found)


def _farthest_first(d: Sequence[Sequence[int]], block: list[int]) -> list[int]:
    """The sorted ``block`` in the search's order on distance rows ``d``: first its
    vertex of largest eccentricity, then ever the remaining vertex with the largest
    sum of distances to those taken, the lowest id on ties."""
    rest = block[:]
    total = dict.fromkeys(block, 0)
    pick = max(rest, key=lambda a: max(d[a][b] for b in block))
    order = []
    while True:
        order.append(pick)
        rest.remove(pick)
        if not rest:
            return order
        row = d[pick]
        for b in rest:
            total[b] += row[b]
        pick = max(rest, key=total.__getitem__)


def _search(
    d: list[list[int]], gate: list[tuple[int, int]], found: set[Vector], max_nodes: int, nodes: int
) -> int:
    """The enumeration on distance rows ``d``, counting nodes on from ``nodes``;
    adds each vector f to ``found``, extended to x as f[i] + offset for x's
    (offset, i) in ``gate``, and returns the count.

    f is assigned depth-first, each value from its feasibility bound
    max(0, d(i, y) - f(y)) over assigned y up to i's eccentricity. The mask
    passed down marks the assigned coordinates witnessed by a tight partner.
    """
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
        lowest, top = cur[i], ecc[i]
        bit = 1 << i
        # only the lowest value is tight: with reach[i][i], or with i at 0; a pair witnesses both
        tight = rc[i] | bit
        # with s = d(i, y) - lower(y), a value makes i one of y's partners while it is
        # <= s and keeps y's old ones once it is >= s: partners grow as the value does,
        # by gained[value - lowest]. lowest <= top, as lower(y) <= ecc(y)
        gained = [0] * (top - lowest + 1)
        last = lowest - 1
        for y in range(i + 1, n):
            s = di[y] - cur[y]
            if s > last:
                last = s
            if s <= top:
                gained[s - lowest if s > lowest else 0] |= rc[y]
        partners = 0
        # a value past last and lowest leaves i unwitnessed and in no reach: it is dead,
        # so those are only counted, after the live ones as a value-by-value pass would
        end = max(lowest, min(last, top))
        for value in range(lowest, end + 1):
            nodes += 1
            if nodes > max_nodes:
                raise _exceeded(max_nodes)
            partners |= gained[value - lowest]
            w = witnessed | tight if value == lowest else witnessed
            # dead once an unwitnessed coordinate is in no unassigned vertex's reach;
            # i itself is covered up to end
            if ~w & (bit - 1) & ~partners:
                continue
            f[i] = value
            for y in range(i + 1, n):
                t = di[y] - value
                c = cur[y]
                if t > c:
                    nxt[y] = t
                    rn[y] = bit
                else:
                    nxt[y] = c
                    rn[y] = rc[y] | bit if t == c else rc[y]
            dfs(i + 1, w)
        nodes += top - end
        if nodes > max_nodes:
            raise _exceeded(max_nodes)

    try:
        dfs(0, 0)
    except RecursionError:
        # the depth is the block's size; past the interpreter's limit it counts as a budget
        raise BudgetExceededError(
            f"hull enumeration ran out of recursion depth after {nodes} nodes"
        ) from None
    finally:
        dfs = None  # dfs reaches itself through its closure cell; break the cycle
    return nodes


def _exceeded(max_nodes: int) -> BudgetExceededError:
    return BudgetExceededError(f"hull enumeration exceeded {max_nodes} search nodes")


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
        return tuple(zip(*_source_rows(self.hull, range(self.n_real))))

    @property
    def n_real(self) -> int:
        return self.source.n

    @property
    def n_helly(self) -> int:
        return self.hull.n - self.n_real

    def is_real(self, hull_vertex: int) -> bool:
        return hull_vertex < self.n_real


def _chebyshev_rows(vectors: Sequence[Vector]) -> list[int]:
    """Adjacency rows joining the distinct ``vectors``, in any order, at
    Chebyshev distance 1.

    A slice ``at[c]`` of coordinate k masks the vectors f with f[k] = c, so
    ``near[c] = at[c - 1] | at[c] | at[c + 1]`` masks those within 1 there.
    Row a is the AND over k of ``near[f_a[k]]`` without a itself: the vectors
    within 1 of f_a in every coordinate, which for distinct vectors is
    Chebyshev distance 1.
    """
    near = []
    for column in zip(*vectors):
        at = [0] * (max(column) + 3)  # at[c + 1] is the slice of value c
        for a, c in enumerate(column):
            at[c + 1] |= 1 << a
        near.append([at[c] | at[c + 1] | at[c + 2] for c in range(len(at) - 2)])
    return [reduce(and_, map(getitem, near, v)) ^ 1 << a for a, v in enumerate(vectors)]


def build_injective_hull(g: Graph, max_nodes: int = DEFAULT_MAX_NODES) -> InjectiveHull:
    """Construct H(g) on its extremal vectors, its blocks' glued at the cut
    vertices, and check its vectors, read off the hull; as real vertex z's
    vector is d_z, that check covers the embedding's isometry too."""
    reals = g.distances()
    vectors = enumerate_extremal_functions(g, max_nodes)
    real_set = set(reals)
    # canonical order: reals in source order, then the Helly vectors sorted
    canonical = reals + tuple(v for v in vectors if v not in real_set)
    labels = [g.label(z) for z in range(g.n)]
    labels += [f"h{k}" for k in range(1, len(canonical) - g.n + 1)]
    h = InjectiveHull(g, Graph._of(len(canonical), _chebyshev_rows(canonical), labels))
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
    rows = g.distances()
    layers = [list(g._frontiers(1 << y, (1 << g.n) - 1)) for y in range(g.n)]
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
    if not (0 <= x < g.n and 0 <= y < g.n):
        raise ValueError(f"vertices {x},{y} outside 0..{g.n - 1}")
    if forbidden >> x & 1 or forbidden >> y & 1:
        raise ValueError(f"vertices {x},{y} must lie outside D({z},{k})")
    allowed = ((1 << g.n) - 1) & ~forbidden
    return not sum(g._frontiers(1 << x, allowed)) >> y & 1


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
        f'  "edges": {_json_edges(h.hull)}\n}}\n'
    )


def hull_to_dot(h: InjectiveHull) -> str:
    """DOT rendering with real vertices as circles and Helly vertices as squares."""
    return _dot(h.hull, "H", [", shape=circle"] * h.n_real + [", shape=square"] * h.n_helly)
