"""Exact injective hulls (tight spans) of small connected graphs.

A hull vertex is an integer vector f over V(G) that is feasible,
``f(x) + f(y) >= d(x,y)`` for all pairs, and extremal: every coordinate is
tight against some other, so no coordinate can be lowered. Real vertices are
the distance vectors ``d_z``; everything else is a Helly vertex. Two hull
vertices are adjacent exactly when their Chebyshev distance is 1.

Enumeration is a depth-first assignment of f in vertex order with interval
pruning: the running lower bound max(d(x,y) - f(y)) over assigned y, the
eccentricity upper bound, and a watch on coordinates whose tightness can no
longer be realised by any unassigned vertex. The search is exact and the
returned list is canonically sorted, but hulls can be exponential, so inputs
above ``MAX_VERTICES`` are refused and the search stops after ``max_nodes``
nodes (default ``DEFAULT_MAX_NODES``), raising BudgetExceededError either way.

Source vertex z is hull vertex z: the hull lists the n real vertices first,
in source order, then the Helly vertices in lexicographic vector order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import BudgetExceededError
from .graphs import Graph, is_isometric_subgraph

Vector = tuple[int, ...]

MAX_VERTICES = 14
DEFAULT_MAX_NODES = 10_000_000


def is_feasible(vector: Vector, dist_rows) -> bool:
    """Pairwise check of f(x) + f(y) >= d(x,y)."""
    n = len(vector)
    for x in range(n):
        if vector[x] < 0:
            return False
        for y in range(x + 1, n):
            if vector[x] + vector[y] < dist_rows[x][y]:
                return False
    return True


def is_extremal(vector: Vector, dist_rows) -> bool:
    """Feasible and every coordinate tight against some vertex (possibly itself)."""
    if not is_feasible(vector, dist_rows):
        return False
    n = len(vector)
    for x in range(n):
        if not any(vector[x] + vector[y] == dist_rows[x][y] for y in range(n)):
            return False
    return True


def enumerate_extremal_functions(
    g: Graph, max_nodes: int = DEFAULT_MAX_NODES
) -> list[Vector]:
    """All extremal integer vectors of g, sorted lexicographically.

    The output always contains the n distance vectors. Raises
    BudgetExceededError above ``MAX_VERTICES`` vertices or after
    ``max_nodes`` search nodes; results are never silently truncated.
    """
    if g.n > MAX_VERTICES:
        raise BudgetExceededError(
            f"hull enumeration capped at {MAX_VERTICES} vertices (n={g.n})"
        )
    dm = g.distances()
    d = [list(row) for row in dm.rows]
    ecc = dm.ecc
    n = g.n

    out: list[Vector] = []
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
            if nodes > max_nodes:
                raise BudgetExceededError(
                    f"hull enumeration exceeded {max_nodes} search nodes"
                )
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
    return out


@dataclass(frozen=True)
class InjectiveHull:
    """The hull graph plus per-vertex vectors, in the module's canonical order.

    Hull vertex z < ``n_real`` is source vertex z and carries d_z.
    """

    source: Graph
    hull: Graph
    vectors: tuple[Vector, ...]

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


def build_injective_hull(g: Graph, max_nodes: int = DEFAULT_MAX_NODES) -> InjectiveHull:
    """Construct H(g), verify the isometric embedding, and return it."""
    vectors = enumerate_extremal_functions(g, max_nodes)
    dm = g.distances()
    real = {tuple(dm.rows[z]): z for z in range(g.n)}
    real_vectors = [tuple(dm.rows[z]) for z in range(g.n)]
    helly_vectors = sorted(v for v in vectors if v not in real)
    ordered = real_vectors + helly_vectors

    n = len(ordered)
    rows = [0] * n
    for i in range(n):
        vi = ordered[i]
        for j in range(i + 1, n):
            vj = ordered[j]
            cheb = max(abs(a - b) for a, b in zip(vi, vj))
            if cheb == 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
    labels = [g.label(z) for z in range(g.n)]
    labels += [f"h{k}" for k in range(1, len(helly_vectors) + 1)]
    hull = Graph(n, rows, labels)

    if not is_isometric_subgraph(g, hull, range(g.n)):
        raise RuntimeError("internal consistency failure: hull embedding is not isometric")
    return InjectiveHull(g, hull, tuple(ordered))


def helly_gap(h: InjectiveHull) -> int:
    """Largest hull distance from a Helly vertex to its nearest real vertex.

    Computed by multi-source BFS on the hull graph rather than from the
    Chebyshev formula, so the vector metric stays an independent cross-check.
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
    dm = g.distances()
    d = dm.rows
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


def hull_to_dot(h: InjectiveHull) -> str:
    """DOT rendering with real vertices as circles and Helly vertices as squares."""
    lines = ["graph H {"]
    for v in range(h.hull.n):
        shape = "circle" if h.is_real(v) else "square"
        lines.append(f'  {v} [label="{h.hull.label(v)}", shape={shape}];')
    for u, v in h.hull.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
