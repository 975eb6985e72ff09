"""Bitset-backed immutable graphs and exact metric primitives.

Vertices are the integers ``0..n-1``. Each adjacency row is a Python int used
as a bitset, which keeps neighbourhood intersections and BFS frontiers
word-parallel without any third-party dependency. Graphs are immutable after
construction and safe to share across threads; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, Optional, Sequence

from .errors import DisconnectedGraphError

DEFAULT_MAX_VERTICES = 512


def check_size(n: int, max_vertices: int = DEFAULT_MAX_VERTICES) -> None:
    """Reject n above the size cap; generators call this before listing edges."""
    if n > max_vertices:
        raise ValueError(f"n={n} exceeds the size cap {max_vertices}")


def bits(mask: int):
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _distance_row(n: int, layers: Iterable[int]) -> tuple[int, ...]:
    """Distance row of one source from its BFS layers."""
    row = [0] * n
    for k, layer in enumerate(layers):
        for v in bits(layer):
            row[v] = k
    return tuple(row)


def _layer_masks(row: Sequence[int]) -> list[int]:
    """BFS layers of one source from its distance row: the inverse of _distance_row."""
    layers = [0] * (max(row) + 1)
    for v, k in enumerate(row):
        layers[k] |= 1 << v
    return layers


@dataclass(frozen=True)
class DistanceMatrix:
    """All-pairs BFS hop distances plus the derived eccentricity data."""

    rows: tuple[tuple[int, ...], ...]
    ecc: tuple[int, ...]
    radius: int
    diameter: int

    def dist(self, u: int, v: int) -> int:
        return self.rows[u][v]


class Graph:
    """Simple undirected graph with one integer bit-row per vertex.

    Use :meth:`from_edge_list` to build instances; the raw constructor expects
    already-symmetric loop-free rows. ``labels`` are display-only and ignored
    by equality.
    """

    __slots__ = ("n", "adj", "labels", "_dm", "_square", "_forest")

    def __init__(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None):
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        if len(adj) != n:
            raise ValueError("adjacency row count does not match n")
        full = (1 << n) - 1
        for v, row in enumerate(adj):
            if row & ~full:
                raise ValueError(f"row {v} has bits outside 0..{n - 1}")
            if row >> v & 1:
                raise ValueError(f"loop at vertex {v}")
        for v, row in enumerate(adj):
            for u in bits(row):
                if not adj[u] >> v & 1:
                    raise ValueError(f"asymmetric edge {v}-{u}")
        self._fill(n, adj, labels)

    def _fill(self, n: int, adj: Sequence[int], labels: Optional[Sequence[str]]) -> None:
        self.n = n
        self.adj = tuple(adj)
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None and len(self.labels) != n:
            raise ValueError("label count does not match n")
        self._dm: Optional[DistanceMatrix] = None
        self._square: Optional[Graph] = None
        self._forest: Optional[tuple] = None  # detectors' BFS forest

    @classmethod
    def _of(cls, n: int, adj: Sequence[int], labels: Optional[Sequence[str]] = None) -> "Graph":
        """A graph on rows the library built itself, symmetric and loop-free on
        n >= 1 vertices, so only the label count is checked."""
        g = cls.__new__(cls)
        g._fill(n, adj, labels)
        return g

    @classmethod
    def from_edge_list(
        cls,
        n: int,
        edges: Iterable[tuple[int, int]],
        labels: Optional[Sequence[str]] = None,
    ) -> "Graph":
        """Build a graph from ``(u, v)`` pairs, deduplicating repeats.

        Loops and out-of-range endpoints are rejected. Disconnected inputs are
        rejected because every metric operation assumes connectivity; the raw
        constructor builds them anyway (metric calls will still refuse to run).
        """
        rows = [0] * max(n, 0)
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop edge at {u}")
            rows[u] |= 1 << v
            rows[v] |= 1 << u
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        g = cls._of(n, rows, labels)
        if not g.is_connected():
            raise DisconnectedGraphError("graph is disconnected")
        return g

    # -- basic accessors ------------------------------------------------

    @property
    def m(self) -> int:
        """Number of edges."""
        return sum(row.bit_count() for row in self.adj) // 2

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return tuple(bits(self.adj[v]))

    def edges(self) -> list[tuple[int, int]]:
        """All edges as sorted ``(u, v)`` pairs with ``u < v``."""
        out = []
        for u in range(self.n):
            row = self.adj[u] >> (u + 1) << (u + 1)
            for v in bits(row):
                out.append((u, v))
        return out

    def label(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self.adj == other.adj

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"

    def induced(self, vertices: Sequence[int]) -> "Graph":
        """Induced subgraph on ``vertices``; vertex i of the result is vertices[i]."""
        verts = list(vertices)
        if not verts:
            raise ValueError("graph needs at least one vertex")
        if not 0 <= min(verts) <= max(verts) < self.n:
            raise ValueError(f"vertices outside 0..{self.n - 1}")
        if len(set(verts)) != len(verts):
            raise ValueError("duplicate vertices")
        index = {v: i for i, v in enumerate(verts)}
        rows = [0] * len(verts)
        for i, v in enumerate(verts):
            for u in bits(self.adj[v]):
                j = index.get(u)
                if j is not None:
                    rows[i] |= 1 << j
        labels = None
        if self.labels is not None:
            labels = [self.labels[v] for v in verts]
        return Graph._of(len(verts), rows, labels)

    # -- metric operations ----------------------------------------------

    def is_connected(self) -> bool:
        full = (1 << self.n) - 1
        return self._bfs_reach(1, full) == full

    def _frontiers(self, start_mask: int, allowed: int) -> Iterator[int]:
        """Yield the BFS layers from ``start_mask`` inside ``allowed`` as masks."""
        adj = self.adj
        seen = frontier = start_mask & allowed
        while frontier:
            yield frontier
            nxt = 0
            for v in bits(frontier):
                nxt |= adj[v]
            frontier = nxt & allowed & ~seen
            seen |= frontier

    def _bfs_reach(self, start_mask: int, allowed: int) -> int:
        """Set of vertices reachable from ``start_mask`` inside ``allowed``."""
        seen = 0
        for layer in self._frontiers(start_mask, allowed):
            seen |= layer
        return seen

    def _require_connected(self, what: str) -> None:
        if not self.is_connected():
            raise DisconnectedGraphError(f"{what} need a connected graph")

    def distances(self) -> DistanceMatrix:
        """All-pairs distances, cached on first use: row u is read off one BFS
        from u. It is the one all-pairs structure a graph caches."""
        if self._dm is None:
            self._require_connected("distances")
            full = (1 << self.n) - 1
            rows = tuple(_distance_row(self.n, self._frontiers(1 << u, full)) for u in range(self.n))
            ecc = tuple(max(row) for row in rows)
            self._dm = DistanceMatrix(rows, ecc, min(ecc), max(ecc))
        return self._dm

    def interval_mask(self, x: int, y: int) -> int:
        """Mask of the vertices z on some shortest (x, y)-path, those with
        d(x, z) + d(z, y) = d(x, y)."""
        rows = self.distances().rows
        d = rows[x][y]
        return sum(1 << z for z, (a, b) in enumerate(zip(rows[x], rows[y])) if a + b == d)

    def interval(self, x: int, y: int) -> frozenset[int]:
        """Vertices on some shortest (x, y)-path."""
        return frozenset(bits(self.interval_mask(x, y)))

    def interval_slice(self, x: int, y: int, k: int) -> frozenset[int]:
        """Vertices of the (x, y) interval at distance exactly k from x."""
        rows = self.distances().rows
        dxy = rows[x][y]
        if not 0 <= k <= dxy:
            raise ValueError(f"slice index {k} outside 0..{dxy}")
        return frozenset(z for z in bits(self.interval_mask(x, y)) if rows[x][z] == k)

    def disk(self, v: int, r: int) -> frozenset[int]:
        """All vertices within distance r of v."""
        if r < 0:
            raise ValueError("negative radius")
        return frozenset(bits(self.disk_mask(v, r)))

    def disk_mask(self, v: int, r: int) -> int:
        """Mask of the vertices within distance r of v (none for r < 0)."""
        return sum(1 << z for z, d in enumerate(self.distances().rows[v]) if d <= r)

    def power(self, k: int) -> "Graph":
        """Graph on the same vertices with edges between all pairs at distance <= k.

        Row v is the sum of v's BFS layers 1..k from a search cut off after
        layer k, for every k, so no distance matrix is built; the square is cached.
        """
        if k < 1:
            raise ValueError("power index must be >= 1")
        if k == 2 and self._square is not None:
            return self._square
        self._require_connected("powers")
        full = (1 << self.n) - 1
        rows = [sum(islice(self._frontiers(1 << v, full), 1, k + 1)) for v in range(self.n)]
        g = Graph._of(self.n, rows, self.labels)
        if k == 2:
            self._square = g
        return g


def is_isometric_subgraph(sub: Graph, host: Graph, embed: Sequence[int]) -> bool:
    """True iff ``embed`` maps ``sub`` onto host vertices preserving all distances.

    Reads each embedded vertex's host distance row off one BFS, as
    ``InjectiveHull.vectors`` does, and compares it at the embedded vertices
    with ``sub``'s row. The host's distance matrix is never built, so checking
    a small graph inside its large hull costs ``sub.n`` BFS runs, not the
    hull's all-pairs distances. Raises ValueError when ``embed`` is not an
    injective map into the host's vertices, and DisconnectedGraphError when
    either graph is disconnected.
    """
    if len(embed) != sub.n:
        raise ValueError("embedding must cover every vertex of the subgraph")
    if len(set(embed)) != len(embed):
        raise ValueError("embedding is not injective")
    if not 0 <= min(embed) <= max(embed) < host.n:
        raise ValueError(f"embedding has vertices outside 0..{host.n - 1}")
    rows = sub.distances().rows
    host._require_connected("distances")
    full = (1 << host.n) - 1
    for z, want in zip(embed, rows):
        row = _distance_row(host.n, host._frontiers(1 << z, full))
        if tuple(row[x] for x in embed) != want:
            return False
    return True


def _blocks(g: Graph) -> list[list[int]]:
    """Sorted vertex sets of g's blocks: Hopcroft and Tarjan's search on a stack."""
    disc, low, seen = [0] + [-1] * (g.n - 1), [0] * g.n, 1
    path, todo, order, out = [0], [bits(g.adj[0])], [0], []
    while path:
        u, v = path[-1], next(todo[-1], None)
        if v is not None:
            if disc[v] < 0:
                disc[v] = low[v] = seen
                seen += 1
                path.append(v), todo.append(bits(g.adj[v])), order.append(v)
            # the edge to u's parent lowers low[u] to disc[parent]: still a pass below
            low[u] = min(low[u], disc[v])
            continue
        path.pop(), todo.pop()
        if path:
            p = path[-1]
            low[p] = min(low[p], low[u])
            if low[u] >= disc[p]:  # p cuts u's subtree off: one block
                k = order.index(u)
                out.append(sorted(order[k:] + [p]))
                del order[k:]
    return out


def json_pairs(pairs) -> str:
    """A list of int pairs as ``json.dumps(..., indent=2)`` lays it out at depth 1."""
    if not pairs:
        return "[]"
    items = ",\n".join(f"    [\n      {a},\n      {b}\n    ]" for a, b in pairs)
    return f"[\n{items}\n  ]"


# -- edge-list text format -----------------------------------------------
#
# First meaningful line is "n m", followed by m lines "u v" with 0-based ids,
# every number ASCII ``-?[0-9]+``. Text from "#" to the end of a line and
# blank lines are ignored. This format is the input to every CLI command.


def parse_edge_list(text: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Parse the edge-list text format into a connected Graph."""
    tokens = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    if not tokens:
        raise ValueError("empty edge-list input")
    head = tokens[0]
    if len(head) != 2:
        raise ValueError("header line must be 'n m'")
    n, m = int(head[0]), int(head[1])
    if len(tokens) - 1 != m:
        raise ValueError(f"expected {m} edge lines, found {len(tokens) - 1}")
    edges = []
    for tok in tokens[1:]:
        if len(tok) != 2:
            raise ValueError(f"bad edge line: {' '.join(tok)}")
        edges.append((int(tok[0]), int(tok[1])))
    # int() also takes "+3", "1_0" and non-ASCII digits; one scan clears most texts
    if not text.isascii() or "+" in text or "_" in text:
        bad = [t for row in tokens for t in row if not t.isascii() or "+" in t or "_" in t]
        if bad:
            raise ValueError(f"invalid literal for int() with base 10: {bad[0]!r}")
    check_size(n, max_vertices)
    return Graph.from_edge_list(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def dot_label(text: str) -> str:
    """``text`` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    """Render the graph in DOT format with display labels."""
    lines = ["graph G {"]
    for v in range(g.n):
        lines.append(f"  {v} [label={dot_label(g.label(v))}];")
    for u, v in g.edges():
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
