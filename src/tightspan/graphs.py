"""Bitset-backed immutable graphs and exact metric primitives.

Vertices are the integers ``0..n-1``. Each adjacency row is a Python int used
as a bitset, which keeps neighbourhood intersections and BFS frontiers
word-parallel without any third-party dependency. Graphs are immutable after
construction and safe to share across threads; every operation here is a pure
function of its inputs.
"""

from __future__ import annotations

import json
import re
from functools import partial, reduce
from itertools import compress, islice, repeat
from operator import add, and_, lshift, or_, sub
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
        while layer:
            low = layer & -layer
            row[low.bit_length() - 1] = k
            layer ^= low
    return tuple(row)


class Graph:
    """Simple undirected graph with one integer bit-row per vertex.

    Use :meth:`from_edge_list` to build instances; the raw constructor expects
    already-symmetric loop-free rows. ``labels`` are display-only and ignored
    by equality. Structures derived from the graph are built once: the
    distance rows in ``_dm``, everything else through :meth:`_cached`.
    """

    __slots__ = ("n", "adj", "labels", "_dm", "_cache")

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
        self._dm: Optional[tuple[tuple[int, ...], ...]] = None
        self._cache: dict = {}

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
        for u, row in enumerate(self.adj):
            row = row >> (u + 1) << (u + 1)
            while row:
                low = row & -row
                out.append((u, low.bit_length() - 1))
                row ^= low
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

    def _cached(self, build, *args):
        """``build(self, *args)``, built once and kept under ``(build, *args)``."""
        key = (build, *args)
        if key not in self._cache:
            self._cache[key] = build(self, *args)
        return self._cache[key]

    # -- metric operations ----------------------------------------------

    def is_connected(self) -> bool:
        return self._cached(_reaches_all)

    def _frontiers(self, start_mask: int, allowed: int) -> Iterator[int]:
        """Yield the BFS layers from ``start_mask`` inside ``allowed`` as masks.
        The library's one BFS; the layers are disjoint, their sum is the reach."""
        adj = self.adj
        seen = frontier = start_mask & allowed
        while frontier:
            yield frontier
            nxt, rest = 0, frontier
            while rest:
                low = rest & -rest
                nxt |= adj[low.bit_length() - 1]
                rest ^= low
            frontier = nxt & allowed & ~seen
            seen |= frontier

    def _require_connected(self, what: str) -> None:
        if not self.is_connected():
            raise DisconnectedGraphError(f"{what} need a connected graph")

    def distances(self) -> tuple[tuple[int, ...], ...]:
        """All-pairs distance rows, read off :func:`_sweep` on first use."""
        if self._dm is None:
            self._require_connected("distances")
            self._dm = _rows(_sweep(self))
        return self._dm

    def disk_mask(self, v: int, r: int) -> int:
        """Mask of the vertices within distance r of v (none for r < 0)."""
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} outside 0..{self.n - 1}")
        return sum(1 << z for z, d in enumerate(self.distances()[v]) if d <= r)

    def power(self, k: int) -> "Graph":
        """Graph on the same vertices with edges between all pairs at distance <= k,
        built once per k by :func:`_power`."""
        if k < 1:
            raise ValueError("power index must be >= 1")
        return self._cached(_power, k)


def _reaches_all(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return sum(g._frontiers(1, full)) == full


# A byte lane counts at most this many levels before its totals are read off.
_LANE_LEVELS = 255


def _sweep(g: Graph) -> list[list[bytes]]:
    """Distance rows of a connected g, every source at once, as byte parts.

    ``ball[v]`` holds one byte lane per vertex, 1 on the vertices within the
    current level of v: v's own lane at level 0, its closed neighbourhood at
    level 1. Each further level sets every ball to the OR of the balls of v's
    neighbours (which hold v from level 1 on) and adds it to v's total,
    all in C with no Python step per vertex, until every ball holds every
    vertex. Lane s of ``levels * ones - total[v]`` then counts the levels at
    which s was still outside v's ball: d(v, s). A lane holds at most 255, so
    every 255 levels the totals are read off, one part of n bytes per vertex,
    and restart; d(v, s) is the sum of byte s of v's parts. Only the balls,
    their successors and the totals are kept, never a list per level.
    """
    n = g.n
    nbrs = [list(bits(row)) for row in g.adj]
    ones = int.from_bytes(b"\1" * n, "little")
    own = list(map(lshift, repeat(1), range(0, 8 * n, 8)))
    ball = list(map(reduce, repeat(or_), map(map, repeat(own.__getitem__), nbrs), own))
    total, levels, parts = list(map(add, own, ball)), 2, []
    while ball.count(ones) < n:
        ball = list(map(reduce, repeat(or_), map(map, repeat(ball.__getitem__), nbrs)))
        if levels == _LANE_LEVELS:
            parts.append(_lane_bytes(n, levels * ones, total))
            total, levels = ball, 1
        else:
            total, levels = list(map(add, total, ball)), levels + 1
    parts.append(_lane_bytes(n, levels * ones, total))
    return parts


def _lane_bytes(n: int, full: int, total: list[int]) -> list[bytes]:
    """Each ``full - t``, lane s of which counts the levels s was outside, as n bytes."""
    return [t.to_bytes(n, "little") for t in map(sub, repeat(full), total)]


def _rows(parts: list[list[bytes]]) -> tuple[tuple[int, ...], ...]:
    """The distance rows that :func:`_sweep`'s parts sum to."""
    if len(parts) == 1:
        return tuple(map(tuple, parts[0]))
    # Sums above 256 are new ints; index them into one list so rows share them.
    values = list(range(_LANE_LEVELS * len(parts)))
    sums = (reduce(partial(map, add), row) for row in zip(*parts))
    return tuple(tuple(map(values.__getitem__, s)) for s in sums)


def _power(g: Graph, k: int) -> Graph:
    """Row v of g^k sums v's BFS layers 1..k, so no distance matrix is built."""
    g._require_connected("powers")
    full = (1 << g.n) - 1
    rows = [sum(islice(g._frontiers(1 << v, full), 1, k + 1)) for v in range(g.n)]
    return Graph._of(g.n, rows, g.labels)


def _source_rows(g: Graph, sources: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """The distance row of each source in turn, each off its own BFS and only
    when it is read, so a reader that stops early pays for no more searches."""
    full = (1 << g.n) - 1
    return (_distance_row(g.n, g._frontiers(1 << z, full)) for z in sources)


def is_isometric_subgraph(sub: Graph, host: Graph, embed: Sequence[int]) -> bool:
    """True iff ``embed`` maps ``sub`` onto host vertices preserving all distances.

    The host's distance rows are never built: checking a small graph inside
    its large hull costs at most ``sub.n`` BFS runs, and stops at the first
    embedded vertex that fails. Raises ValueError when ``embed`` is not an
    injective map into the host's vertices, and DisconnectedGraphError when
    either graph is disconnected.
    """
    if len(embed) != sub.n:
        raise ValueError("embedding must cover every vertex of the subgraph")
    if len(set(embed)) != len(embed):
        raise ValueError("embedding is not injective")
    if not 0 <= min(embed) <= max(embed) < host.n:
        raise ValueError(f"embedding has vertices outside 0..{host.n - 1}")
    rows = sub.distances()
    host._require_connected("distances")
    return all(
        tuple(row[x] for x in embed) == want for want, row in zip(rows, _source_rows(host, embed))
    )


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
    return _json_list(",\n".join(f"    [\n      {a},\n      {b}\n    ]" for a, b in pairs))


def _json_edges(g: Graph) -> str:
    """``json_pairs(g.edges())``, written a row at a time by :func:`_edge_text`."""
    return _json_list(_edge_text(g, "    [\n      {},\n      ", "\n    ]", ",\n"))


def _json_list(items: str) -> str:
    return f"[\n{items}\n  ]" if items else "[]"


_FLAGS = bytes.maketrans(b"01", b"\0\1")


def _edge_text(g: Graph, head: str, tail: str, glue: str) -> str:
    """Every edge u < v of g as ``head.format(u) + str(v) + tail``, in
    ``edges()`` order, joined by ``glue``.

    Row u's higher neighbours are read off ``bin(row >> (u + 1))`` as one byte
    of 0/1 flag per bit, lowest first, and their names picked by ``compress``,
    so each row costs one ``join`` rather than a step per edge. The names are
    sliced to the flags' length only, so a sparse row copies few of them. All
    pieces are joined once at the end: adding head and tail to each row's
    string would copy it twice more, and on large hulls those freed copies
    fragment the heap and raise the peak resident memory by megabytes.
    """
    names = list(map(str, range(g.n)))
    pieces = []
    for u, row in enumerate(g.adj):
        row >>= u + 1
        if row:
            flags = bin(row)[:1:-1].encode().translate(_FLAGS)
            h = head.format(u)
            picked = compress(names[u + 1 : u + 1 + len(flags)], flags)
            pieces += (glue, h, (tail + glue + h).join(picked), tail)
    return "".join(pieces[1:])


# -- edge-list text format -----------------------------------------------
#
# First meaningful line is "n m", followed by m lines "u v" with 0-based ids,
# every number ASCII ``-?[0-9]+``. Text from "#" to the end of a line and
# blank lines are ignored. This format is the input to every CLI command.
#
# Text in the canonical form that format_edge_list writes, every line
# "[0-9]+ [0-9]+" and a final newline, is read on a fast path: one C-level
# read of every number, then the checks and the rows. Any other text, and
# any canonical text that fails a check, goes to the general parser, the one
# source of every error message.

# A line start not followed by one canonical line. A lookahead at each line
# start keeps no state across lines, where a whole-text match of
# "(?:[0-9]+ [0-9]+\n)+" would keep some for every line.
_NOT_CANONICAL = re.compile(r"^(?![0-9]+ [0-9]+$)", re.M)


def _is_canonical(text: str) -> bool:
    """True iff every line of ``text`` is canonical and it ends in a newline;
    the search stops short of that newline, after which no line starts."""
    return text.endswith("\n") and not _NOT_CANONICAL.search(text, 0, len(text) - 1)


def parse_edge_list(text: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    """Parse the edge-list text format into a connected Graph."""
    g = _parse_canonical(text, max_vertices)
    return g if g is not None else _parse_general(text, max_vertices)


# Both separators of a canonical text to commas, in one copy of the text.
_COMMAS = str.maketrans(" \n", ",,")


def _parse_canonical(text: str, max_vertices: int) -> Optional[Graph]:
    """The graph of a canonical text that passes every check, else None."""
    if not _is_canonical(text):
        return None
    # With commas for the separators the numbers are a JSON array, read in one
    # C pass that makes no string per number. JSON refuses a leading zero, and
    # a number past int()'s digit limit: both raise ValueError.
    try:
        tokens = json.loads("[" + text[:-1].translate(_COMMAS) + "]")
    except ValueError:
        return None
    n, m = tokens[0], tokens[1]
    ends = tokens[2:]
    if not 0 < n <= max_vertices or len(ends) != 2 * m or max(ends, default=0) >= n:
        return None
    bit = [1 << v for v in range(n)]
    rows = [0] * n
    pairs = iter(ends)
    for u, v in zip(pairs, pairs):
        rows[u] |= bit[v]
        rows[v] |= bit[u]
    if any(map(and_, rows, bit)):  # a loop edge
        return None
    g = Graph._of(n, rows)
    return g if g.is_connected() else None


def _parse_general(text: str, max_vertices: int) -> Graph:
    """Parse any text in the edge-list format, or raise the ValueError that
    names its first fault."""
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
    return f"{g.n} {g.m}\n" + _edge_text(g, "{} ", "\n", "")


def dot_label(text: str) -> str:
    """``text`` as a quoted DOT string, its backslashes and quotes escaped."""
    return '"' + text.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph) -> str:
    """Render the graph in DOT format with display labels."""
    return _dot(g, "G", [""] * g.n)


def _dot(g: Graph, name: str, attrs: Sequence[str]) -> str:
    """DOT graph ``name``: vertex v labelled ``g.label(v)`` with ``attrs[v]``
    after the label, then the ``u -- v;`` edge lines a row at a time."""
    nodes = "".join(f"  {v} [label={dot_label(g.label(v))}{a}];\n" for v, a in enumerate(attrs))
    return f"graph {name} {{\n" + nodes + _edge_text(g, "  {} -- ", ";\n", "") + "}\n"
