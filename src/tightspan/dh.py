"""Distance-hereditary recognition and linear-style Hellification.

A graph is distance-hereditary exactly when it can be grown from a single
vertex by pendant, true-twin, and false-twin extensions. Recognition prunes
such a vertex per round and reverses the removals into a
:class:`PruningSequence`. Hellification replays that sequence into a growing
host: pendant and true-twin steps copy over verbatim, while a false twin of
an anchor whose closed neighborhood is not contained in any other vertex's
first gets a fresh true twin of the anchor (the new Helly vertex). The
dominator query is answered in O(1) by :class:`TwinClassPoset`, which keeps
the true-twin classes of the host partitioned with directed edges for strict
closed-neighborhood containment.

The sequence builder keeps the live vertices in buckets keyed by closed and
open neighbourhood rows and a lazy min-heap of vertices whose status may have
changed, after Hammer and Maffray (1990) and Damiand, Habib and Paul (2001).
Removing a vertex re-keys only its neighbours, so a run makes O(n + m) bucket
updates, each costing O(n / word size) on the bit-rows; the rows themselves
stay the exact keys, so the result is deterministic. The replay, poset, and
Hellification core are linear in the size of the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Optional

from .errors import NotDistanceHereditaryError
from .graphs import Graph, bits

PENDANT = "pendant"
TRUE_TWIN = "true_twin"
FALSE_TWIN = "false_twin"
KINDS = (PENDANT, TRUE_TWIN, FALSE_TWIN)

# Size cap of the DH path (``hellify-dh`` input, ``random_dh``); every other
# reader keeps graphs.DEFAULT_MAX_VERTICES.
MAX_VERTICES = 4096


@dataclass(frozen=True)
class PruningStep:
    vertex: int
    kind: str
    anchor: int


@dataclass(frozen=True)
class PruningSequence:
    """Build order from a single vertex: ``steps[i]`` attaches ``order[i+1]``."""

    order: tuple[int, ...]
    steps: tuple[PruningStep, ...]

    def __post_init__(self):
        if len(self.steps) != len(self.order) - 1:
            raise ValueError("step count must be len(order) - 1")
        for i, step in enumerate(self.steps):
            if step.vertex != self.order[i + 1]:
                raise ValueError(f"step {i} vertex does not match order")

    def __len__(self) -> int:
        return len(self.order)


def replay(seq: PruningSequence) -> Graph:
    """Rebuild the exact graph a pruning sequence describes.

    Raises ValueError with the step position when a step is structurally
    invalid (unknown kind, anchor not yet placed, or a false twin of an
    isolated vertex, which would disconnect the graph).
    """
    n = len(seq.order)
    if sorted(seq.order) != list(range(n)):
        raise ValueError("order must be a permutation of 0..n-1")
    adj = [0] * n
    placed = 1 << seq.order[0]
    for i, step in enumerate(seq.steps):
        v, kind, a = step.vertex, step.kind, step.anchor
        if placed >> v & 1:
            raise ValueError(f"step {i}: vertex {v} already placed")
        if not placed >> a & 1:
            raise ValueError(f"step {i}: anchor {a} not yet placed")
        if kind == PENDANT:
            new_row = 1 << a
        elif kind == TRUE_TWIN:
            new_row = adj[a] | 1 << a
        elif kind == FALSE_TWIN:
            if adj[a] == 0:
                raise ValueError(f"step {i}: false twin of isolated vertex {a}")
            new_row = adj[a]
        else:
            raise ValueError(f"step {i}: unknown kind {kind!r}")
        adj[v] = new_row
        for u in bits(new_row):
            adj[u] |= 1 << v
        placed |= 1 << v
    return Graph(n, adj)


def pruning_sequence(g: Graph) -> Optional[PruningSequence]:
    """A pruning sequence of g, or None when g is not distance-hereditary.

    Deterministic: each round removes the lowest-id vertex that is a pendant,
    a true twin, or a false twin (preferred in that order), anchored to the
    lowest-id valid partner. Disconnected graphs give None.
    """
    n = g.n
    if not g.is_connected():
        return None
    adj = list(g.adj)
    # Live vertices bucketed by closed row N[v] and by open row N(v), as masks.
    closed: dict[int, int] = {}
    open_: dict[int, int] = {}
    for v, row in enumerate(adj):
        bit = 1 << v
        closed[row | bit] = closed.get(row | bit, 0) | bit
        open_[row] = open_.get(row, 0) | bit
    # Every prunable live vertex has an entry; stale entries are re-checked.
    heap = list(range(n))
    alive = bytearray(b"\1") * n
    live = n
    removed: list[PruningStep] = []
    while live > 1:
        if not heap:
            return None
        v = heappop(heap)
        if not alive[v]:
            continue
        row = adj[v]
        bit = 1 << v
        if row.bit_count() == 1:
            step = PruningStep(v, PENDANT, row.bit_length() - 1)
        else:
            kind, partners = TRUE_TWIN, closed[row | bit] ^ bit
            if not partners:
                kind, partners = FALSE_TWIN, open_[row] ^ bit
                if not partners:
                    continue
            step = PruningStep(v, kind, (partners & -partners).bit_length() - 1)
        removed.append(step)
        alive[v] = 0
        live -= 1
        _leave(closed, row | bit, bit)
        _leave(open_, row, bit)
        # Only v's neighbours change rows; a vertex elsewhere can become
        # prunable only by gaining a bucket partner, which _join pushes.
        for u in bits(row):
            old = adj[u]
            ubit = 1 << u
            _leave(closed, old | ubit, ubit)
            _leave(open_, old, ubit)
            adj[u] = new = old ^ bit
            _join(closed, new | ubit, ubit, heap)
            _join(open_, new, ubit, heap)
            heappush(heap, u)
    order = [alive.index(1)] + [step.vertex for step in reversed(removed)]
    return PruningSequence(tuple(order), tuple(reversed(removed)))


def _leave(buckets: dict[int, int], key: int, bit: int) -> None:
    members = buckets[key] ^ bit
    if members:
        buckets[key] = members
    else:
        del buckets[key]


def _join(buckets: dict[int, int], key: int, bit: int, heap: list[int]) -> None:
    members = buckets.get(key, 0)
    if members and not members & (members - 1):
        heappush(heap, members.bit_length() - 1)  # a lone vertex gains a twin
    buckets[key] = members | bit


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
        self._vertex_count = 1

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
        if self._vertex_count == 1 and kind == PENDANT:
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
        elif kind == FALSE_TWIN:
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
        else:
            raise ValueError(f"unknown kind {kind!r}")
        self._vertex_count += 1

    def has_dominator(self, v: int) -> bool:
        """Is there a y != v with N[v] contained in N[y] in the current graph?"""
        s = self.set_of[v]
        return len(self.members[s]) > 1 or bool(self.succ[s])

    def snapshot(self) -> tuple[list[frozenset[int]], set[tuple[frozenset, frozenset]]]:
        """Classes and containment edges as value objects, for verification."""
        classes = [frozenset(m) for m in self.members.values() if m]
        edges = set()
        for a, targets in self.succ.items():
            for b in targets:
                edges.add((frozenset(self.members[a]), frozenset(self.members[b])))
        return classes, edges


@dataclass(frozen=True)
class HellificationResult:
    """Hull of a distance-hereditary graph plus provenance of added vertices.

    Source vertex z is hull vertex z; each added Helly vertex appears in
    ``added`` with the anchor whose false twin forced it. ``sequence`` is a
    pruning sequence of the hull itself, certifying that the hull is
    distance-hereditary.
    """

    hull: Graph
    added: tuple[tuple[int, int], ...]
    sequence: PruningSequence


def hellify_adjacency(
    seq: PruningSequence,
) -> tuple[list[list[int]], list[tuple[int, int]], PruningSequence]:
    """Core Hellification on adjacency lists; takes a pruning sequence.

    Returns (host adjacency lists, added (vertex, anchor) pairs, host
    pruning sequence). Kept free of the bitset Graph type so it can run on
    inputs far beyond the metric size cap.
    """
    n = len(seq.order)
    adj: list[list[int]] = [[] for _ in range(2 * n)]
    poset = TwinClassPoset(seq.order[0])
    order = [seq.order[0]]
    steps: list[PruningStep] = []
    added: list[tuple[int, int]] = []
    next_extra = n

    def attach(vertex: int, kind: str, anchor: int) -> None:
        if kind == PENDANT:
            adj[vertex] = [anchor]
            adj[anchor].append(vertex)
        else:
            adj[vertex] = list(adj[anchor])
            for u in adj[anchor]:
                adj[u].append(vertex)
            if kind == TRUE_TWIN:
                adj[vertex].append(anchor)
                adj[anchor].append(vertex)
        step = PruningStep(vertex, kind, anchor)
        poset.apply(step)
        order.append(vertex)
        steps.append(step)

    for step in seq.steps:
        if step.kind == FALSE_TWIN and not poset.has_dominator(step.anchor):
            helly = next_extra
            next_extra += 1
            attach(helly, TRUE_TWIN, step.anchor)
            added.append((helly, step.anchor))
        attach(step.vertex, step.kind, step.anchor)

    total = n + len(added)
    host_seq = PruningSequence(tuple(order), tuple(steps))
    return adj[:total], added, host_seq


def hellify_dh(g: Graph) -> HellificationResult:
    """Injective hull of a distance-hereditary graph by sequence replay.

    Raises NotDistanceHereditaryError on other inputs. The result satisfies
    |V(hull)| <= 2n and |E(hull)| <= 4m and is itself distance-hereditary.
    """
    seq = pruning_sequence(g)
    if seq is None:
        raise NotDistanceHereditaryError("input graph is not distance-hereditary")
    adj, added, host_seq = hellify_adjacency(seq)

    total = len(adj)
    # Hull vertex ids must be a contiguous permutation; they already are:
    # source ids 0..n-1, added ids n..total-1.
    rows = [0] * total
    for v, nbrs in enumerate(adj):
        for u in nbrs:
            rows[v] |= 1 << u
    labels = [g.label(v) for v in range(g.n)]
    for k, (vertex, anchor) in enumerate(added, start=1):
        labels.append(f"h{k}({g.label(anchor)})")
    hull = Graph(total, rows, labels)

    if hull.n > 2 * g.n or hull.m > 4 * g.m:
        raise RuntimeError("internal consistency failure: hull exceeds 2n/4m bounds")
    return HellificationResult(hull, tuple(added), host_seq)
