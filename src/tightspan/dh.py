"""Distance-hereditary recognition and linear-style Hellification.

A graph is distance-hereditary exactly when it can be grown from a single
vertex by pendant, true-twin, and false-twin extensions. Recognition prunes
such a vertex per round and reverses the removals into a
:class:`PruningSequence`, and :func:`replay` rebuilds the graph from one.
Hellification walks the sequence and emits the host's sequence: every step
is copied, and a false twin of an anchor whose closed neighborhood is not
contained in any other vertex's is preceded by a fresh true twin of the
anchor (the new Helly vertex). The dominator query is answered in O(1) by
:class:`TwinClassPoset`, which keeps the true-twin classes of the host
partitioned with directed edges for strict closed-neighborhood containment.
The host is built from its sequence by the same code as :func:`replay` and
returned as a ``hulls.InjectiveHull``, whose vectors cost nothing unread.

The sequence builder keeps the live vertices in one bucket map keyed by closed
rows N[v] and open rows N(v), and a worklist mask of vertices whose status may
have changed, popped lowest bit first, after Hammer and Maffray (1990) and
Damiand, Habib and Paul (2001). The two kinds of key never collide:
N[u] = N(w) puts u in N(w), so w is in N[u] = N(w), which is a loop. Removing
a vertex re-keys only its neighbours, so a run makes O(n + m) bucket updates,
each costing O(n / word size) on the bit-rows; the rows themselves stay the
exact keys, so the result is deterministic. The replay, poset, and
Hellification core are linear in the size of the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotDistanceHereditaryError
from .graphs import Graph, bits
from .hulls import InjectiveHull

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

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")


@dataclass(frozen=True)
class PruningSequence:
    """Build order from a single vertex: ``steps[i]`` attaches ``order[i+1]``.

    Construction rejects a sequence that does not build a connected graph on
    0..n-1: the order must be a permutation, each anchor placed before its
    step, and step 0 no false twin of the isolated first vertex.
    """

    order: tuple[int, ...]
    steps: tuple[PruningStep, ...]

    def __post_init__(self):
        n = len(self.order)
        if len(self.steps) != n - 1:
            raise ValueError("step count must be len(order) - 1")
        if sorted(self.order) != list(range(n)):
            raise ValueError("order must be a permutation of 0..n-1")
        pos = {v: i for i, v in enumerate(self.order)}
        for i, step in enumerate(self.steps):
            if step.vertex != self.order[i + 1]:
                raise ValueError(f"step {i} vertex does not match order")
            if pos.get(step.anchor, n) > i:
                raise ValueError(f"step {i}: anchor {step.anchor} not yet placed")
            if i == 0 and step.kind == FALSE_TWIN:
                raise ValueError(f"step 0: false twin of isolated vertex {step.anchor}")

    def __len__(self) -> int:
        return len(self.order)


def replay(seq: PruningSequence) -> Graph:
    """Rebuild the exact graph a pruning sequence describes.

    A :class:`PruningSequence` rejects invalid steps when it is built, so
    every sequence replays to a connected graph.
    """
    return Graph._of(len(seq.order), _rows(_neighbour_lists(seq)))


def _neighbour_lists(seq: PruningSequence) -> list[list[int]]:
    """Apply every step of ``seq``; the one place a step kind meets adjacency."""
    adj: list[list[int]] = [[] for _ in seq.order]
    for step in seq.steps:
        a = step.anchor
        if step.kind == PENDANT:
            row = [a]
        elif step.kind == TRUE_TWIN:
            row = adj[a] + [a]
        else:
            row = adj[a][:]
        adj[step.vertex] = row
        for u in row:
            adj[u].append(step.vertex)
    return adj


def _rows(adj: list[list[int]]) -> list[int]:
    """Bit-rows of neighbour lists."""
    rows = []
    for nbrs in adj:
        row = 0
        for u in nbrs:
            row |= 1 << u
        rows.append(row)
    return rows


def pruning_sequence(g: Graph) -> Optional[PruningSequence]:
    """A pruning sequence of g, or None when g is not distance-hereditary.

    Deterministic: each round removes the lowest-id vertex that is a pendant,
    a true twin, or a false twin (preferred in that order), anchored to the
    lowest-id valid partner. Disconnected graphs give None.
    """
    if not g.is_connected():
        return None
    adj = list(g.adj)
    # Live vertices as masks, bucketed by closed row N[v] and by open row N(v).
    buckets: dict[int, int] = {}
    for v, row in enumerate(adj):
        bit = 1 << v
        buckets[row | bit] = buckets.get(row | bit, 0) | bit
        buckets[row] = buckets.get(row, 0) | bit
    # Vertices whose status may have changed, lowest first; the live vertices.
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
        _leave(buckets, row | bit, bit)
        _leave(buckets, row, bit)
        # Only v's neighbours change rows; a vertex elsewhere can become
        # prunable only by gaining a bucket partner, and is scheduled then.
        for u in bits(row):
            old = adj[u]
            ubit = 1 << u
            _leave(buckets, old | ubit, ubit)
            _leave(buckets, old, ubit)
            adj[u] = new = old ^ bit
            for key in (new | ubit, new):
                members = buckets.get(key, 0)
                if members and not members & (members - 1):
                    todo |= members
                buckets[key] = members | ubit
            todo |= ubit
    order = [live.bit_length() - 1] + [step.vertex for step in reversed(removed)]
    return PruningSequence(tuple(order), tuple(reversed(removed)))


def _leave(buckets: dict[int, int], key: int, bit: int) -> None:
    members = buckets[key] ^ bit
    if members:
        buckets[key] = members
    else:
        del buckets[key]


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


def hellify_adjacency(
    seq: PruningSequence,
) -> tuple[list[list[int]], list[tuple[int, int]], PruningSequence]:
    """Core Hellification: the poset pass over a pruning sequence.

    Emits the host's pruning sequence, in which each added Helly vertex is a
    true twin of its anchor placed just before the false twin that forced
    it, and builds the host from that sequence. Returns (host adjacency
    lists, added (vertex, anchor) pairs, host pruning sequence).
    """
    n = len(seq.order)
    poset = TwinClassPoset(seq.order[0])
    steps: list[PruningStep] = []
    added: list[tuple[int, int]] = []
    for step in seq.steps:
        if step.kind == FALSE_TWIN and not poset.has_dominator(step.anchor):
            helly = PruningStep(n + len(added), TRUE_TWIN, step.anchor)
            added.append((helly.vertex, step.anchor))
            poset.apply(helly)
            steps.append(helly)
        poset.apply(step)
        steps.append(step)
    order = (seq.order[0],) + tuple(step.vertex for step in steps)
    host_seq = PruningSequence(order, tuple(steps))
    return _neighbour_lists(host_seq), added, host_seq


def hellify_dh(g: Graph) -> InjectiveHull:
    """Injective hull of a distance-hereditary graph by sequence replay.

    Raises NotDistanceHereditaryError on other inputs. The hull satisfies
    |V(hull)| <= 2n and |E(hull)| <= 4m and is itself distance-hereditary;
    ``added`` pairs each Helly vertex, labelled ``h<k>(<anchor>)``, with its anchor.
    """
    seq = pruning_sequence(g)
    if seq is None:
        raise NotDistanceHereditaryError("input graph is not distance-hereditary")
    adj, added, _ = hellify_adjacency(seq)
    labels = [g.label(v) for v in range(g.n)]
    for k, (vertex, anchor) in enumerate(added, start=1):
        labels.append(f"h{k}({g.label(anchor)})")
    hull = Graph._of(len(adj), _rows(adj), labels)

    if hull.n > 2 * g.n or hull.m > 4 * g.m:
        raise RuntimeError("internal consistency failure: hull exceeds 2n/4m bounds")
    return InjectiveHull(g, hull, tuple(added))
