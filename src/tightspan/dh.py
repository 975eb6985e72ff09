"""Distance-hereditary recognition and linear-style Hellification.

A graph is distance-hereditary exactly when it can be grown from a single
vertex by pendant, true-twin, and false-twin extensions. Recognition prunes
such a vertex per round and reverses the removals into a
:class:`PruningSequence`, and :func:`replay` rebuilds the graph from one.
Hellification walks the sequence and emits the host's sequence: every step
is copied, and a false twin of an anchor whose closed neighborhood is not
contained in any other vertex's is preceded by a fresh true twin of the
anchor (the new Helly vertex). The dominator query reads the host's
true-twin classes, each kept with its size and a flag saying that some
closed neighbourhood strictly contains the class's; a step updates them in
O(1). The host is built from its sequence by the same code as :func:`replay`
and returned as a ``hulls.InjectiveHull``, whose vectors cost nothing unread.

The sequence builder keeps the live vertices in one bucket map keyed by closed
rows N[v] and open rows N(v), and a worklist mask of vertices whose status may
have changed, popped lowest bit first, after Hammer and Maffray (1990) and
Damiand, Habib and Paul (2001). The two kinds of key never collide:
N[u] = N(w) puts u in N(w), so w is in N[u] = N(w), which is a loop. Removing
a vertex re-keys only its neighbours, so a run makes O(n + m) bucket updates,
each costing O(n / word size) on the bit-rows; the rows themselves stay the
exact keys, so the result is deterministic. The replay and the
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


class _TwinClasses:
    """True-twin classes of a growing host, each with a size and a flag.

    A class's flag says that some vertex's closed row strictly contains the
    class's closed rows, so "is N[v] contained in N[y] for some y != v?" is
    ``size > 1 or strict``. Each step is O(1) and needs no containment edges:

    - a true twin w of v grows v's class; no containment between other
      vertices changes;
    - a pendant w on v leaves v with no dominator, so v's class, or v split
      off from its twins, gets the flag false; the twins it leaves sit
      strictly inside N[v] and get it true, and so does the new class {w};
    - a false twin w of v requires v dominated, by some z in N(v), which
      gains w as well. Strict containment is transitive, so any x strictly
      inside N[v] stays strictly inside N[z], and no other flag changes; v
      split off from its twins sits strictly inside theirs, and {w} strictly
      inside N[z], so both get the flag true.

    The second vertex ever placed is a true twin whatever its step kind.
    """

    def __init__(self, first_vertex: int):
        self.class_of = {first_vertex: 0}
        self.size = [1]
        self.strict = [False]

    def _new_class(self, vertex: int, strict: bool) -> None:
        self.class_of[vertex] = len(self.size)
        self.size.append(1)
        self.strict.append(strict)

    def apply(self, step: PruningStep) -> None:
        """Place ``step.vertex``; a false twin's anchor must be dominated."""
        w, v = step.vertex, step.anchor
        s = self.class_of[v]
        if step.kind == TRUE_TWIN or len(self.class_of) == 1:
            self.class_of[w] = s
            self.size[s] += 1
            return
        pendant = step.kind == PENDANT
        if self.size[s] > 1:
            self.size[s] -= 1
            if pendant:
                self.strict[s] = True
            self._new_class(v, not pendant)
        elif pendant:
            self.strict[s] = False
        self._new_class(w, True)

    def dominated(self, v: int) -> bool:
        """Is there a y != v with N[v] contained in N[y] in the current host?"""
        s = self.class_of[v]
        return self.size[s] > 1 or self.strict[s]


def hellify_adjacency(
    seq: PruningSequence,
) -> tuple[list[list[int]], list[tuple[int, int]], PruningSequence]:
    """Core Hellification: one twin-class pass over a pruning sequence.

    Emits the host's pruning sequence, in which each added Helly vertex is a
    true twin of its anchor placed just before the false twin that forced
    it, and builds the host from that sequence. A false twin is forced
    exactly when its anchor has no dominator; the Helly twin gives it one,
    so every false twin reaches :class:`_TwinClasses` with a dominated
    anchor, as its O(1) update requires. Returns (host adjacency lists,
    added (vertex, anchor) pairs, host pruning sequence).
    """
    n = len(seq.order)
    classes = _TwinClasses(seq.order[0])
    steps: list[PruningStep] = []
    added: list[tuple[int, int]] = []
    for step in seq.steps:
        if step.kind == FALSE_TWIN and not classes.dominated(step.anchor):
            helly = PruningStep(n + len(added), TRUE_TWIN, step.anchor)
            added.append((helly.vertex, step.anchor))
            classes.apply(helly)
            steps.append(helly)
        classes.apply(step)
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
