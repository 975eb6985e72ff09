"""Distance-hereditary recognition and linear-time Hellification.

A graph is distance-hereditary exactly when it can be grown from a single
vertex by pendant, true-twin, and false-twin extensions. Recognition prunes
such a vertex per round and reverses the removals into a
:class:`PruningSequence`; :func:`replay` rebuilds the graph from one, and
:func:`hellify_adjacency` builds the hull in one pass over it.

The sequence builder keeps the live vertices in one bucket map keyed by closed
rows N[v] and open rows N(v), and a worklist mask of vertices whose status may
have changed, popped lowest bit first, after Hammer and Maffray (1990) and
Damiand, Habib and Paul (2001). A removed twin v becomes a *ghost* of its
anchor a, and a live row R is keyed as R plus the ghosts of its members. Ghost
sets are disjoint from each other and from the live set, so keys are equal
exactly when live rows are, and the two kinds of key never collide:
N[u] = N(w) puts u in N(w), so w is in N[u] = N(w), which is a loop. Any
x != a sees v exactly when it sees a, so x's keys already hold v as a ghost of
a and do not move; only a's keys do: v leaves a true twin's open key and joins
a false twin's closed key, and a pendant's one neighbour drops v and its
ghosts from both. A run makes at most four bucket updates per removal, each
costing O(n / word size) on the keys, and the keys stay exact, so the result
is deterministic. The replay and the Hellification core are linear in the
size of the host.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

from .errors import NotDistanceHereditaryError
from .graphs import Graph
from .hulls import InjectiveHull

PENDANT = "pendant"
TRUE_TWIN = "true_twin"
FALSE_TWIN = "false_twin"
KINDS = (PENDANT, TRUE_TWIN, FALSE_TWIN)

# Size cap of the DH path (``hellify-dh`` input, ``random_dh``); every other
# reader keeps graphs.DEFAULT_MAX_VERTICES.
MAX_VERTICES = 4096


class PruningStep(NamedTuple):
    vertex: int
    kind: str
    anchor: int


@dataclass(frozen=True)
class PruningSequence:
    """Build order from a single vertex: ``steps[i]`` attaches ``order[i+1]``.

    Construction rejects a sequence that does not build a connected graph on
    0..n-1: the order must be a permutation, each step of a known kind with
    its anchor placed before it, and step 0 no false twin of the isolated
    first vertex. This is the only check of a step.
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
            if step.kind not in KINDS:
                raise ValueError(f"step {i}: unknown kind {step.kind!r}")
            if step.vertex != self.order[i + 1]:
                raise ValueError(f"step {i} vertex does not match order")
            if pos.get(step.anchor, n) > i:
                raise ValueError(f"step {i}: anchor {step.anchor} not yet placed")
            if i == 0 and step.kind == FALSE_TWIN:
                raise ValueError(f"step 0: false twin of isolated vertex {step.anchor}")


def replay(seq: PruningSequence) -> Graph:
    """Rebuild the exact graph a pruning sequence describes.

    A :class:`PruningSequence` rejects invalid steps when it is built, so
    every sequence replays to a connected graph.
    """
    adj: list[list[int]] = [[] for _ in seq.order]
    for step in seq.steps:
        _attach(adj, *step)
    return Graph._of(len(adj), _rows(adj))


def _attach(adj: list[list[int]], vertex: int, kind: str, anchor: int) -> None:
    """Place ``vertex`` by one step; the one place a step kind meets adjacency."""
    if kind == PENDANT:
        row = [anchor]
    elif kind == TRUE_TWIN:
        row = adj[anchor] + [anchor]
    else:
        row = adj[anchor][:]
    adj[vertex] = row
    for u in row:
        adj[u].append(vertex)


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
    adj = g.adj
    # Keys of live vertices: open and closed rows, each plus its members' ghosts.
    okey = list(adj)
    ckey = [row | 1 << v for v, row in enumerate(adj)]
    ghosts = [0] * g.n
    buckets: dict[int, int] = {}
    for v in range(g.n):
        for key in (okey[v], ckey[v]):
            buckets[key] = buckets.get(key, 0) | 1 << v
    # Vertices whose status may have changed, lowest first; the live vertices.
    todo = live = (1 << g.n) - 1
    removed: list[PruningStep] = []
    while live & (live - 1):
        if not todo:
            return None
        bit = todo & -todo
        todo ^= bit
        v = bit.bit_length() - 1
        row = adj[v] & live
        if row.bit_count() == 1:
            step = PruningStep(v, PENDANT, row.bit_length() - 1)
        else:
            kind, partners = TRUE_TWIN, buckets[ckey[v]] ^ bit
            if not partners:
                kind, partners = FALSE_TWIN, buckets[okey[v]] ^ bit
                if not partners:
                    continue
            step = PruningStep(v, kind, (partners & -partners).bit_length() - 1)
        removed.append(step)
        live ^= bit
        _leave(buckets, okey[v], bit)
        _leave(buckets, ckey[v], bit)
        a, gone = step.anchor, ghosts[v] | bit
        abit = 1 << a
        if step.kind == PENDANT:
            moved = (okey, ckey)
        else:
            moved = (okey,) if step.kind == TRUE_TWIN else (ckey,)
            ghosts[a] |= gone
        for keys in moved:
            _leave(buckets, keys[a], abit)
            keys[a] = key = keys[a] ^ gone
            members = buckets.get(key, 0) | abit
            buckets[key] = members
            todo |= members
        # A neighbour of v may be left a pendant.
        todo |= row
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


def hellify_adjacency(seq: PruningSequence) -> tuple[list[list[int]], list[tuple[int, int]]]:
    """Core Hellification: one twin-class pass over a pruning sequence.

    Writes each step into the host's neighbour lists as it goes, and each
    added Helly vertex, a true twin of its anchor numbered from n on, just
    before the false twin that forced it. A false twin is forced exactly when
    its anchor has no dominator; the Helly twin gives it one, so every false
    twin reaches :class:`_TwinClasses` with a dominated anchor, as its O(1)
    update requires. Returns (host adjacency lists, added (vertex, anchor)
    pairs).
    """
    adj: list[list[int]] = [[] for _ in seq.order]
    classes = _TwinClasses(seq.order[0])
    added: list[tuple[int, int]] = []
    for step in seq.steps:
        if step.kind == FALSE_TWIN and not classes.dominated(step.anchor):
            helly = PruningStep(len(adj), TRUE_TWIN, step.anchor)
            adj.append([])
            added.append((helly.vertex, step.anchor))
            classes.apply(helly)
            _attach(adj, *helly)
        classes.apply(step)
        _attach(adj, *step)
    return adj, added


def hellify_dh(g: Graph) -> InjectiveHull:
    """Injective hull of a distance-hereditary graph by sequence replay.

    Raises NotDistanceHereditaryError on other inputs. The hull satisfies
    |V(hull)| <= 2n and |E(hull)| <= 4m and is itself distance-hereditary;
    ``added`` pairs each Helly vertex, labelled ``h<k>(<anchor>)``, with its anchor.
    """
    seq = pruning_sequence(g)
    if seq is None:
        raise NotDistanceHereditaryError("input graph is not distance-hereditary")
    adj, added = hellify_adjacency(seq)
    labels = [g.label(v) for v in range(g.n)]
    for k, (vertex, anchor) in enumerate(added, start=1):
        labels.append(f"h{k}({g.label(anchor)})")
    hull = Graph._of(len(adj), _rows(adj), labels)

    if hull.n > 2 * g.n or hull.m > 4 * g.m:
        raise RuntimeError("internal consistency failure: hull exceeds 2n/4m bounds")
    return InjectiveHull(g, hull, tuple(added))
