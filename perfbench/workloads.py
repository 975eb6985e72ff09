"""Workload inputs and the correctness gate for the tightspan benchmark.

Each workload is a fixed list of CLI invocations built from the workload
seed and replayed in order. Every list length ends in 5 (35 inputs, 45 for
``hull``): with whole passes replayed, the median and the 90th percentile
then fall in the middle of one input's samples, never on the boundary
between two inputs of different cost, so the percentiles do not jump
between runs. Three passes make the 100 ops a run needs.

The gate checks every output two ways. For the default seed it compares the
exit code and the sha256 of stdout with ``reference.json``, recorded from the
program with ``record_reference.py``. For every seed it checks invariants
computed from the benchmark's own BFS, which do not depend on the code under
test.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Optional

DEFAULT_SEED = 1


@dataclass
class Input:
    """One CLI invocation: argv with ``-`` for stdin, and the edge-list text."""

    label: str
    kind: str
    n: int
    argv: list
    text: str
    # Filled lazily by the gate from the benchmark's own computations.
    cache: dict = field(default_factory=dict)


def _sub_seeds(workload: str, seed: int):
    # String seeding of random.Random is deterministic across runs and
    # platforms, and keeps sub-seeds independent of the code under test.
    rng = random.Random(f"{workload}:{seed}")
    while True:
        yield rng.randrange(1 << 31)


def _grid(lo: int, hi: int, count: int) -> list:
    return [round(lo + (hi - lo) * i / (count - 1)) for i in range(count)]


def sparse_edges(ts, n: int, chords: int, seed: int) -> list:
    """A random recursive spanning tree plus ``chords`` extra edges."""
    rng = ts.generators.SplitMix64(seed)
    edges = {(rng.below(v), v) for v in range(1, n)}
    while chords:
        u, v = sorted((rng.below(n), rng.below(n)))
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            chords -= 1
    return sorted(edges)


def _recognize(ts, seeds):
    # Alternating DH and chordal graphs. DH inputs run pseudo-modularity and
    # the pruning sequence to completion; chordal inputs exit both early.
    # DH sizes stop at 160 so that three passes take about 20 s.
    dh = _grid(96, 160, 18)
    chordal = _grid(160, 320, 17)
    out = []
    for i in range(len(dh) + len(chordal)):
        if i % 2 == 0:
            n, kind, gen = dh[i // 2], "dh", ts.generators.random_dh
        else:
            n, kind, gen = chordal[i // 2], "chordal", ts.generators.random_chordal
        out.append((f"{kind}-n{n}-i{i}", kind, gen(n, next(seeds))))
    return out, ["recognize", "-", "--witness"]


def _hull(ts, seeds):
    g = ts.generators
    out = [(f"C{k}", "cycle", g.fixture(f"C{k}")) for k in range(8, 15)]
    out += [(f"crown{k}", "crown", g.crown_family(k)) for k in range(4, 8)]
    out.append(("split2", "split", g.split_family(2)))
    out.append(("cocomparability2", "cocomparability", g.cocomparability_family(2)[0]))
    out += [(name, "fixture", g.fixture(name)) for name in ("house", "domino", "gem", "permutation")]
    # Sparse hulls take 3-40 ms, so the median (the 23rd input) lands among
    # them, and the 90th percentile (the 41st) among C10, C11 and crown6. The
    # list is longer than the others because the median is an order
    # statistic of the seeded sparse graphs, and more of them steady it.
    for i in range(28):
        n = 10 + i * 5 // 28
        edges = sparse_edges(ts, n, 2 + i % 2, next(seeds))
        out.append((f"sparse-n{n}-i{i}", "sparse", ts.graphs.Graph.from_edge_list(n, edges)))
    return out, ["hull", "-", "--format", "json"]


def _hellify(ts, seeds):
    out = []
    for i, n in enumerate(_grid(256, 512, 16) * 2):
        out.append((f"dh-n{n}-i{i}", "dh", ts.generators.random_dh(n, next(seeds))))
    for i, n in enumerate((256, 384, 512)):
        out.append((f"chordal-n{n}-i{i}", "chordal", ts.generators.random_chordal(n, next(seeds))))
    return out, ["hellify-dh", "-", "--format", "json"]


def _hyperbolicity(ts, seeds):
    g = ts.generators
    # The scan's cost depends on n alone, so both percentiles land in
    # clusters of equal-sized inputs.
    out = [(f"C{k}", "cycle", g.fixture(f"C{k}")) for k in (48, 60, 72, 84, 96)]
    for i, n in enumerate(_grid(48, 72, 10)):
        out.append((f"dh-n{n}-i{i}", "dh", g.random_dh(n, next(seeds))))
        out.append((f"chordal-n{n}-i{i}", "chordal", g.random_chordal(n, next(seeds))))
        edges = sparse_edges(ts, n, 3, next(seeds))
        out.append((f"sparse-n{n}-i{i}", "sparse", ts.graphs.Graph.from_edge_list(n, edges)))
    return out, ["hyperbolicity", "-"]


BUILDERS = {
    "recognize": _recognize,
    "hull": _hull,
    "hellify": _hellify,
    "hyperbolicity": _hyperbolicity,
}


def build_inputs(ts, workload: str, seed: int):
    """The workload's inputs for ``seed`` and the seconds spent building graphs.

    ``ts`` is the tightspan package. Building is almost all generator calls;
    formatting the edge-list text is not counted in the returned time.
    """
    t0 = time.perf_counter()
    graphs, argv = BUILDERS[workload](ts, _sub_seeds(workload, seed))
    build_s = time.perf_counter() - t0
    inputs = []
    for label, kind, g in graphs:
        inputs.append(Input(label, kind, g.n, argv, ts.graphs.format_edge_list(g)))
    assert len(inputs) % 10 == 5, (workload, len(inputs))
    return inputs, build_s


# -- the benchmark's own graph computations ------------------------------------


def edge_pairs(inp: Input) -> list:
    """The input's edges, read back from its text (header line, then "u v" lines)."""
    return [tuple(map(int, line.split())) for line in inp.text.splitlines()[1:] if line]


def _adjacency(inp: Input) -> list:
    adj = [set() for _ in range(inp.n)]
    for u, v in edge_pairs(inp):
        adj[u].add(v)
        adj[v].add(u)
    return adj


def bfs_rows(inp: Input) -> list:
    """All-pairs hop distances by plain BFS over adjacency sets."""
    if "dist" not in inp.cache:
        adj = _adjacency(inp)
        rows = []
        for s in range(inp.n):
            dist = [-1] * inp.n
            dist[s] = 0
            queue = deque([s])
            while queue:
                v = queue.popleft()
                for u in adj[v]:
                    if dist[u] < 0:
                        dist[u] = dist[v] + 1
                        queue.append(u)
            rows.append(dist)
        inp.cache["dist"] = rows
    return inp.cache["dist"]


def has_induced_gem(inp: Input) -> bool:
    """True iff some vertex sees an induced P4 in its neighbourhood.

    A chordal graph is distance-hereditary iff it has no induced gem, so on
    chordal inputs this decides the expected exit code of ``hellify-dh``.
    """
    if "gem" not in inp.cache:
        adj = _adjacency(inp)
        inp.cache["gem"] = any(_gem_at(adj, c) for c in range(inp.n))
    return inp.cache["gem"]


def _gem_at(adj, c) -> bool:
    nbrs = adj[c]
    for b in nbrs:
        for x in nbrs & adj[b]:
            for a in nbrs & adj[b] - adj[x] - {x}:
                if any(y not in adj[a] for y in nbrs & adj[x] - adj[b] - {b}):
                    return True
    return False


# -- the gate --------------------------------------------------------------------


def expected_exit(inp: Input) -> int:
    if inp.argv[0] == "hellify-dh" and inp.kind == "chordal" and has_induced_gem(inp):
        return 3
    return 0


def digest(stdout: str) -> str:
    return hashlib.sha256(stdout.encode()).hexdigest()


def check(inp: Input, code: int, stdout: str, reference: Optional[dict]) -> Optional[str]:
    """None when the output passes the gate, else the reason it fails.

    ``reference`` maps labels to the recorded exit code and stdout digest; it
    is None for seeds without a recording.
    """
    if reference is not None:
        want = reference.get(inp.label)
        if want is None:
            return "no reference recorded for this input"
        if code != want["exit"]:
            return f"exit {code}, reference {want['exit']}"
        if digest(stdout) != want["sha256"]:
            return "stdout digest differs from the reference"
    want_code = expected_exit(inp)
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    if code != 0:
        return None if stdout == "" else "stdout not empty on a failing exit"
    try:
        return INVARIANTS[inp.argv[0]](inp, stdout)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"


def _recognize_ok(inp, stdout):
    line = {"dh": "distance-hereditary=yes", "chordal": "chordal=yes"}[inp.kind]
    return None if line in stdout.splitlines() else f"missing line {line!r}"


def _hull_ok(inp, stdout):
    doc = json.loads(stdout)
    if doc["n_real"] != inp.n:
        return f"n_real={doc['n_real']} for n={inp.n}"
    for z, row in enumerate(bfs_rows(inp)):
        vertex = doc["vertices"][z]
        if not vertex["real"] or vertex["vector"] != row:
            return f"real vertex {z} is not the distance vector d_{z}"
    return None


def _hellify_ok(inp, stdout):
    doc = json.loads(stdout)
    m_in = len(edge_pairs(inp))
    if doc["n"] > 2 * inp.n or doc["m"] > 4 * m_in or len(doc["edges"]) != doc["m"]:
        return f"hull n={doc['n']} m={doc['m']} breaks 2n={2 * inp.n} / 4m={4 * m_in}"
    return None


_HYP_LINE = re.compile(r"^delta=(\d+)/2 witness=\((\d+),(\d+),(\d+),(\d+)\)\n$")


def _hyperbolicity_ok(inp, stdout):
    match = _HYP_LINE.match(stdout)
    if match is None:
        return "unparseable hyperbolicity output"
    delta2, u, v, w, x = map(int, match.groups())
    d = bfs_rows(inp)
    sums = sorted((d[u][v] + d[w][x], d[u][x] + d[v][w], d[u][w] + d[v][x]))
    if sums[2] - sums[1] != delta2:
        return f"witness defect {sums[2] - sums[1]} != printed 2*delta {delta2}"
    return None


INVARIANTS = {
    "recognize": _recognize_ok,
    "hull": _hull_ok,
    "hellify-dh": _hellify_ok,
    "hyperbolicity": _hyperbolicity_ok,
}
