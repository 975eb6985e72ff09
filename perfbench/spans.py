"""Outside-in tracing of tightspan's public functions, for the traced run.

``install`` wraps the functions in ``TARGETS`` so each call records a span
(name, start, end, parent span, op id) and, for some, a work count read off
its arguments or result. Spans stay in memory until the run writes them out.
The untraced run never calls ``install``.

A wrapper must replace every binding of the function, not only the one in
its defining module: ``tightspan.cli`` and ``tightspan.helly`` hold names
imported with ``from .x import y``, and the package namespace re-exports
them. ``Graph`` methods are replaced on the class. The ``hyperbolicity``
submodule is reached through ``sys.modules`` because the package attribute
of that name is the function.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict
from math import comb


class Tracer:
    """Spans and per-op counts of one traced run."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent, op]
        self.stack: list = []
        self.op = None
        self.counts = defaultdict(float)  # (op, counter name) -> value

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self.stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counts[self.op, name] += value


# name -> (module, owner, attribute, counter). The counter receives the call's
# arguments, its result and whether the graph's distance cache was empty
# before the call, and returns (counter name, value) pairs.
TARGETS = {
    "cli.run": ("tightspan.cli", None, "run", None),
    "graphs.parse_edge_list": ("tightspan.graphs", None, "parse_edge_list", None),
    "graphs.Graph.init": ("tightspan.graphs", "Graph", "__init__", None),
    "graphs.Graph.distances": (
        "tightspan.graphs", "Graph", "distances",
        lambda a, r, fresh: [("graphs.Graph.distances.graphs", int(fresh))],
    ),
    "graphs.Graph.power": (
        "tightspan.graphs", "Graph", "power",
        lambda a, r, fresh: [("graphs.Graph.power.calls", 1)],
    ),
    "graphs.is_isometric_subgraph": ("tightspan.graphs", None, "is_isometric_subgraph", None),
    "hulls.build_injective_hull": (
        "tightspan.hulls", None, "build_injective_hull",
        lambda a, r, fresh: [("hulls.vector_pairs", comb(r.hull.n, 2))],
    ),
    "hulls.enumerate_extremal_functions": (
        "tightspan.hulls", None, "enumerate_extremal_functions",
        lambda a, r, fresh: [("hulls.vectors", len(r))],
    ),
    "hulls.hull_to_json": (
        "tightspan.hulls", None, "hull_to_json",
        lambda a, r, fresh: [("hulls.json_bytes", len(r.encode()))],
    ),
    "helly.find_pseudo_modular_violation": (
        "tightspan.helly", None, "find_pseudo_modular_violation",
        lambda a, r, fresh: [("helly.find_pseudo_modular_violation.calls", 1)],
    ),
    "helly.maximal_cliques": (
        "tightspan.helly", None, "maximal_cliques",
        lambda a, r, fresh: [("helly.maximal_cliques.calls", 1)],
    ),
    "helly.maximal_two_sets": (
        "tightspan.helly", None, "maximal_two_sets",
        lambda a, r, fresh: [("helly.two_sets", len(r))],
    ),
    "detectors.is_chordal": (
        "tightspan.detectors", None, "is_chordal",
        lambda a, r, fresh: [("detectors.is_chordal.calls", 1)],
    ),
    "detectors.find_long_induced_cycle": ("tightspan.detectors", None, "find_long_induced_cycle", None),
    "detectors.is_bipartite": ("tightspan.detectors", None, "is_bipartite", None),
    "detectors.find_odd_cycle": ("tightspan.detectors", None, "find_odd_cycle", None),
    "detectors.is_split": ("tightspan.detectors", None, "is_split", None),
    "detectors.find_asteroidal_triple": ("tightspan.detectors", None, "find_asteroidal_triple", None),
    "dh.pruning_sequence": (
        "tightspan.dh", None, "pruning_sequence",
        lambda a, r, fresh: [("dh.pruning_rounds", len(r.steps) if r is not None else 0)],
    ),
    "dh.hellify_adjacency": ("tightspan.dh", None, "hellify_adjacency", None),
    "dh.hellify_dh": (
        "tightspan.dh", None, "hellify_dh",
        lambda a, r, fresh: [("dh.added", len(r.added))],
    ),
    "hyperbolicity.hyperbolicity": (
        "tightspan.hyperbolicity", None, "hyperbolicity",
        lambda a, r, fresh: [("hyperbolicity.quadruples", comb(a[0].n, 4))],
    ),
}

# Modules whose calls are wrapped; each gets a "<module>.errors" count.
LAYERS = ("cli", "graphs", "hulls", "helly", "dh", "detectors", "hyperbolicity")


def _wrap(tracer: Tracer, name: str, fn, counter):
    layer = name.split(".", 1)[0]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        fresh = bool(args) and getattr(args[0], "_dm", 0) is None
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.count(f"{layer}.errors")
            raise
        finally:
            tracer.close(sid)
        if counter is not None:
            for key, value in counter(args, result, fresh):
                tracer.count(key, value)
        return result

    return wrapper


def install(tracer: Tracer):
    """Wrap every target in the loaded tightspan modules; returns an undo function."""
    modules = [
        m for key, m in list(sys.modules.items())
        if m is not None and (key == "tightspan" or key.startswith("tightspan."))
    ]
    undo = []
    for name, (module, owner, attr, counter) in TARGETS.items():
        holder = sys.modules[module]
        if owner is not None:
            cls = getattr(holder, owner)
            orig = cls.__dict__[attr]
            undo.append((cls, attr, orig))
            setattr(cls, attr, _wrap(tracer, name, orig, counter))
            continue
        orig = getattr(holder, attr)
        wrapped = _wrap(tracer, name, orig, counter)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, wrapped)

    def uninstall():
        for obj, attr, orig in reversed(undo):
            setattr(obj, attr, orig)

    return uninstall


# -- analysis ------------------------------------------------------------------


def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for sid, (name, start, end, parent, op) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children[sid]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append(end - start - covered)
    return out


def per_op_self_ms(spans) -> dict:
    """{(op, span name): self time in ms summed over that op's calls}."""
    out = defaultdict(float)
    for span, self_s in zip(spans, self_times(spans)):
        out[span[4], span[0]] += self_s * 1e3
    return out


def loglog_slope(points) -> float:
    """Least-squares slope of log(y) against log(x); 0.0 without two distinct x."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    num = sum((x - mx) * (y - my) for x, y in pts)
    den = sum((x - mx) ** 2 for x, _ in pts)
    return num / den
