"""Command-line front end for file-based workflows.

Every command reads the edge-list text format (``-`` for stdin) and writes
deterministic, byte-stable output. Exit codes: 0 success, 1 usage or input
error, 2 search budget exceeded, 3 precondition violation such as a
non-distance-hereditary input to ``hellify-dh``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from typing import Callable, Iterator, Optional, Sequence

from . import detectors, generators, helly
from .dh import MAX_VERTICES as DH_MAX_VERTICES, hellify_dh, pruning_sequence
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    NotDistanceHereditaryError,
)
from .graphs import (
    DEFAULT_MAX_VERTICES,
    Graph,
    _json_edges,
    format_edge_list,
    json_pairs,
    parse_edge_list,
    to_dot,
)
from .hulls import DEFAULT_MAX_NODES, build_injective_hull, helly_gap, hull_to_dot, hull_to_json
from .hyperbolicity import hyperbolicity

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_PRECONDITION = 3

# Interactive size caps, enforced by the reader. Graph construction and the
# algorithms are uncapped; the generators cap n, so `generate` fails before it
# lists edges. At n = 512 (2-vCPU host, Python 3.11) the hull search of a
# 2-connected input costs 55-87 us per node, so the default budget would run
# 9-15 min before exit 2. The four-point scan stops at a proven bound on
# 2*delta. With its distance rows, random_dh(512, 1) takes 0.04 s and
# random_chordal(512, 1) 0.07-0.08 s (largest blocks of about 330 vertices,
# bound 2), C512 0.12-0.15 s (bound the diameter), and P512, all bridges, runs
# no scan (0.19-0.28 s of distance rows). An input whose delta stays below its
# bound scans in full: C510 and C511 take 1.3-2.0 s. The hyperbolicity cap
# stays until the scan has a work budget.
HULL_MAX_VERTICES = 14
HYPERBOLICITY_MAX_VERTICES = 128


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _read_graph(path: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    if path == "-":
        return parse_edge_list(sys.stdin.read(), max_vertices=max_vertices)
    with open(path) as fh:
        return parse_edge_list(fh.read(), max_vertices=max_vertices)


def _cmd_hull(args, out) -> int:
    g = _read_graph(args.file, HULL_MAX_VERTICES)
    h = build_injective_hull(g, args.budget)
    if args.format == "json":
        out.write(hull_to_json(h))
    elif args.format == "dot":
        out.write(hull_to_dot(h))
    else:
        out.write(f"n_real={h.n_real}\n")
        out.write(f"n_helly={h.n_helly}\n")
        out.write(f"helly_gap={helly_gap(h)}\n")
    return EXIT_OK


def _cmd_hellify_dh(args, out) -> int:
    g = _read_graph(args.file, DH_MAX_VERTICES)
    result = hellify_dh(g)
    hull = result.hull
    if args.format == "json":
        out.write(
            f'{{\n  "n": {hull.n},\n  "m": {hull.m},\n'
            f'  "added": {json_pairs(result.added)},\n'
            f'  "edges": {_json_edges(hull)}\n}}\n'
        )
    elif args.format == "edgelist":
        out.write(format_edge_list(hull))
    else:
        # hellify_dh raises when either bound is broken, so both lines say yes
        out.write(f"hull_vertices={hull.n} bound_2n={2 * g.n} within=yes\n")
        out.write(f"hull_edges={hull.m} bound_4m={4 * g.m} within=yes\n")
        out.write(f"added={len(result.added)}\n")
    return EXIT_OK


def _ids(vertices) -> str:
    return ",".join(map(str, vertices))


def _recognize_lines(
    g: Graph, budget: int
) -> Iterator[tuple[str, bool, Optional[Callable[[], str]]]]:
    """Yield ``(name, answer, witness)`` for the eight recognize lines in order.

    ``witness`` is None or a function returning the witness text; it is called
    only under ``--witness``, so the witness searches cost nothing otherwise.
    """
    chordal = detectors.is_chordal(g)
    yield "chordal", chordal, None if chordal else (
        lambda: "cycle:" + _ids(detectors.find_long_induced_cycle(g))
    )
    coloring = detectors.is_bipartite(g)
    if coloring is not None:
        yield "bipartite", True, lambda: "side:" + _ids(v for v in range(g.n) if coloring[v] == 0)
    else:
        yield "bipartite", False, lambda: "odd-cycle:" + _ids(detectors.find_odd_cycle(g))
    split = detectors.is_split(g)
    yield "split", split is not None, None if split is None else (
        lambda: "clique:" + _ids(split[0]) + "+independent:" + _ids(split[1])
    )
    triple = detectors.find_asteroidal_triple(g)
    yield "at-free", triple is None, None if triple is None else (lambda: "triple:" + _ids(triple))
    distance_hereditary = pruning_sequence(g) is not None
    yield "distance-hereditary", distance_hereditary, None
    square_chordal = detectors.is_square_chordal(g)
    yield "square-chordal", square_chordal, None

    # Helly = pseudo-modular + neighborhood-Helly; dually chordal =
    # neighborhood-Helly + chordal square. The 2-sets are enumerated at most
    # once, for the first line that needs them: helly when there is no
    # violation, else dually-chordal when the square is chordal. A budget error
    # cuts the output there. DH graphs are pseudo-modular (Bandelt and Mulder,
    # JCTB 1986), so they skip the scan, and their squares are chordal (every
    # even power is; Bandelt, Henkmann and Nicolai, Discrete Math. 1995), so
    # their 2-sets come off one maximum cardinality search.
    violation = None if distance_hereditary else helly.find_pseudo_modular_violation(g)
    if violation is not None:
        yield "helly", False, lambda: "non-pseudo-modular:" + _ids(violation)
        if not square_chordal:
            yield "dually-chordal", False, None
            return
    ts = next((ts for ts in helly.maximal_two_sets(g, budget) if not ts.suspended), None)
    if violation is None:
        yield "helly", ts is None, None if ts is None else (
            lambda: "unsuspended:" + _ids(ts.members)
        )
    yield "dually-chordal", ts is None and square_chordal, None


def _cmd_recognize(args, out) -> int:
    g = _read_graph(args.file)
    for name, answer, witness in _recognize_lines(g, args.budget):
        line = f"{name}={'yes' if answer else 'no'}"
        if args.witness and witness is not None:
            line += " witness=" + witness()
        out.write(line + "\n")
    return EXIT_OK


def _cmd_hyperbolicity(args, out) -> int:
    g = _read_graph(args.file, HYPERBOLICITY_MAX_VERTICES)
    report = hyperbolicity(g)
    u, v, w, x = report.witness
    out.write(f"delta={report.render()} witness=({u},{v},{w},{x})\n")
    return EXIT_OK


def _cmd_two_sets(args, out) -> int:
    g = _read_graph(args.file)
    for ts in helly.maximal_two_sets(g, args.budget):
        members = " ".join(map(str, ts.members))
        if ts.suspended:
            out.write(f"{members} suspended_by={ts.suspended_by}\n")
        else:
            out.write(f"{members} UNSUSPENDED\n")
    return EXIT_OK


# generate: family -> (the option it needs, its builder, the preamble heading);
# the keys are the argparse choices, and the random families also take --seed
_FAMILIES = {
    "split": ("k", generators.split_family, "# split k={k}"),
    "cocomparability": ("k", generators.cocomparability_family, "# cocomparability k={k}"),
    "crown": ("k", generators.crown_family, "# crown k={k}"),
    "random-chordal": ("n", generators.random_chordal, "# random-chordal n={n} seed={seed}"),
    "random-dh": ("n", generators.random_dh, "# random-dh n={n} seed={seed}"),
    "fixture": ("name", generators.fixture, "# fixture {name}"),
}


def _cmd_generate(args, out) -> int:
    option, build, heading = _FAMILIES[args.family]
    value = getattr(args, option)
    if option == "name" and not value:
        raise _UsageError("generate fixture needs --name")
    if value is None:
        raise _UsageError(f"this family needs --{option}")
    g = build(value, args.seed) if option == "n" else build(value)
    preamble = [heading.format_map(vars(args))]
    if args.family == "cocomparability":
        g, order = g
        preamble.append("# order: " + " ".join(map(str, order)))
    text = "\n".join(preamble) + "\n" + format_edge_list(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _cmd_export_dot(args, out) -> int:
    g = _read_graph(args.file)
    out.write(to_dot(g))
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The argument parser, built once per process; parsing keeps no state in it."""
    parser = _Parser(prog="tightspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, func, with_format=None, budget=None):
        p = sub.add_parser(name)
        p.add_argument("file", help="edge-list file, or - for stdin")
        if budget is not None:
            p.add_argument(
                "--budget", type=_positive_int, default=budget, help="search node budget"
            )
        if with_format:
            p.add_argument("--format", choices=with_format, default=with_format[0])
        p.set_defaults(func=func)
        return p

    graph_command(
        "hull", _cmd_hull, with_format=["summary", "json", "dot"], budget=DEFAULT_MAX_NODES
    )
    graph_command("hellify-dh", _cmd_hellify_dh, with_format=["summary", "edgelist", "json"])
    p = graph_command("recognize", _cmd_recognize, budget=helly.DEFAULT_CLIQUE_NODES)
    p.add_argument("--witness", action="store_true")
    graph_command("hyperbolicity", _cmd_hyperbolicity)
    graph_command("two-sets", _cmd_two_sets, budget=helly.DEFAULT_CLIQUE_NODES)
    graph_command("export-dot", _cmd_export_dot)

    p = sub.add_parser("generate")
    p.add_argument("family", choices=list(_FAMILIES))
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--name", default=None, help="fixture name")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(func=_cmd_generate)
    return parser


def run(argv: Optional[Sequence[str]] = None, out=None) -> int:
    """Entry point returning an exit code; ``out`` defaults to stdout."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (NotDistanceHereditaryError, DisconnectedGraphError) as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
