"""Command-line front end for file-based workflows.

Every command reads the edge-list text format (``-`` for stdin) and writes
deterministic, byte-stable output. Exit codes: 0 success, 1 usage or input
error, 2 search budget exceeded, 3 precondition violation such as a
non-distance-hereditary input to ``hellify-dh``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from . import detectors, generators, helly
from .dh import MAX_VERTICES as DH_MAX_VERTICES, hellify_dh, pruning_sequence
from .errors import (
    BudgetExceededError,
    DisconnectedGraphError,
    NotDistanceHereditaryError,
)
from .graphs import DEFAULT_MAX_VERTICES, Graph, format_edge_list, parse_edge_list, to_dot
from .hulls import DEFAULT_MAX_NODES, build_injective_hull, helly_gap, hull_to_dot, hull_to_json
from .hyperbolicity import hyperbolicity

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_PRECONDITION = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_graph(path: str, max_vertices: int = DEFAULT_MAX_VERTICES) -> Graph:
    if path == "-":
        return parse_edge_list(sys.stdin.read(), max_vertices=max_vertices)
    with open(path) as fh:
        return parse_edge_list(fh.read(), max_vertices=max_vertices)


def _cmd_hull(args, out) -> int:
    g = _read_graph(args.file)
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
            f'  "added": {_json_pairs(result.added)},\n'
            f'  "edges": {_json_pairs(hull.edges())}\n}}\n'
        )
    elif args.format == "edgelist":
        out.write(format_edge_list(hull))
    else:
        ok_v = "yes" if hull.n <= 2 * g.n else "no"
        ok_e = "yes" if hull.m <= 4 * g.m else "no"
        out.write(f"hull_vertices={hull.n} bound_2n={2 * g.n} within={ok_v}\n")
        out.write(f"hull_edges={hull.m} bound_4m={4 * g.m} within={ok_e}\n")
        out.write(f"added={len(result.added)}\n")
    return EXIT_OK


def _json_pairs(pairs) -> str:
    """A list of int pairs as ``json.dumps(..., indent=2)`` lays it out at depth 1."""
    if not pairs:
        return "[]"
    items = ",\n".join(f"    [\n      {a},\n      {b}\n    ]" for a, b in pairs)
    return f"[\n{items}\n  ]"


def _cmd_recognize(args, out) -> int:
    g = _read_graph(args.file)
    witness = args.witness

    chordal = detectors.is_chordal(g)
    line = f"chordal={'yes' if chordal else 'no'}"
    if witness and not chordal:
        cycle = detectors.find_long_induced_cycle(g)
        line += " witness=cycle:" + ",".join(map(str, cycle))
    out.write(line + "\n")

    coloring = detectors.is_bipartite(g)
    line = f"bipartite={'yes' if coloring else 'no'}"
    if witness:
        if coloring:
            side = [v for v in range(g.n) if coloring[v] == 0]
            line += " witness=side:" + ",".join(map(str, side))
        else:
            odd = detectors.find_odd_cycle(g)
            line += " witness=odd-cycle:" + ",".join(map(str, odd))
    out.write(line + "\n")

    split = detectors.is_split(g)
    line = f"split={'yes' if split else 'no'}"
    if witness and split:
        clique, independent = split
        line += " witness=clique:" + ",".join(map(str, clique))
        line += "+independent:" + ",".join(map(str, independent))
    out.write(line + "\n")

    triple = detectors.find_asteroidal_triple(g)
    line = f"at-free={'yes' if triple is None else 'no'}"
    if witness and triple is not None:
        line += " witness=triple:" + ",".join(map(str, triple))
    out.write(line + "\n")

    seq = pruning_sequence(g)
    out.write(f"distance-hereditary={'yes' if seq is not None else 'no'}\n")
    square_chordal = detectors.is_chordal(g.power(2))
    out.write(f"square-chordal={'yes' if square_chordal else 'no'}\n")

    # Helly = pseudo-modular + neighborhood-Helly; dually chordal =
    # neighborhood-Helly + chordal square. The 2-sets are enumerated once, at
    # the first line that needs them, so a budget error cuts the same output.
    violation = helly.find_pseudo_modular_violation(g)
    unsuspended = None
    if violation is None:
        unsuspended = _first_unsuspended(g, args)
    line = f"helly={'yes' if violation is None and unsuspended is None else 'no'}"
    if witness and violation is not None:
        line += " witness=non-pseudo-modular:" + ",".join(map(str, violation))
    elif witness and unsuspended is not None:
        line += " witness=unsuspended:" + ",".join(map(str, unsuspended.members))
    out.write(line + "\n")

    if violation is not None:
        unsuspended = _first_unsuspended(g, args)
    dually = unsuspended is None and square_chordal
    out.write(f"dually-chordal={'yes' if dually else 'no'}\n")
    return EXIT_OK


def _first_unsuspended(g: Graph, args) -> Optional[helly.TwoSet]:
    two_sets = helly.maximal_two_sets(g, args.budget)
    return next((ts for ts in two_sets if not ts.suspended), None)


def _cmd_hyperbolicity(args, out) -> int:
    g = _read_graph(args.file)
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


def _cmd_generate(args, out) -> int:
    family = args.family
    if family == "split":
        g = generators.split_family(_require_k(args))
        preamble = [f"# split k={args.k}"]
    elif family == "cocomparability":
        g, order = generators.cocomparability_family(_require_k(args))
        preamble = [
            f"# cocomparability k={args.k}",
            "# order: " + " ".join(map(str, order)),
        ]
    elif family == "crown":
        g = generators.crown_family(_require_k(args))
        preamble = [f"# crown k={args.k}"]
    elif family == "random-chordal":
        g = generators.random_chordal(_require_n(args), args.seed)
        preamble = [f"# random-chordal n={args.n} seed={args.seed}"]
    elif family == "random-dh":
        g = generators.random_dh(_require_n(args), args.seed)
        preamble = [f"# random-dh n={args.n} seed={args.seed}"]
    elif family == "fixture":
        if not args.name:
            raise _UsageError("generate fixture needs --name")
        g = generators.fixture(args.name)
        preamble = [f"# fixture {args.name}"]
    else:
        raise _UsageError(f"unknown family {family!r}")
    text = "\n".join(preamble) + "\n" + format_edge_list(g)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        out.write(text)
    return EXIT_OK


def _require_k(args) -> int:
    if args.k is None:
        raise _UsageError("this family needs --k")
    return args.k


def _require_n(args) -> int:
    if args.n is None:
        raise _UsageError("this family needs --n")
    return args.n


def _cmd_export_dot(args, out) -> int:
    g = _read_graph(args.file)
    out.write(to_dot(g))
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="tightspan", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def graph_command(name, func, with_format=None, budget=None):
        p = sub.add_parser(name)
        p.add_argument("file", help="edge-list file, or - for stdin")
        if budget is not None:
            p.add_argument("--budget", type=int, default=budget, help="search node budget")
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
    p.add_argument(
        "family",
        choices=["split", "cocomparability", "crown", "random-chordal", "random-dh", "fixture"],
    )
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
