#!/usr/bin/env python3
"""One sha256 over a fixed list of in-process ``tightspan.cli.run`` calls.

Two checkouts that print the same digest gave every call the same exit code,
stdout and stderr, so a refactor that claims "same bytes" can be checked by
running this script in the parent checkout and in the change. The calls are:

* every command and format on the seed-1 and seed-2 inputs of its benchmark
  workload, built by ``perfbench.workloads.build_inputs`` (files under
  ``perfbench/`` are only read);
* ``hull --budget k`` for k in 1, 5, 50, 500 and 5000 on the same hull inputs;
* every graph command, format and generator on the named fixtures, and every
  graph command on a few malformed or disconnected texts.

Each call hashes its argv, input label, exit code, stdout and stderr. The
script imports the tightspan package from the ``src/`` next to it, so a copy
dropped into another checkout digests that checkout. A full run takes about
25 s on one core of a 2-vCPU x86-64 host.

Usage: python scripts/same_bytes.py
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import tightspan  # noqa: E402
import workloads  # noqa: E402
from tightspan.cli import run  # noqa: E402

SEEDS = (1, 2)
BUDGETS = (1, 5, 50, 500, 5000)
FIXTURES = ("house", "domino", "gem", "permutation", "K1", "K2", "P5", "C4", "C5", "W5")
MALFORMED = {
    "empty": "",
    "bad-header": "3\n0 1\n",
    "short": "3 2\n0 1\n",
    "bad-token": "2 1\n0 x\n",
    "plus-sign": "2 1\n0 +1\n",
    "out-of-range": "2 1\n0 2\n",
    "self-loop": "2 1\n0 0\n",
    "disconnected": "4 2\n0 1\n2 3\n",
}

# command argv after "-", by workload; the formats of each command
COMMANDS = {
    "recognize": [["recognize"], ["recognize", "--witness"]],
    "hull": [["hull", "--format", f] for f in ("summary", "json", "dot")],
    "hellify": [["hellify-dh", "--format", f] for f in ("summary", "edgelist", "json")],
    "hyperbolicity": [["hyperbolicity"]],
}
OTHER = [["two-sets"], ["export-dot"]]
GENERATE = [
    ["generate", "split", "--k", "2"],
    ["generate", "cocomparability", "--k", "2"],
    ["generate", "crown", "--k", "3"],
    ["generate", "random-chordal", "--n", "20", "--seed", "1"],
    ["generate", "random-dh", "--n", "20", "--seed", "1"],
    ["generate", "split"],
    ["generate", "fixture"],
] + [["generate", "fixture", "--name", name] for name in FIXTURES + ("nope",)]


def calls() -> list:
    """The fixed call list: ``(argv, input label, stdin text)`` triples."""
    out = []
    for workload, commands in COMMANDS.items():
        for seed in SEEDS:
            inputs, _ = workloads.build_inputs(tightspan, workload, seed)
            for inp in inputs:
                label = f"{workload}:{seed}:{inp.label}"
                for command in commands:
                    out.append(([command[0], "-", *command[1:]], label, inp.text))
                if workload == "hull":
                    for k in BUDGETS:
                        out.append((["hull", "-", "--budget", str(k)], label, inp.text))
    texts = {
        f"fixture:{name}": tightspan.graphs.format_edge_list(tightspan.fixture(name))
        for name in FIXTURES
    }
    texts.update((f"malformed:{name}", text) for name, text in MALFORMED.items())
    graph_commands = [c for commands in COMMANDS.values() for c in commands] + OTHER
    for label, text in texts.items():
        for command in graph_commands:
            out.append(([command[0], "-", *command[1:]], label, text))
    out.extend((argv, "generate", "") for argv in GENERATE)
    return out


def digest(call_list) -> str:
    """``<calls> calls sha256=<hex>`` over every call's argv, label, exit code and output."""
    h = hashlib.sha256()
    for argv, label, text in call_list:
        stdout, stderr = io.StringIO(), io.StringIO()
        saved = sys.stdin
        sys.stdin = io.StringIO(text)
        try:
            with contextlib.redirect_stderr(stderr):
                code = run(argv, stdout)
        finally:
            sys.stdin = saved
        record = [argv, label, code, stdout.getvalue(), stderr.getvalue()]
        h.update(json.dumps(record).encode() + b"\n")
    return f"{len(call_list)} calls sha256={h.hexdigest()}"


def main():
    print(digest(calls()))


if __name__ == "__main__":
    main()
