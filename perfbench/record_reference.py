#!/usr/bin/env python3
"""Record the exit code and stdout sha256 of every default-seed input.

Usage, from the root of a source checkout: ``python3 perfbench/record_reference.py``.
Writes perfbench/reference.json, which the benchmark's gate compares against
on the default seed. Each output must pass the seed-independent invariants
before it is recorded. Re-record only when a change means to alter output.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    ts = run.fresh_import()
    cli = sys.modules["tightspan.cli"]
    recorded = {}
    for workload in sorted(workloads.BUILDERS):
        inputs, _ = workloads.build_inputs(ts, workload, workloads.DEFAULT_SEED)
        entries = {}
        for inp in inputs:
            code, stdout, _ = run.run_op(cli, inp)
            reason = code if not isinstance(code, int) else workloads.check(inp, code, stdout, None)
            if reason is not None:
                print(f"{workload} {inp.label}: {reason}", file=sys.stderr)
                return 1
            entries[inp.label] = {"exit": code, "sha256": workloads.digest(stdout)}
        recorded[workload] = entries
    doc = {"seed": workloads.DEFAULT_SEED, "workloads": recorded}
    run.REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
