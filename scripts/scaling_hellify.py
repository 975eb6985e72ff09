#!/usr/bin/env python3
"""Soft scaling check for distance-hereditary Hellification.

Times the sequence-to-hull core (one pass over the sequence that updates
the twin classes in O(1) per step and writes the host's neighbour lists as
it goes, linear in the size of the host) on random build sequences, and
reports hull-size growth. The expectation: hull vertex count stays
within a small constant of n, and core time grows subquadratically in n (it
tracks n + m, and m itself grows superlinearly for uniformly random
twin-heavy instances).

The pendant/twin *search* that turns an arbitrary graph back into a sequence
is a separate worklist pass: a removed twin becomes a ghost of its anchor in
every other key, so a removal re-keys only the anchor (at most four bucket
updates), but each update and each pop still works on n-bit masks. Time it
with --with-builder. On random DH graphs (seed 1, 2-vCPU host), eight runs over
the default n = 500..4000 measured time growth exponents of 1.53-1.64, and four
runs over n = 500..8000 measured 1.55-1.66, while m grows as about n^1.35: the
per-update cost grows with n. The former builder, which re-keyed every
neighbour, measured 1.48-1.75 and 1.66-1.94 and was about 4x slower at
n = 8000 (1.7-1.8 s against 0.41-0.47 s): the constant fell, not the exponent.

Usage: python scripts/scaling_hellify.py [--sizes 1000,3000,10000,30000]
       [--seed 1] [--with-builder]
"""

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from spans import loglog_slope  # noqa: E402
from tightspan.dh import hellify_adjacency, pruning_sequence, replay  # noqa: E402
from tightspan.generators import random_pruning_sequence  # noqa: E402


def measure_core(sizes, seed):
    rows = []
    for n in sizes:
        seq = random_pruning_sequence(n, seed)
        start = time.monotonic()
        adj, added = hellify_adjacency(seq)
        elapsed = time.monotonic() - start
        hull_n = len(adj)
        hull_m = sum(len(a) for a in adj) // 2
        rows.append((n, hull_n, hull_m, len(added), elapsed))
    return rows


def measure_builder(sizes, seed):
    rows = []
    for n in sizes:
        g = replay(random_pruning_sequence(n, seed))
        start = time.monotonic()
        seq = pruning_sequence(g)
        elapsed = time.monotonic() - start
        assert seq is not None
        rows.append((n, g.m, elapsed))
    return rows


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", default="1000,3000,10000,30000")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--with-builder", action="store_true")
    parser.add_argument("--builder-sizes", default="500,1000,2000,4000")
    args = parser.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]

    print("sequence-to-hull core")
    print(f"{'n':>8} {'hull_n':>8} {'hull_m':>10} {'added':>7} {'time_s':>8} {'hull_n/n':>9}")
    rows = measure_core(sizes, args.seed)
    for n, hull_n, hull_m, added, elapsed in rows:
        print(f"{n:>8} {hull_n:>8} {hull_m:>10} {added:>7} {elapsed:>8.3f} {hull_n / n:>9.3f}")
    size_slope = loglog_slope([(r[0], r[1]) for r in rows])
    time_slope = loglog_slope([(r[0], r[4]) for r in rows])
    print(f"hull-size growth exponent ~ {size_slope:.2f} (near-linear expected)")
    print(f"core time growth exponent ~ {time_slope:.2f} (subquadratic expected)")

    if args.with_builder:
        print()
        print("worklist pendant/twin sequence builder")
        print(f"{'n':>8} {'m':>10} {'time_s':>8}")
        brows = measure_builder([int(s) for s in args.builder_sizes.split(",")], args.seed)
        for n, m, elapsed in brows:
            print(f"{n:>8} {m:>10} {elapsed:>8.3f}")
        slope = loglog_slope([(r[0], r[2]) for r in brows])
        print(
            f"builder time growth exponent ~ {slope:.2f} (1.53-1.64 measured for"
            " n = 500..4000, 1.55-1.66 for n = 500..8000; about 4x below the"
            " former neighbour re-keying builder, same exponent)"
        )


if __name__ == "__main__":
    main()
