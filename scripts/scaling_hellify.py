#!/usr/bin/env python3
"""Soft scaling check for distance-hereditary Hellification.

Times the sequence-to-hull core (an O(1)-per-step twin-class pass plus host
construction, linear in the size of the host) on random build sequences,
and reports hull-size growth. The expectation: hull vertex count stays
within a small constant of n, and core time grows subquadratically in n (it
tracks n + m, and m itself grows superlinearly for uniformly random
twin-heavy instances).

The pendant/twin *search* that turns an arbitrary graph back into a sequence
is a separate worklist pass: it re-keys only the neighbours of each removed
vertex, so it does O(n + m) bucket updates, each hashing an n-bit row. Time it
with --with-builder. On random DH graphs (seed 1, 2-vCPU host), eight runs over
the default n = 500..4000 measured time growth exponents of 1.48-1.75, and four
runs over n = 500..8000 measured 1.79-1.94, while m grows as about n^1.35: the
per-update cost grows with n.

Usage: python scripts/scaling_hellify.py [--sizes 1000,3000,10000,30000]
       [--seed 1] [--with-builder]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from spans import loglog_slope  # noqa: E402
from tightspan.dh import hellify_adjacency, pruning_sequence, replay  # noqa: E402
from tightspan.generators import random_pruning_sequence  # noqa: E402


def measure_core(sizes, seed):
    rows = []
    for n in sizes:
        seq = random_pruning_sequence(n, seed)
        start = time.monotonic()
        adj, added, _ = hellify_adjacency(seq)
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
            f"builder time growth exponent ~ {slope:.2f} (1.48-1.75 measured for"
            " n = 500..4000, 1.79-1.94 for n = 500..8000)"
        )


if __name__ == "__main__":
    main()
