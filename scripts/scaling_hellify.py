#!/usr/bin/env python3
"""Soft scaling check for distance-hereditary Hellification.

Times the sequence-to-hull core (poset plus host construction, linear in the
size of the host) on random build sequences, and reports hull-size growth.
The expectation: hull vertex count stays within a small constant of n, and
core time grows subquadratically in n (it tracks n + m, and m itself grows
superlinearly for uniformly random twin-heavy instances).

The pendant/twin *search* that turns an arbitrary graph back into a sequence
is a separate worklist pass: it re-keys only the neighbours of each removed
vertex, so it does O(n + m) bucket updates, each on an n-bit row. Time it with
--with-builder; on random DH graphs (n = 250..4000, seed 1) its time grows as
about n^1.5, while m grows as about n^1.35.

Usage: python scripts/scaling_hellify.py [--sizes 1000,3000,10000,30000]
       [--seed 1] [--with-builder]
"""

import argparse
import math
import time

from tightspan.dh import hellify_adjacency, pruning_sequence, replay
from tightspan.generators import random_pruning_sequence


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


def loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x); 0.0 without two distinct x."""
    if len(set(xs)) < 2:
        return 0.0
    lx = [math.log(x) for x in xs]
    ly = [math.log(max(y, 1e-9)) for y in ys]
    mx = sum(lx) / len(lx)
    my = sum(ly) / len(ly)
    num = sum((a - mx) * (b - my) for a, b in zip(lx, ly))
    den = sum((a - mx) ** 2 for a in lx)
    return num / den


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
    size_slope = loglog_slope([r[0] for r in rows], [r[1] for r in rows])
    time_slope = loglog_slope([r[0] for r in rows], [r[4] for r in rows])
    print(f"hull-size growth exponent ~ {size_slope:.2f} (near-linear expected)")
    print(f"core time growth exponent ~ {time_slope:.2f} (subquadratic expected)")

    if args.with_builder:
        print()
        print("worklist pendant/twin sequence builder")
        print(f"{'n':>8} {'m':>10} {'time_s':>8}")
        brows = measure_builder([int(s) for s in args.builder_sizes.split(",")], args.seed)
        for n, m, elapsed in brows:
            print(f"{n:>8} {m:>10} {elapsed:>8.3f}")
        slope = loglog_slope([r[0] for r in brows], [r[2] for r in brows])
        print(f"builder time growth exponent ~ {slope:.2f} (about 1.5 expected)")


if __name__ == "__main__":
    main()
