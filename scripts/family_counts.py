#!/usr/bin/env python3
"""Desk-scale reproduction of the exponential-hull family counts.

For each family and k, prints the number of maximal 2-sets (always 2^k), how
many are unsuspended (at least 2^k - 2k - 2), the exact injective hull size
(``-`` once the search exceeds its node budget), and a bound column whose
meaning depends on the family:

* split and cocomparability: 2^k + 4k - 2, which is n plus the floor
  2^k - 2k - 2 on unsuspended maximal 2-sets. It is a lower bound on the
  hull size, since no hull vertex suspends two maximal 2-sets.
* crown: 2^k - 2, a lower bound on the new (Helly) vertices only. Compare
  it with hull_n - n: the crown's hull has 2k + 2^k vertices, 2^k of them
  new.

Usage: python scripts/family_counts.py [--max-k 5]
"""

import argparse

from tightspan import (
    BudgetExceededError,
    build_injective_hull,
    cocomparability_family,
    crown_family,
    maximal_two_sets,
    split_family,
)

FAMILIES = [
    ("split", 2, split_family, lambda g: 2 ** (g.n // 6) + 2 * g.n // 3 - 2),
    ("cocomparability", 2, lambda k: cocomparability_family(k)[0],
     lambda g: 2 ** (g.n // 6) + 2 * g.n // 3 - 2),
    ("crown", 3, crown_family, lambda g: 2 ** (g.n // 2) - 2),
]


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-k", type=int, default=5)
    args = parser.parse_args()

    header = f"{'family':>16} {'k':>3} {'n':>4} {'2-sets':>7} {'unsusp':>7} {'hull_n':>7} {'bound':>6}"
    print(header)
    for name, min_k, build, bound in FAMILIES:
        for k in range(min_k, args.max_k + 1):
            g = build(k)
            sets = maximal_two_sets(g)
            unsuspended = sum(1 for s in sets if not s.suspended)
            try:
                hull_n = str(build_injective_hull(g).hull.n)
            except BudgetExceededError:
                hull_n = "-"
            print(
                f"{name:>16} {k:>3} {g.n:>4} {len(sets):>7} {unsuspended:>7}"
                f" {hull_n:>7} {bound(g):>6}"
            )


if __name__ == "__main__":
    main()
