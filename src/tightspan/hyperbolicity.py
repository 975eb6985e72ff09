"""Exact Gromov hyperbolicity via the four-point condition.

Values are half-integers, held internally as doubled integers (2*delta) so
all arithmetic stays integral; render with :meth:`HyperbolicityReport.render`.

The scan visits quadruples u < v < w < x in lexicographic order and keeps the
first one whose defect strictly beats the best so far, so the witness is the
lexicographically least maximizer. Two things make it fast while keeping
that order:

* The x loop runs on packed distance rows: each row is one int with a
  ``width``-bit lane per vertex (SWAR). For fixed (u, v, w) the three
  distance sums A = d(u,v)+d(w,x), B = d(u,x)+d(v,w), C = d(u,w)+d(v,x) are
  compared in every lane at once. A lane holds 2^(width-1) + S_i - S_j - b
  for b = best+1, which lies in [0, 2^width) because 4*diam+1 < 2^(width-1),
  so subtraction never borrows across lanes and the lane's top bit is set
  exactly when S_i - S_j > best. The lowest marked lane with x > w is the next
  improving quadruple; its defect is taken exactly and only higher lanes are
  rescanned.
* Pruning by distance bounds (Cohen, Coudert and Lancin, "On computing the
  Gromov hyperbolicity", ACM JEA 2015). The doubled defect is at most
  2*d(u,v), so a pair (u,v) with 2*d(u,v) <= best is skipped. By the triangle
  inequality, sum A can beat both others by at most d(u,v) - |d(u,w)-d(v,w)|,
  and likewise for B and C, so a sum whose bound is <= best is never
  evaluated, and a triple (u,v,w) with all three bounds <= best is skipped.
  These bounds imply the published ones: nothing beats best when
  2*min(d(u,v), d(u,w), d(v,w)) <= best or max(d(u,v), d(u,w), d(v,w)) <= best.

The pruned subtrees hold no quadruple with a defect above best, so the
result and witness equal those of the plain O(n^4) sweep from the same best.

A graph's hyperbolicity is the maximum over its blocks (Brinkmann, Koolen
and Moulton, "On the hyperbolicity of chordal graphs", Ann. Comb. 2001), and
blocks are isometric. So phase 1 takes 2*delta as the maximum of the scans of
the blocks of more than 3 vertices, each on g's rows restricted to it and
started from the best so far; smaller blocks have delta = 0. Phase 2 scans
all of g from best = 2*delta - 1 and returns at its first improvement: since
pruning skips only quadruples with a defect of at most 2*delta - 1, that is
the least maximizer. A block's own witness would not do, as a quadruple
through other blocks can come first (a pendant vertex before a C4). When g is
one block, phase 1 was the whole-graph scan from 0; when delta = 0, every
quadruple attains it and the witness is (0, 1, 2, 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .graphs import Graph, _blocks


@dataclass(frozen=True)
class HyperbolicityReport:
    """Doubled hyperbolicity 2*delta and a lexicographically least witness."""

    delta2: int
    witness: tuple[int, int, int, int]

    def render(self) -> str:
        return f"{self.delta2}/2"

    @property
    def delta(self) -> float:
        return self.delta2 / 2


def hyperbolicity(g: Graph) -> HyperbolicityReport:
    """Exact hyperbolicity with the least maximizing quadruple as witness."""
    d = g.distances().rows
    if g.n < 4:
        return HyperbolicityReport(0, (0,) * 4)
    report = HyperbolicityReport(0, (0, 1, 2, 3))
    for block in (b for b in _blocks(g) if len(b) > 3):
        report = _scan([[d[a][c] for c in block] for a in block], report.delta2)
        if len(block) == g.n:  # g is one block: this was the whole-graph scan
            return report
    return _scan(d, report.delta2 - 1, report.delta2) if report.delta2 else report


def _scan(
    d: Sequence[Sequence[int]], best: int, stop: Optional[int] = None
) -> HyperbolicityReport:
    """Pruned lane scan of distance rows ``d`` for defects above ``best``,
    returning at the first equal to ``stop``; witness (0, 1, 2, 3) if none."""
    n = len(d)
    span = 4 * max(map(max, d)) + 1
    width = span.bit_length() + 1
    ones = sum(1 << (width * x) for x in range(n))
    guard = ones << (width - 1)
    rows = [sum(dist << (width * x) for x, dist in enumerate(row)) for row in d]
    # offset[span + c] puts c on top of the guard bit in every lane.
    offset = [guard + c * ones for c in range(-span, span + 1)]
    # above[x]: the guard bits of lanes x+1 .. n-1.
    above = [guard >> (width * (x + 1)) << (width * (x + 1)) for x in range(n)]
    witness = (0, 1, 2, 3)
    for u in range(n - 3):
        du, ru = d[u], rows[u]
        for v in range(u + 1, n - 2):
            duv = du[v]
            if 2 * duv <= best:
                continue
            dv, rv = d[v], rows[v]
            s = ru - rv  # lanes d(u,x) - d(v,x), that is B - C less a constant
            for w in range(v + 1, n - 1):
                duw, dvw = du[w], dv[w]
                lead_a = duv - abs(duw - dvw)
                lead_b = dvw - abs(duv - duw)
                lead_c = duw - abs(duv - dvw)
                if lead_a <= best and lead_b <= best and lead_c <= best:
                    continue
                rw = rows[w]
                p = rw - ru  # A - B less a constant
                q = rw - rv  # A - C less a constant
                lo = w
                while True:
                    k = span - best - 1
                    marks = 0
                    if lead_a > best:
                        marks = (p + offset[k + duv - dvw]) & (q + offset[k + duv - duw])
                    if lead_b > best:
                        marks |= (offset[k + dvw - duv] - p) & (s + offset[k + dvw - duw])
                    if lead_c > best:
                        marks |= (offset[k + duw - duv] - q) & (offset[k + duw - dvw] - s)
                    marks &= above[lo]
                    if not marks:
                        break
                    x = (marks & -marks).bit_length() // width - 1
                    sums = sorted((duv + d[w][x], du[x] + dvw, duw + dv[x]))
                    best = sums[2] - sums[1]
                    witness = (u, v, w, x)
                    if best == stop:
                        return HyperbolicityReport(best, witness)
                    lo = x
    return HyperbolicityReport(best, witness)


def find_alpha1_violation(g: Graph):
    """First (x, y, z, v) with zy an edge, z in I(x,y), y in I(z,v), yet
    d(x,v) < d(x,y) + d(y,v) - 1. None when the metric is alpha_1."""
    d = g.distances().rows
    n = g.n
    for x in range(n):
        for y in range(n):
            dxy = d[x][y]
            for z in g.neighbors(y):
                if d[x][z] + 1 != dxy:
                    continue
                for v in range(n):
                    if d[z][v] == 1 + d[y][v] and d[x][v] < dxy + d[y][v] - 1:
                        return (x, y, z, v)
    return None


def is_alpha1_metric(g: Graph) -> bool:
    return find_alpha1_violation(g) is None
