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
  exactly when S_i - S_j > best. The lowest marked lane with x > w is the
  next improving quadruple; its defect is taken exactly and only higher
  lanes are rescanned.
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
through other blocks can come first (a pendant vertex before a C4). When
delta = 0, every quadruple attains it and the witness is (0, 1, 2, 3).

Every phase-1 scan stops at a proven bound on 2*delta, and phase 1 skips the
remaining blocks once one reaches it. The bound is the diameter, since by the
pruning bounds a defect is at most max(d(u,v), d(u,w), d(v,w)). It is 2 when
g is chordal (Brinkmann, Koolen and Moulton, as above: chordal graphs are
1-hyperbolic) or distance-hereditary (Wu and Zhang, "Chordality and
hyperbolicity of a graph", Electron. J. Combin. 18, 2011: a k-chordal graph,
one with no induced cycle longer than k >= 4, is floor(k/2)/2-hyperbolic; DH
graphs have no induced cycle longer than 4). A scan that reaches the bound has
found its maximum, and as it runs in the same order from the same start, it
stops at the least maximizer, so witnesses are as without the stop.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from . import detectors, dh
from .graphs import Graph, _blocks


@dataclass(frozen=True)
class HyperbolicityReport:
    """Doubled hyperbolicity 2*delta and a lexicographically least witness."""

    delta2: int
    witness: tuple[int, int, int, int]

    def render(self) -> str:
        return f"{self.delta2}/2"


def hyperbolicity(g: Graph) -> HyperbolicityReport:
    """Exact hyperbolicity with the least maximizing quadruple as witness."""
    d = g.distances()
    if g.n < 4:
        return HyperbolicityReport(0, (0,) * 4)
    report = HyperbolicityReport(0, (0, 1, 2, 3))
    blocks = [b for b in _blocks(g) if len(b) > 3]
    if not blocks:
        return report
    bound = max(map(max, d))
    if bound > 2 and (detectors.is_chordal(g) or dh.pruning_sequence(g) is not None):
        bound = 2
    if len(blocks[0]) == g.n:  # g is one block: phase 1 is the whole-graph scan
        return _scan(d, 0, bound)
    for block in blocks:
        report = _scan([[d[a][c] for c in block] for a in block], report.delta2, bound)
        if report.delta2 == bound:
            break
    return _scan(d, report.delta2 - 1, report.delta2) if report.delta2 else report


# Array typecodes by item size, each with its width in bits.
_LANE_CODES = [(code, 8 * array(code).itemsize) for code in "BHIQ"]


def _lanes(code: str, values: Iterable[int]) -> int:
    """One int holding values[x] in lane x, each lane one ``code`` item wide."""
    packed = array(code, values)
    if sys.byteorder == "big":
        packed.byteswap()
    return int.from_bytes(packed, "little")


def _scan(
    d: Sequence[Sequence[int]], best: int, stop: Optional[int] = None
) -> HyperbolicityReport:
    """Pruned lane scan of distance rows ``d`` for defects above ``best``,
    returning at the first equal to ``stop``; witness (0, 1, 2, 3) if none."""
    n = len(d)
    diam = max(map(max, d))
    code, width = next((c, w) for c, w in _LANE_CODES if 4 * diam + 1 < 1 << (w - 1))
    ones = _lanes(code, [1] * n)
    guard = ones << (width - 1)
    rows = [_lanes(code, row) for row in d]
    # offset[2*diam + c] puts c on top of the guard bit in every lane: the part
    # of a lane fixed by (u, v, w). A term is read only when its lead, at most
    # diam, beats best, so 0 <= best < diam, and it reads c = e - best - 1 for
    # a distance difference |e| <= diam: c lies in [-2*diam, diam - 1], so the
    # table holds 3*diam offsets.
    offset = [guard + c * ones for c in range(-2 * diam, diam)]
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
                    k = 2 * diam - best - 1
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
    d = g.distances()
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
