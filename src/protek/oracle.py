"""Brute-force ground truth by exhaustive tree enumeration.

Every rooted ordered tree on n vertices corresponds to its preorder
outdegree word (d_1, ..., d_n), a Lukasiewicz word: the partial sums of
d_i - 1 stay nonnegative before the last step and end at -1.  Allowed
outdegrees are restricted to the support of the weight sequence, so
zero-weight families prune early.

The oracle builds the words right to left, one vertex at a time, by a
depth-first search on a single stack of child protections, and reads the
maximum protection number straight from the definition (a leaf is
0-protected, an inner vertex is one more than its least protected child):
a leaf pushes 0, and a vertex of outdegree d pops the protections of its d
children and pushes one more than their minimum.  Each step is undone on
backtrack, so words that share a suffix share that suffix's stack.  The
root is the last vertex placed and takes the whole stack.  A branch stops
when d exceeds the stack or the vertices left can no longer reduce the
stack to one tree.  The search keeps no memo over states: every tree is
still visited and counted once.

The weight prod_v w_{d(v)} depends only on the outdegree multiset, so
trees are counted in plain ints per class (maximum protection, outdegree
multiset).  Each class is then weighed in ints, over the lcm L of the
weight denominators, and each maximum protection value becomes one
Fraction, its total over L^n.  Nothing here uses the generating-function
machinery, which makes this module an independent oracle for it.

``oracle_check`` compares these weights with ``bounded_count``.  It runs
the sizes largest first, so each level of the series side is solved once.

Sizes are ints from 1 to ENUMERATION_CAP: a bool, a non-int or a size
below 1 raises InvalidArgument, and a size above the cap CapExceeded.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple

from .counting import bounded_count
from .errors import CapExceeded, check_int
from .families import WeightFamily

ENUMERATION_CAP = 13


def _check_size(name: str, n) -> None:
    check_int(name, n, 1)
    if n > ENUMERATION_CAP:
        raise CapExceeded(f"{name} = {n} exceeds the enumeration cap {ENUMERATION_CAP}")


@dataclass(frozen=True)
class OracleDistribution:
    """Total weight of n-vertex trees per maximum protection value."""

    family: str
    n: int
    weights: Dict[int, Fraction]

    def total(self) -> Fraction:
        return sum(self.weights.values(), Fraction(0))

    def cumulative(self, h: int) -> Fraction:
        return sum(
            (w for m, w in self.weights.items() if m <= h), Fraction(0)
        )


def _class_counts(n: int, allowed: Tuple[int, ...]) -> Counter:
    """Number of n-vertex trees with outdegrees in ``allowed`` (ascending)
    per class, visiting every tree.

    A class is keyed by ``code * n + m``: m is the maximum protection, and
    ``code`` holds the count of outdegree ``allowed[i]`` as digit i in radix
    n + 1.  Words are built right to left on one stack of child protections,
    so words that share a suffix share its stack.
    """
    place = {d: n * (n + 1) ** i for i, d in enumerate(allowed)}
    if n == 1:
        return Counter({place[0]: 1})  # one leaf; every family has w0 = 1
    counts: Counter = Counter()
    steps = tuple(place.items())
    shrink = allowed[-1] - 1       # most one vertex can lower the stack size
    stack = [0] * n                # stack[:s]: protections of s pending subtrees

    def place_vertex(r: int, s: int, best: int, code: int) -> None:
        # r >= 2 vertices are left to place; the last of them is the root
        low = s - (r - 1) * shrink  # smaller outdegrees leave too many subtrees
        for d, digit in steps:
            if d > s:
                break
            if d < low:
                continue
            k = s - d
            if d == 0:
                p = 0
            elif d == 1:
                p = stack[k] + 1
            else:
                p = 1 + min(stack[k:s])
            old = stack[k]
            stack[k] = p
            m = p if p > best else best
            if r > 2:
                place_vertex(r - 1, k + 1, m, code + digit)
            elif k + 1 in place:
                # the root, placed last, takes the whole stack
                q = 1 + min(stack[: k + 1])
                counts[code + digit + place[k + 1] + (q if q > m else m)] += 1
            stack[k] = old

    place_vertex(n, 0, 0, 0)
    return counts


def oracle_distribution(f: WeightFamily, n: int) -> OracleDistribution:
    """Aggregate the weight prod_v w_{d(v)} of every n-vertex tree by its
    maximum protection number, skipping zero-weight outdegrees upfront.

    Each class weighs count * prod (L*w_i)^c_i in ints, with L the lcm of
    the weight denominators; its n vertices carry one weight each, so every
    total is divided by L^n once."""
    _check_size("n", n)
    allowed = tuple(j for j in range(n) if f.weight(j) != 0)
    ws = [f.weight(j) for j in allowed]
    L = lcm(*(w.denominator for w in ws))
    scaled = [w.numerator * (L // w.denominator) for w in ws]
    totals: Dict[int, int] = {}
    for key, count in _class_counts(n, allowed).items():
        code, m = divmod(key, n)
        for w in scaled:
            code, c = divmod(code, n + 1)
            if c:
                count *= w**c
        totals[m] = totals.get(m, 0) + count
    weights = {m: Fraction(t, L**n) for m, t in totals.items()}
    return OracleDistribution(family=f.name, n=n, weights=weights)


@dataclass(frozen=True)
class OracleCheckRow:
    n: int
    h: int
    oracle_weight: Fraction
    series_coefficient: Fraction
    ok: bool


@dataclass(frozen=True)
class OracleReport:
    family: str
    nmax: int
    rows: Tuple[OracleCheckRow, ...]
    passed: bool

    def first_failure(self) -> Optional[OracleCheckRow]:
        for row in self.rows:
            if not row.ok:
                return row
        return None


def oracle_check(f: WeightFamily, nmax: int) -> OracleReport:
    """Exact comparison of cumulative oracle weights against the solved
    series coefficients for every n <= nmax and every h <= n - 1.

    Sizes run largest first, so each level is solved once, at nmax, and
    every smaller size reads its coefficient from the stored column."""
    _check_size("nmax", nmax)
    blocks = []
    for n in range(nmax, 0, -1):
        dist = oracle_distribution(f, n)
        block = []
        for h in range(0, n):
            lhs = dist.cumulative(h)
            rhs = bounded_count(f, h, n)
            block.append(OracleCheckRow(n, h, lhs, rhs, lhs == rhs))
        blocks.append(block)
    rows = tuple(row for block in reversed(blocks) for row in block)
    passed = all(row.ok for row in rows)
    return OracleReport(family=f.name, nmax=nmax, rows=rows, passed=passed)
