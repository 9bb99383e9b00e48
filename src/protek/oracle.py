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
root is the last vertex placed and takes the whole stack, so a suffix of
k vertices with s pending subtrees ends one tree of k + 1 vertices when
s is an allowed outdegree: one search serves every size up to nmax.
Beside the stack the search keeps its prefix minima, so a root reads its
protection in O(1).  A branch stops when d exceeds the stack or the
vertices left can no longer reduce the stack to one tree.  The search
keeps no memo over states: every tree is still visited and counted once.

The search is split into parts, at most one per CPU of the process's
affinity mask, which :func:`protek._split._fork_map` runs in forked
children; the tree count says how many forks the work is worth.  The
suffixes of max(nmax - 4, 0) vertices are dealt to the parts in search
order, and a part descends only into its own; the trees of shorter
suffixes count in part 0 alone.  So each tree is visited in exactly one
part, and the counts, summed in the parent, are those of one search.

The weight prod_v w_{d(v)} depends only on the outdegree multiset, so
trees are counted in plain ints per class (maximum protection, outdegree
multiset).  Each class is then weighed in ints, over the lcm L of the
weight denominators, and each maximum protection value becomes one
Fraction, its total over L^n.  Nothing here uses the generating-function
machinery, which makes this module an independent oracle for it.

``oracle_check`` compares these weights with ``bounded_count``, for
every size from one search.  It first stores every level at the largest
size, as ``cdf_exact`` does, so it checks the same windowed solves and
linear tail columns that the CDF and the expectation read.

Sizes are ints from 1 to ENUMERATION_CAP: a bool, a non-int or a size
below 1 raises InvalidArgument, and a size above the cap CapExceeded.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import lcm
from typing import Dict, List, Optional, Tuple

from .counting import _prefetch_y0, bounded_count
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


def _tree_counts(nmax: int, allowed: Tuple[int, ...]) -> List[int]:
    """Number of n-vertex trees with outdegrees in ``allowed`` (ascending),
    for n = 1..nmax, by the same right-to-left steps as the search:
    ``states[s]`` counts the suffixes with s pending subtrees."""
    states = {0: 1}
    trees = []
    for _ in range(nmax):
        trees.append(sum(c for s, c in states.items() if s in allowed))
        after: Dict[int, int] = {}
        for s, c in states.items():
            for d in allowed:
                if d > s:
                    break
                after[s - d + 1] = after.get(s - d + 1, 0) + c
        states = after
    return trees


def _enumeration_work(nmax: int, allowed: Tuple[int, ...]) -> int:
    """Estimated cost of enumerating every tree of at most nmax vertices, in
    units of about 100 ns, as _SPLIT_WORK_FLOOR counts them.  On a 2-CPU
    x86-64 machine (Python 3.11) the search took about 0.5 us per tree of
    plane or cayley, whose every inner state ends trees, and up to 0.9 us
    per tree of a sparse support such as 0, 2, 3, where more states end
    none."""
    return 6 * sum(_tree_counts(nmax, allowed))


def _part_counts(nmax: int, allowed: Tuple[int, ...], part: int, parts: int) -> dict:
    """{n: {class key: count}} for every n <= nmax, over the trees with
    outdegrees in ``allowed`` (ascending) that fall to ``part`` of ``parts``.

    A class is keyed by ``code + m``: m is the maximum protection, and
    ``code`` holds the count of outdegree ``allowed[i]`` as digit i of
    ``code // nmax`` in radix nmax + 1.  Words are built right to left on
    one stack of child protections, so words that share a suffix share its
    stack, and every suffix with s pending subtrees ends one tree, its root
    of outdegree s, when s is allowed: one search serves every size.

    ``least[i]`` is the least of ``stack[:i]`` (nmax for i = 0), kept with
    the stack, so a root reads its protection in O(1).  The suffixes of
    max(nmax - 4, 0) vertices are dealt to the parts in search order, as
    0, 1, ..., parts - 1, parts - 1, ..., 0 and again, since neighbouring
    suffixes tend to lead to as many trees.  A part descends only into its
    own, and the trees of the shorter suffixes, which every part visits,
    count in part 0 alone.  So every tree is counted in exactly one part.
    """
    place = {d: nmax * (nmax + 1) ** i for i, d in enumerate(allowed)}
    counts = {n: defaultdict(int) for n in range(1, nmax + 1)}
    if part == 0:
        counts[1][place[0]] = 1  # one leaf; every family has w0 = 1
    steps = tuple(place.items())
    shrink = allowed[-1] - 1       # most one vertex can lower the stack size
    stack = [0] * nmax             # stack[:s]: protections of s pending subtrees
    least = [nmax] * (nmax + 1)
    cut = max(nmax - 4, 0)
    deal = cycle((*range(parts), *reversed(range(parts))))

    def place_vertex(j: int, s: int, best: int, code: int) -> None:
        # j vertices are placed; place vertex j + 1, which is not the root
        if j == cut and next(deal) != part:
            return
        roots = place if part == 0 or j >= cut else {}
        sized = counts[j + 2]
        if j + 3 > nmax:
            # the last vertex before the root: read the root without
            # writing the stack
            for d, digit in steps:
                if d > s:
                    break
                k = s - d
                root = roots.get(k + 1)
                if root is None:
                    continue
                if d == 0:
                    p = 0
                elif d == 1:
                    p = stack[k] + 1
                else:
                    p = 1 + min(stack[k:s])
                a = least[k]
                q = 1 + (p if p < a else a)
                m = p if p > best else best
                sized[code + digit + root + (q if q > m else m)] += 1
            return
        low = s - (nmax - j - 1) * shrink  # smaller outdegrees leave too many subtrees
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
            m = p if p > best else best
            a = least[k]
            if p < a:
                a = p
            root = roots.get(k + 1)
            if root is not None:
                sized[code + digit + root + (a + 1 if a >= m else m)] += 1
            old = stack[k]
            below = least[k + 1]
            stack[k] = p
            least[k + 1] = a
            place_vertex(j + 1, k + 1, m, code + digit)
            stack[k] = old
            least[k + 1] = below

    if nmax > 1:
        place_vertex(0, 0, 0, 0)
    return {n: dict(c) for n, c in counts.items()}  # marshal sends plain dicts only


def _class_counts(n: int, allowed: Tuple[int, ...]) -> dict:
    """Number of n-vertex trees with outdegrees in ``allowed`` (ascending)
    per class (see _part_counts), in one part."""
    return _part_counts(n, allowed, 0, 1)[n]


def _tree_classes(nmax: int, allowed: Tuple[int, ...]) -> Dict[int, Counter]:
    """{n: Counter of class keys} for every n <= nmax (see _part_counts).

    The search is split into parts, run by :func:`protek._split._fork_map`,
    and the parent adds them up: one part per CPU of the process's
    affinity mask, but one more part only per _SPLIT_WORK_FLOOR of work by
    :func:`_enumeration_work`, since each part past the first costs a fork.
    Below the floor it is one part in the calling process."""
    from ._split import _SPLIT_WORK_FLOOR, _cpus, _fork_map

    work = _enumeration_work(nmax, allowed)
    parts = min(_cpus(), 1 + work // max(_SPLIT_WORK_FLOOR, 1))
    counted = _fork_map(  # costs rounded up, so the parts reach the floor too
        lambda part: _part_counts(nmax, allowed, part, parts),
        dict.fromkeys(range(parts), -(-work // parts)),
    )
    classes = {n: Counter() for n in range(1, nmax + 1)}
    for counts in counted.values():
        for n, sized in counts.items():
            classes[n].update(sized)
    return classes


def _distributions(f: WeightFamily, nmax: int) -> Dict[int, OracleDistribution]:
    """The OracleDistribution of every size n <= nmax, from one search.

    Each class weighs count * prod (L*w_i)^c_i in ints, with L the lcm of
    the weight denominators; its n vertices carry one weight each, so every
    total is divided by L^n once."""
    allowed = tuple(j for j in range(nmax) if f.weight(j) != 0)
    ws = [f.weight(j) for j in allowed]
    L = lcm(*(w.denominator for w in ws))
    scaled = [w.numerator * (L // w.denominator) for w in ws]
    dists = {}
    for n, classes in _tree_classes(nmax, allowed).items():
        totals: Dict[int, int] = {}
        for key, weight in classes.items():
            code, m = divmod(key, nmax)
            for w in scaled:
                code, c = divmod(code, nmax + 1)
                if c:
                    weight *= w**c
            totals[m] = totals.get(m, 0) + weight
        weights = {m: Fraction(t, L**n) for m, t in sorted(totals.items())}
        dists[n] = OracleDistribution(family=f.name, n=n, weights=weights)
    return dists


def oracle_distribution(f: WeightFamily, n: int) -> OracleDistribution:
    """Aggregate the weight prod_v w_{d(v)} of every n-vertex tree by its
    maximum protection number, skipping zero-weight outdegrees upfront."""
    _check_size("n", n)
    return _distributions(f, n)[n]


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

    Every level is solved once, at nmax, by :func:`_prefetch_y0`, and
    every size reads its coefficient from the stored column."""
    _check_size("nmax", nmax)
    dists = _distributions(f, nmax)
    _prefetch_y0(f, range(1, nmax - 1), nmax)
    rows = []
    for n in range(1, nmax + 1):
        for h in range(n):
            lhs, rhs = dists[n].cumulative(h), bounded_count(f, h, n)
            rows.append(OracleCheckRow(n, h, lhs, rhs, lhs == rhs))
    passed = all(row.ok for row in rows)
    return OracleReport(family=f.name, nmax=nmax, rows=tuple(rows), passed=passed)
