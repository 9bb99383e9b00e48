"""Brute-force ground truth by exhaustive tree enumeration.

Every rooted ordered tree on n vertices corresponds to its preorder
outdegree word (d_1, ..., d_n), a Lukasiewicz word: the partial sums of
d_i - 1 stay nonnegative before the last step and end at -1.  Words are
generated in lexicographic order with allowed outdegrees restricted to
the support of the weight sequence, so zero-weight families prune early.

The maximum protection number of each word is computed straight from the
definition (a leaf is 0-protected, an inner vertex is one more than its
least protected child): reading the word right to left, a leaf pushes 0
and a vertex of outdegree d pops the protections of its d children and
pushes one more than their minimum.  The weight prod_v w_{d(v)} depends
only on the outdegree multiset, so words are counted in plain ints per
class (maximum protection, sorted outdegrees) and each class costs one
Fraction product at the end.  Nothing here uses the generating-function
machinery, which makes this module an independent oracle for it.

``OrderedTree``, ``enumerate_trees`` and ``max_protection`` give the same
definition on explicit trees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from .counting import bounded_count
from .errors import CapExceeded, InvalidArgument
from .families import WeightFamily

ENUMERATION_CAP = 12


class OrderedTree:
    """Rooted tree with an ordered tuple of subtrees."""

    __slots__ = ("children",)

    def __init__(self, children: Iterable["OrderedTree"] = ()):
        self.children = tuple(children)

    def size(self) -> int:
        return 1 + sum(c.size() for c in self.children)

    def outdegrees(self) -> Iterator[int]:
        yield len(self.children)
        for c in self.children:
            yield from c.outdegrees()

    def __repr__(self) -> str:
        return f"OrderedTree(size={self.size()})"


def _tree_from_word(word: Tuple[int, ...]) -> OrderedTree:
    pos = 0

    def build() -> OrderedTree:
        nonlocal pos
        d = word[pos]
        pos += 1
        return OrderedTree(tuple(build() for _ in range(d)))

    return build()


def _words(n: int, allowed: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    word: List[int] = []

    def rec(i: int, s: int) -> Iterator[Tuple[int, ...]]:
        # i vertices placed so far, s = sum of (d_j - 1)
        remaining = n - i
        for d in allowed:
            ns = s + d - 1
            if remaining == 1:
                if ns == -1:
                    word.append(d)
                    yield tuple(word)
                    word.pop()
                continue
            # keep the walk nonnegative and low enough to finish at -1
            if ns < 0 or ns > remaining - 2:
                continue
            word.append(d)
            yield from rec(i + 1, ns)
            word.pop()

    return rec(0, 0)


def enumerate_trees(
    n: int, allowed_degrees: Optional[Iterable[int]] = None
) -> Iterator[OrderedTree]:
    """All ordered rooted trees on n vertices with outdegrees in the
    allowed set, each exactly once, in lexicographic word order."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise CapExceeded(f"n = {n} outside the enumeration range 1..{ENUMERATION_CAP}")
    if allowed_degrees is None:
        allowed = tuple(range(n))
    else:
        allowed = tuple(sorted(set(allowed_degrees)))
    for word in _words(n, allowed):
        yield _tree_from_word(word)


def max_protection(tree: OrderedTree) -> int:
    """Largest protection number among the vertices of the tree."""
    best = 0

    def protection(v: OrderedTree) -> int:
        nonlocal best
        if not v.children:
            return 0
        p = 1 + min(protection(c) for c in v.children)
        if p > best:
            best = p
        return p

    protection(tree)
    return best


def _word_protection(word: Tuple[int, ...]) -> int:
    """Maximum protection number of the tree with preorder outdegrees
    ``word``, by one right-to-left pass with a stack of child protections."""
    stack: List[int] = []
    best = 0
    for d in reversed(word):
        if d == 0:
            stack.append(0)
            continue
        p = 1 + min(stack[-d:])
        del stack[-d:]
        stack.append(p)
        if p > best:
            best = p
    return best


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


def oracle_distribution(f: WeightFamily, n: int) -> OracleDistribution:
    """Aggregate the weight prod_v w_{d(v)} of every n-vertex tree by its
    maximum protection number, skipping zero-weight outdegrees upfront."""
    if not 1 <= n <= ENUMERATION_CAP:
        raise CapExceeded(f"n = {n} outside the enumeration range 1..{ENUMERATION_CAP}")
    allowed = tuple(j for j in range(n) if f.weight(j) != 0)
    wcache = {j: f.weight(j) for j in allowed}
    counts = Counter(
        (_word_protection(word), tuple(sorted(word))) for word in _words(n, allowed)
    )
    weights: Dict[int, Fraction] = {}
    for (m, degrees), count in counts.items():
        weight = Fraction(count)
        for d in degrees:
            weight *= wcache[d]
        weights[m] = weights.get(m, Fraction(0)) + weight
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
    series coefficients for every n <= nmax and every h <= n - 1."""
    if nmax < 1:
        raise InvalidArgument(f"nmax must be >= 1, got {nmax}")
    if nmax > ENUMERATION_CAP:
        raise CapExceeded(f"nmax = {nmax} exceeds the enumeration cap {ENUMERATION_CAP}")
    rows = []
    all_ok = True
    for n in range(1, nmax + 1):
        dist = oracle_distribution(f, n)
        for h in range(0, n):
            lhs = dist.cumulative(h)
            rhs = bounded_count(f, h, n)
            ok = lhs == rhs
            all_ok = all_ok and ok
            rows.append(OracleCheckRow(n, h, lhs, rhs, ok))
    return OracleReport(family=f.name, nmax=nmax, rows=tuple(rows), passed=all_ok)
