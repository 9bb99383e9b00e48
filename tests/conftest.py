import os
from fractions import Fraction
from typing import Iterable, Iterator, List, Optional, Tuple

import pytest
from hypothesis import strategies as st

from protek import _split, families, make_builtin
from protek.errors import check_int
from protek.oracle import _check_size


def catalan(n: int) -> int:
    """Independent Catalan oracle via the convolution recurrence."""
    cs = [1]
    for m in range(n):
        cs.append(sum(cs[i] * cs[m - i] for i in range(m + 1)))
    return cs[n]


@st.composite
def weight_vectors(draw):
    """w0 = 1, w1 = 0 or not, and one to four more weights, some nonzero."""
    weight = st.fractions(min_value=0, max_value=3, max_denominator=4)
    w1 = draw(st.one_of(st.just(Fraction(0)), weight.filter(bool)))
    tail = draw(st.lists(weight, min_size=1, max_size=4).filter(any))
    return [Fraction(1), w1, *tail]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def split_on(monkeypatch, cpus):
    """Split every prefetch among ``cpus`` shares; returns the list that
    records the items of each forked child."""
    forked = []
    fork_worker = _split._fork_worker

    def recording(fn, items):
        forked.append(list(items))
        return fork_worker(fn, items)

    monkeypatch.setattr(families, "_STORE", {})
    monkeypatch.setattr(_split, "_SPLIT_WORK_FLOOR", 0)
    monkeypatch.setattr(_split, "_cpus", lambda: cpus)
    monkeypatch.setattr(_split, "_fork_worker", recording)
    return forked


# Definition-level reference for the oracle: explicit trees, built from
# their preorder outdegree words, and the maximum protection number read
# from them one vertex at a time.


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
    allowed set, each exactly once, in lexicographic word order.

    The arguments are checked at the call; the trees are built lazily."""
    _check_size("n", n)
    if allowed_degrees is None:
        allowed = tuple(range(n))
    else:
        degrees = set(allowed_degrees)
        for d in degrees:
            check_int("an outdegree", d, 0)
        allowed = tuple(sorted(degrees))
    return map(_tree_from_word, _words(n, allowed))


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


def per_tree_distribution(f, n):
    """One Fraction product per explicit tree, classified by max_protection."""
    allowed = [j for j in range(n) if f.weight(j) != 0]
    out = {}
    for t in enumerate_trees(n, allowed):
        weight = Fraction(1)
        for d in t.outdegrees():
            weight *= f.weight(d)
        m = max_protection(t)
        out[m] = out.get(m, Fraction(0)) + weight
    return out


def leaf() -> OrderedTree:
    return OrderedTree()


def path_tree(n: int) -> OrderedTree:
    t = leaf()
    for _ in range(n - 1):
        t = OrderedTree([t])
    return t


def complete_binary_tree(depth: int) -> OrderedTree:
    if depth == 0:
        return leaf()
    child = complete_binary_tree(depth - 1)
    return OrderedTree([child, complete_binary_tree(depth - 1)])


def tree_height(t: OrderedTree) -> int:
    if not t.children:
        return 0
    return 1 + max(tree_height(c) for c in t.children)


@pytest.fixture(scope="session")
def plane():
    return make_builtin("plane")


@pytest.fixture(scope="session")
def cayley():
    return make_builtin("cayley")


@pytest.fixture(scope="session")
def riordan():
    return make_builtin("riordan")


@pytest.fixture(scope="session")
def complete_binary():
    return make_builtin("complete-binary")


@pytest.fixture(scope="session")
def pruned_binary():
    return make_builtin("pruned-binary")
