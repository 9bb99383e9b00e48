import os
from fractions import Fraction

import pytest
from hypothesis import strategies as st

from protek import OrderedTree, _split, families, make_builtin


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
