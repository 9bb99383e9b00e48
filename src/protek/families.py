"""Simply generated tree families described by their outdegree weights.

A family is fixed by nonnegative weights w_j on vertex outdegrees with
w_0 = 1.  The weight generating function Phi(t) = sum_j w_j t^j is exposed
two ways: exact rational coefficient access for the series machinery, and
high-precision real evaluation of Phi and its derivatives (phi_derivs) and
of Phi - 1 (phim1_eval), via mpmath at the caller's working precision, for
the asymptotic machinery.

Every family but cayley (e^t) has a rational Phi = R + P/Q, held as the
coefficient tuples ``rational = (R, P, Q)`` with Q(0) = 1: plane
((), (1,), (1, -1)) is 1/(1-t), riordan ((0, -1), (1,), (1, -1)) is
1/(1-t) - t, binary aka complete-binary is 1 + t^2, pruned-binary is
(1+t)^2, and every finite weight sequence given to :func:`make_polynomial`
is ((), (w_0, ..., w_J), (1,)).  The weights, both evaluators, the radius
and the cache key all follow from those coefficients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath as mp

from .errors import InvalidArgument, InvalidWeights, UnknownFamily
from .textfmt import fraction_to_mpf

WeightLike = Union[int, str, Fraction]


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """A simply generated family of rooted ordered trees.

    ``weight(j)`` returns the exact weight of outdegree j as a Fraction;
    ``phi_derivs(t, m)`` returns [Phi(t), Phi'(t), ..., Phi^(m)(t)] at the
    real point t as mpmath floats, and ``phim1_eval(t)`` returns Phi(t) - 1
    computed without the cancellation of subtracting 1 from Phi(t) near
    t = 0.  ``rational`` is (R, P, Q) with Phi = R + P/Q when Phi is
    rational, and None for e^t.  Instances are immutable and safe to share
    between threads.
    """

    name: str
    weight: Callable[[int], Fraction]
    phi_derivs: Callable[..., List[mp.mpf]]
    phim1_eval: Callable[[mp.mpf], mp.mpf]
    radius: float                      # math.inf when Phi is entire
    support_hint: frozenset
    cache_key: str
    rational: Optional[Tuple[tuple, tuple, tuple]] = None


class FamilyStructure(NamedTuple):
    w1_zero: bool
    r: int        # smallest index >= 2 with nonzero weight
    D: int        # gcd of all positive indices with nonzero weight


def family_structure(f: WeightFamily) -> FamilyStructure:
    """Structural attributes deciding the limit-law regime and the period.

    The period D is the gcd over the positive support only; w_0 = 1 always
    holds, so gcd conventions for index 0 never enter.  Every size n with
    nonzero total weight y_n satisfies n = 1 (mod D), but not every such n
    has y_n != 0: with w1 = 0 there is no tree of size 2 even when D = 1.
    """
    support = sorted(j for j in f.support_hint if j > 0 and f.weight(j) != 0)
    w1_zero = f.weight(1) == 0
    r = next(j for j in support if j >= 2)
    return FamilyStructure(w1_zero, r, math.gcd(*support))


def _to_fraction(value: WeightLike, index: int) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidWeights(f"weight w{index} is not a rational: {value!r}") from exc


def _exact(c: Fraction):
    """c as an int when integral, which mpmath takes exactly, else c
    rounded to the working precision."""
    return c.numerator if c.denominator == 1 else fraction_to_mpf(c)


def _rational_family(R, P, Q, name: str) -> WeightFamily:
    """The family with Phi = R + P/Q.

    R and P are rational coefficient sequences; Q is (1,) or (1, q) with
    q < 0, so the radius is -1/q.  The weights follow by series division.
    For the evaluators P = A*Q + c with A a polynomial and c a constant, so
    Phi^(k)(t) sums a_j*j!/(j-k)!*t^(j-k) over the terms of R + A, in
    increasing j, and adds c*k!*(-q)^k/Q(t)^(k+1).  Phi - 1 is M/Q with
    the exact numerator M = P + Q*(R - 1), whose constant term is 0, so
    it has no cancellation.
    """
    R, P = (tuple(map(Fraction, c)) for c in (R, P))
    while len(P) > 1 and not P[-1]:
        P = P[:-1]
    q = Q[1] if len(Q) > 1 else 0
    radius = -1 / q if q else math.inf

    head = []                          # [t^j] P/Q for j < len(P)
    for p in P:
        head.append(p - q * head[-1] if head else p)

    def weight(j: int) -> Fraction:
        g = head[j] if j < len(head) else head[-1] * (-q) ** (j - len(head) + 1)
        return g + R[j] if j < len(R) else g

    # c = P(-1/q), and R + A holds the weights less those of c/Q
    c = sum(p * Fraction(-1, q) ** j for j, p in enumerate(P)) if q else 0
    poly = [(j, a) for j in range(max(len(R), len(P)))
            if (a := weight(j) - c * (-q) ** j)]

    def terms(k: int):
        """(t-exponent, coefficient) pairs and the pole numerator of Phi^(k)."""
        poly_k = [(j - k, a * math.perm(j, k)) for j, a in poly if j >= k]
        return poly_k, c * math.factorial(k) * (-q) ** k

    low_terms = [terms(k) for k in range(3)]

    def q_at(t):
        u = 1 + q * t
        if not u > 0:
            raise InvalidArgument(f"{name}: Phi is only defined for t < {radius}")
        return u

    def phi_derivs(t, m: int = 0) -> List[mp.mpf]:
        t = mp.mpf(t)
        u = q_at(t) if q else None
        out = []
        for k in range(m + 1):
            poly_k, pole_k = low_terms[k] if k < 3 else terms(k)
            total = mp.mpf(0)
            for e, a in poly_k:
                total += _exact(a) * t ** e
            if pole_k:
                total += _exact(pole_k) / u ** (k + 1)
            out.append(total)
        return out

    # m_J .. m_1 of M = Q*(Phi - 1) = P + Q*(R - 1); m_0 = 0
    horner = [sum(qi * weight(j - i) for i, qi in enumerate(Q[:j]))
              for j in range(max(len(P), len(Q) + len(R)) - 1, 0, -1)]

    def phim1_eval(t):
        t = mp.mpf(t)
        total = mp.mpf(0)
        for a in horner:
            total = total * t + _exact(a)
        return total * t / q_at(t) if q else total * t

    return WeightFamily(
        name=name,
        weight=weight,
        phi_derivs=phi_derivs,
        phim1_eval=phim1_eval,
        radius=radius,
        support_hint=frozenset(
            j for j in range(max(len(R), len(P), len(Q)) + 2) if weight(j)
        ),
        cache_key="rational:" + ";".join(",".join(map(str, s)) for s in (R, P, Q)),
        rational=(R, P, Q),
    )


def _cayley_family() -> WeightFamily:
    def weight(j: int) -> Fraction:
        return Fraction(1, math.factorial(j))

    def phi_derivs(t, m: int = 0) -> List[mp.mpf]:
        return [mp.exp(t)] * (m + 1)

    return WeightFamily(
        name="cayley",
        weight=weight,
        phi_derivs=phi_derivs,
        phim1_eval=mp.expm1,
        radius=math.inf,
        support_hint=frozenset({0, 1, 2, 3}),
        cache_key="cayley",
    )


_BUILTIN_BUILDERS = {
    "plane": lambda: _rational_family((), (1,), (1, -1), "plane"),
    "binary": lambda: _rational_family((), (1, 0, 1), (1,), "binary"),
    "pruned-binary": lambda: _rational_family((), (1, 2, 1), (1,), "pruned-binary"),
    "cayley": _cayley_family,
    # 1/(1-t) - t: every outdegree allowed except exactly one child.
    "riordan": lambda: _rational_family((0, -1), (1,), (1, -1), "riordan"),
}

# complete-binary is the same family as binary (Phi = 1 + t^2); both names
# are accepted and share every stored result (see _STORE).
_ALIASES = {"complete-binary": "binary"}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_BUILDERS) + sorted(_ALIASES))


def make_builtin(name: str) -> WeightFamily:
    """Return a builtin family by name (see :data:`BUILTIN_NAMES`)."""
    canonical = _ALIASES.get(name, name)
    if canonical not in _BUILTIN_BUILDERS:
        raise UnknownFamily(
            f"unknown family {name!r}; builtins are: {', '.join(BUILTIN_NAMES)}"
        )
    fam = _BUILTIN_BUILDERS[canonical]()
    return fam if name == canonical else replace(fam, name=name)


def make_polynomial(
    weights: Sequence[WeightLike], name: Optional[str] = None
) -> WeightFamily:
    """Family with a finite weight sequence (w_0, w_1, ..., w_J).

    Raises InvalidWeights naming the violated invariant: w_0 must be 1,
    all weights must be nonnegative, and some index >= 2 must carry a
    positive weight (otherwise only paths would exist).
    """
    ws = [_to_fraction(w, j) for j, w in enumerate(weights)]
    if not ws or ws[0] != 1:
        raise InvalidWeights("w0 must be 1 (leaves carry unit weight)")
    for j, w in enumerate(ws):
        if w < 0:
            raise InvalidWeights(f"weights must be nonnegative, got w{j} = {w}")
    if not any(w > 0 for w in ws[2:]):
        raise InvalidWeights("need w_j > 0 for some j >= 2, otherwise only paths exist")
    display = name if name is not None else "weights(" + ",".join(str(w) for w in ws) + ")"
    return _rational_family((), ws, (1,), display)


# Every finished result: a scaled coefficient column under
# (cache_key, "Y") or (cache_key, "Y0", h), a FamilyConstants under
# (cache_key, "constants", precision_bits), and the outcome of a rho_h
# solve under (cache_key, "rho_h", h, precision_bits).  Never evicted
# (README, "Library").
_STORE: dict = {}


def _stored(f: WeightFamily, key: tuple, order: Optional[int] = None):
    """_STORE[(f.cache_key, *key)], or None when it is missing or, given
    ``order``, when the stored column stops below that order."""
    hit = _STORE.get((f.cache_key, *key))
    if hit is None or (order is not None and len(hit) <= order):
        return None
    return hit


def _memo(f: WeightFamily, key: tuple, compute: Callable, order: Optional[int] = None):
    """_stored(f, key, order), first set to compute() when that is None."""
    hit = _stored(f, key, order)
    if hit is None:
        hit = _STORE[(f.cache_key, *key)] = compute()
    return hit
