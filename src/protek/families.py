"""Simply generated tree families described by their outdegree weights.

A family is fixed by nonnegative weights w_j on vertex outdegrees with
w_0 = 1.  The weight generating function Phi(t) = sum_j w_j t^j is exposed
two ways: exact rational coefficient access for the series machinery, and
high-precision real evaluation of Phi, its derivatives and Phi - 1 (via
mpmath, honouring the caller's working precision) for the asymptotic
machinery.

Builtin families: plane (1/(1-t)), binary aka complete-binary (1+t^2),
pruned-binary ((1+t)^2), cayley (e^t) and riordan (1/(1-t) - t).
Arbitrary finite weight sequences are supported through
:func:`make_polynomial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import mpmath as mp

from .errors import InvalidWeights, UnknownFamily
from .textfmt import fraction_to_mpf

WeightLike = Union[int, str, Fraction]

# phi_form values drive the fast composition path in the counting module.
GEOMETRIC = "geometric"              # Phi(t) = 1/(1-t)
EXPONENTIAL = "exponential"          # Phi(t) = e^t
GEOMETRIC_MINUS_T = "geometric-minus-t"  # Phi(t) = 1/(1-t) - t
POLYNOMIAL = "polynomial"


@dataclass(frozen=True, eq=False)
class WeightFamily:
    """A simply generated family of rooted ordered trees.

    ``weight(j)`` returns the exact weight of outdegree j as a Fraction;
    ``phi_eval(t, m)`` returns the m-th derivative of Phi at the real
    point t as an mpmath float, and ``phim1_eval(t)`` returns Phi(t) - 1
    computed without the cancellation of subtracting 1 from Phi(t) near
    t = 0.  Instances are immutable and safe to share between threads.
    """

    name: str
    weight: Callable[[int], Fraction]
    phi_eval: Callable[..., mp.mpf]
    phim1_eval: Callable[[mp.mpf], mp.mpf]
    radius: float                      # math.inf when Phi is entire
    support_hint: frozenset
    phi_form: str
    cache_key: str
    poly_weights: Optional[Tuple[Fraction, ...]] = None


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
    d = 0
    for j in support:
        d = math.gcd(d, j)
    return FamilyStructure(w1_zero, r, d)


def _to_fraction(value: WeightLike, index: int) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise InvalidWeights(f"weight w{index} is not a rational: {value!r}") from exc


def _polynomial_phi_eval(weights: Tuple[Fraction, ...]):
    def phi_eval(t, m: int = 0):
        t = mp.mpf(t)
        total = mp.mpf(0)
        for j, w in enumerate(weights):
            if w == 0 or j < m:
                continue
            falling = 1
            for i in range(m):
                falling *= j - i
            total += fraction_to_mpf(w * falling) * t ** (j - m)
        return total

    return phi_eval


def _polynomial_phim1_eval(weights: Tuple[Fraction, ...]):
    # Horner over w_1 .. w_J, then one factor t: no term of size 1 appears
    tail = tuple(reversed(weights[1:]))

    def phim1_eval(t):
        t = mp.mpf(t)
        total = mp.mpf(0)
        for w in tail:
            total = total * t + fraction_to_mpf(w)
        return total * t

    return phim1_eval


def _polynomial_family(
    weights: Sequence[Fraction], name: str, cache_key: str
) -> WeightFamily:
    ws = tuple(weights)
    while len(ws) > 1 and ws[-1] == 0:
        ws = ws[:-1]

    def weight(j: int) -> Fraction:
        return ws[j] if 0 <= j < len(ws) else Fraction(0)

    return WeightFamily(
        name=name,
        weight=weight,
        phi_eval=_polynomial_phi_eval(ws),
        phim1_eval=_polynomial_phim1_eval(ws),
        radius=math.inf,
        support_hint=frozenset(j for j, w in enumerate(ws) if w != 0),
        phi_form=POLYNOMIAL,
        cache_key=cache_key,
        poly_weights=ws,
    )


def _plane_family() -> WeightFamily:
    one = Fraction(1)

    def weight(j: int) -> Fraction:
        return one

    def phi_eval(t, m: int = 0):
        t = mp.mpf(t)
        if not t < 1:
            raise ValueError("plane family: Phi is only defined for t < 1")
        return mp.factorial(m) / (1 - t) ** (m + 1)

    def phim1_eval(t):
        t = mp.mpf(t)
        return t / (1 - t)

    return WeightFamily(
        name="plane",
        weight=weight,
        phi_eval=phi_eval,
        phim1_eval=phim1_eval,
        radius=1.0,
        support_hint=frozenset({0, 1, 2, 3}),
        phi_form=GEOMETRIC,
        cache_key="plane",
    )


def _cayley_family() -> WeightFamily:
    def weight(j: int) -> Fraction:
        return Fraction(1, math.factorial(j))

    def phi_eval(t, m: int = 0):
        return mp.exp(t)

    return WeightFamily(
        name="cayley",
        weight=weight,
        phi_eval=phi_eval,
        phim1_eval=mp.expm1,
        radius=math.inf,
        support_hint=frozenset({0, 1, 2, 3}),
        phi_form=EXPONENTIAL,
        cache_key="cayley",
    )


def _riordan_family() -> WeightFamily:
    # 1/(1-t) - t: every outdegree allowed except exactly one child.
    def weight(j: int) -> Fraction:
        return Fraction(0) if j == 1 else Fraction(1)

    def phi_eval(t, m: int = 0):
        t = mp.mpf(t)
        if not t < 1:
            raise ValueError("riordan family: Phi is only defined for t < 1")
        if m == 0:
            return 1 / (1 - t) - t
        if m == 1:
            return 1 / (1 - t) ** 2 - 1
        return mp.factorial(m) / (1 - t) ** (m + 1)

    def phim1_eval(t):
        t = mp.mpf(t)
        return t * t / (1 - t)

    return WeightFamily(
        name="riordan",
        weight=weight,
        phi_eval=phi_eval,
        phim1_eval=phim1_eval,
        radius=1.0,
        support_hint=frozenset({0, 2, 3, 4}),
        phi_form=GEOMETRIC_MINUS_T,
        cache_key="riordan",
    )


_BUILTIN_BUILDERS = {
    "plane": _plane_family,
    "binary": lambda: _polynomial_family(
        (Fraction(1), Fraction(0), Fraction(1)), "binary", "binary"
    ),
    "pruned-binary": lambda: _polynomial_family(
        (Fraction(1), Fraction(2), Fraction(1)), "pruned-binary", "pruned-binary"
    ),
    "cayley": _cayley_family,
    "riordan": _riordan_family,
}

# complete-binary is the same family as binary (Phi = 1 + t^2); both names
# are accepted and share all cached computations.
_ALIASES = {"complete-binary": "binary"}

BUILTIN_NAMES = tuple(sorted(_BUILTIN_BUILDERS) + sorted(_ALIASES))

_BUILTIN_CACHE: dict = {}


def make_builtin(name: str) -> WeightFamily:
    """Return a builtin family by name (see :data:`BUILTIN_NAMES`)."""
    if name in _BUILTIN_CACHE:
        return _BUILTIN_CACHE[name]
    canonical = _ALIASES.get(name, name)
    if canonical not in _BUILTIN_BUILDERS:
        raise UnknownFamily(
            f"unknown family {name!r}; builtins are: {', '.join(BUILTIN_NAMES)}"
        )
    fam = _BUILTIN_BUILDERS[canonical]()
    if name != canonical:
        fam = replace(fam, name=name)
    _BUILTIN_CACHE[name] = fam
    return fam


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
    key = "poly:" + ",".join(str(w) for w in ws)
    display = name if name is not None else "weights(" + ",".join(str(w) for w in ws) + ")"
    return _polynomial_family(ws, display, key)
