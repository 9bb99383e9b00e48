"""Exact counting of trees by maximum protection number.

Solves the size-marking fixed point Y = x*Phi(Y) and, for each bound h,
the joint system

    Y_{h,0} = Y_{h,1} + x
    Y_{h,k} = x*(Phi(Y_{h,k-1}) - Phi(Y_{h,h}))     for 1 <= k <= h

whose k = 0 member generates the trees in which no vertex is more than
h-protected.  The exact CDF is the coefficient quotient
P(X_n <= h) = [x^n] Y_{h,0} / [x^n] Y, and the exact expectation is
the tail sum of that CDF, sum_h (1 - P(X_n <= h)).  No float code lives
here: how many rows are worth printing beside the limit laws is decided
by :func:`protek.asymptotics.default_hmax`.

The solver propagates coefficients order by order: the x-factor in every
equation makes the coefficient of x^n depend only on coefficients of
order < n, so a single forward pass yields the joint fixed point that
repeated full sweeps converge to.  Composition with Phi is streamed by
one of two recurrences, one for every rational Phi = R + P/Q and one for
e^t, keeping one solve at O(h * N^2) coefficient operations.

Two windows cut that work, and a split of the levels cuts its wall time,
without changing a coefficient:

* Upper window.  Counting needs only Y_{h,0}.  Column k feeds column
  k + 1 one order later, and column h feeds column 1, so for Y_{h,0}
  through order N column k >= 2 matters only through order
  N - 1 - h + k.  Such solves stop each column there; columns 0 and 1
  run through N, so the stored Y_{h,0} serves every n <= N.
  :func:`solve_protection_system` keeps every column full, because
  :meth:`ProtectionSeriesSet.residuals` checks all of them.
* Lower window.  When S has valuation v, every composer starts its
  convolution at index v, and S^j, which has valuation j*v, starts at
  j*v.  Column k >= 1 has valuation at least k + 1, and in the
  double-exponential regime far more.
* Level split.  The levels h of one CDF share nothing but Y, so
  :func:`cdf_exact` first solves the levels missing from the store with
  :func:`protek._split._fork_map`, which runs them on every CPU of the
  process's affinity mask, and stores every Y_{h,0} column before it
  reads a row.  The map stays in the calling process when os.fork is
  missing, when one CPU is available (``taskset -c 0``), when another
  thread is alive, or when the missing levels are too little work to pay
  for a fork.

All solver arithmetic is on plain integers: the coefficient of x^n is
held as s_n * [x^n], with s_n = L^n for a rational Phi = R + P/Q whose
R and P have denominator lcm L (L = 1 for plane and riordan), and
s_n = n! for e^t.  The public results are Fractions, formed once at the
output; the CDF and the expectation divide two counts of the same size,
so the scale cancels.  They can be re-checked against the generic Horner
composition of the series module through
:meth:`ProtectionSeriesSet.residuals`.

The scaled columns of Y and of each Y_{h,0} are kept in the one results
store of the families module; a stored column serves every order below
its length, and a longer request replaces it.

Sizes n >= 1, orders >= 1, levels h >= 0 (h >= 1 for the full system) and
hmax >= 0 are checked by :func:`errors.check_int`: a bool, a non-int or a
value below its bound raises InvalidArgument.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import add, mul
from typing import Iterable, List, NamedTuple, Optional, Tuple

from .errors import PeriodMismatch, check_int
from .families import WeightFamily, _memo, _stored, family_structure
from .series import TruncatedSeries, compose_phi


# ---------------------------------------------------------------------------
# streamed composition Phi(S) for a growing argument series S
# ---------------------------------------------------------------------------


def _valuation(arg: list, v: int, m: int) -> int:
    """First index >= v of a nonzero entry among arg[v..m], else m + 1.

    Either way no nonzero entry of ``arg`` sits below the result, so a
    composer may start its convolution there.  Entries are never changed
    once written, so each composer resumes its scan where it stopped.
    """
    while v <= m and not arg[v]:
        v += 1
    return v


class _RationalComposer:
    """Phi = R + P/Q with Q(0) = 1:  outputs R(S) + G with G = P(S)/Q(S).

    The coefficients arrive as integers: L*R, L*P and Q, with L the lcm of
    the denominators of R and P.  Q*G = P(S) with q_0 = 1 gives
    G = P(S) - sum_{j >= 1} q_j S^j G, so

        g_m = [x^m] P(S) - sum_{j >= 1} q_j sum_{i >= j*v} [x^i] S^j g_(m-i),

    which reads g_0 .. g_(m-1) only (v >= 1).  Every term is a product of
    integers and no step divides, so every g_m and every output is an
    integer.  The powers S^2, S^3, ... are kept alongside S; S^p has
    valuation p*v, so the coefficient of x^m in S^(p+1) = S * S^p sums
    s_i [x^(m-i)] S^p over v <= i <= m - p*v.
    """

    __slots__ = ("arg", "r", "p", "negq", "powers", "g", "out", "v")

    def __init__(self, r: list, p: list, q: tuple, arg: list):
        self.arg = arg
        degree = max(len(r), len(p), len(q), 2) - 1
        # powers[0] aliases the argument itself (S^1); higher powers own lists.
        self.powers = powers = [arg] + [[0] for _ in range(degree - 1)]
        # (S^j, coefficient) of the nonzero terms with j >= 1, and j for Q
        self.r = [(powers[j - 1], c) for j, c in enumerate(r) if j and c]
        self.p = [(powers[j - 1], c) for j, c in enumerate(p) if j and c]
        self.negq = [(powers[j - 1], j, -c) for j, c in enumerate(q) if j and c]
        self.g = [p[0]]
        self.out = [r[0] + p[0]] if any(r) else self.g  # G itself when R = 0
        self.v = 1

    def coeff(self, m: int):
        arg, powers, g, out = self.arg, self.powers, self.g, self.out
        while len(g) <= m:
            mm = len(g)
            v = self.v = _valuation(arg, self.v, mm)
            # extend each power to index mm in ascending degree
            for k in range(1, len(powers)):
                prev = powers[k - 1]  # S^k, valuation k*v
                hi = mm - k * v  # last i with a nonzero term
                powers[k].append(
                    sum(map(mul, arg[v : hi + 1], prev[mm - v : k * v - 1 : -1]))
                    if hi >= v else 0
                )
            total = 0
            for power, c in self.p:
                total += c * power[mm]
            for power, j, c in self.negq:
                # S^j has valuation j*v; an empty sum while j*v > mm
                jv = j * v
                total += c * sum(map(mul, power[jv : mm + 1], g[mm - jv :: -1]))
            g.append(total)
            if out is not g:
                for power, c in self.r:
                    total += c * power[mm]
                out.append(total)
        return out[m]


class _ExpComposer:
    """Phi(t) = e^t on factorial-scaled coefficients S_j = j!*s_j.

    G' = S'G gives G_m = m!*g_m = sum_j C(m-1, j-1)*S_j*G_{m-j}, and
    coeff(m) = (m+1)!*[x^(m+1)] x*G = (m+1)*G_m.  The sum starts at the
    valuation v of S.
    """

    __slots__ = ("arg", "out", "binom", "v")

    def __init__(self, arg: list):
        self.arg = arg
        self.out = [1]
        self.binom = [1]  # C(m-1, j-1) for j = 1..m, at m = len(out)
        self.v = 1

    def coeff(self, m: int):
        out, arg = self.out, self.arg
        while len(out) <= m:
            mm = len(out)
            binom = self.binom
            v = self.v = _valuation(arg, self.v, mm)
            terms = map(mul, binom[v - 1 :], arg[v : mm + 1])  # empty while v > mm
            out.append(sum(map(mul, terms, out[mm - v :: -1])))
            self.binom = [1, *map(add, binom, binom[1:]), 1]
        return (m + 1) * out[m]


def _scale(f: WeightFamily, n: int) -> int:
    """s_n: the solver holds s_n * [x^n] of every series as an int.

    s_n = L^n for a rational Phi = R + P/Q, with L the lcm of the
    denominators of R and P, and s_n = n! for e^t.
    """
    if f.rational is None:
        return factorial(n)
    R, P, _ = f.rational
    return lcm(*(c.denominator for c in R + P)) ** n


def _make_composer(f: WeightFamily, arg: list):
    """Streams s_(m+1) * [x^(m+1)] x*Phi(S) from the scaled coefficients of S.

    With s_n = L^n that is [x^m] of L*Phi at the scaled argument, so the
    rational composer runs on L*R, L*P and Q.
    """
    if f.rational is None:
        return _ExpComposer(arg)
    R, P, Q = f.rational
    L = _scale(f, 1)
    return _RationalComposer([int(L * c) for c in R], [int(L * c) for c in P], Q, arg)


# ---------------------------------------------------------------------------
# solvers
# ---------------------------------------------------------------------------


def _y_coefficients(f: WeightFamily, order: int) -> list:
    """Scaled coefficient list of Y through at least ``order`` (read-only)."""

    def solve() -> list:
        ys = [0]
        comp = _make_composer(f, ys)
        for n in range(1, order + 1):
            ys.append(comp.coeff(n - 1))
        return ys

    return _memo(f, ("Y",), solve, order)


def _windows(h: int, order: int, y0_only: bool) -> List[int]:
    """Last order through which each column Y_{h,k} of a solve runs."""
    return [order - 1 - h + k if y0_only and k >= 2 else order for k in range(h + 1)]


def _y0_work(h: int, order: int) -> int:
    """Estimated cost of the windowed Y_{h,0} solve through ``order``: the
    sum of the squared column lengths, each composer's convolution work."""
    return sum(last * last for last in _windows(h, order, True))


def _solve_system_raw(
    f: WeightFamily, h: int, order: int, y0_only: bool = False
) -> List[list]:
    """Scaled coefficient lists for Y_{h,0}..Y_{h,h} through ``order``.

    With ``y0_only`` only columns 0 and 1 run through ``order``; column
    k >= 2 stops at ``order - 1 - h + k``, the last coefficient that still
    reaches Y_{h,0} at ``order``.
    """
    unit = _scale(f, 1)
    ys = [[0] for _ in range(h + 1)]
    comps = [_make_composer(f, ys[k]) for k in range(h + 1)]
    last = _windows(h, order, y0_only)
    for n in range(1, order + 1):
        m = n - 1
        top = comps[h].coeff(m)
        # a composer reads its argument only through index m, so column k
        # may take its order-n coefficient before column k + 1 is formed
        for k in range(1, h + 1):
            if n <= last[k]:
                ys[k].append(comps[k - 1].coeff(m) - top)
        ys[0].append(ys[1][n] + (unit if n == 1 else 0))
    return ys


def _y0_coefficients(f: WeightFamily, h: int, order: int) -> list:
    return _memo(
        f, ("Y0", h), lambda: _solve_system_raw(f, h, order, y0_only=True)[0], order
    )


def _prefetch_y0(f: WeightFamily, hs: Iterable[int], order: int) -> None:
    """Store Y_{h,0} through ``order`` for every level h in ``hs`` that the
    store lacks, solved on every CPU of the process (see _fork_map)."""
    from ._split import _fork_map

    work = {h: _y0_work(h, order) for h in hs if _stored(f, ("Y0", h), order) is None}
    columns = _fork_map(lambda h: _solve_system_raw(f, h, order, y0_only=True)[0], work)
    for h, column in columns.items():
        _memo(f, ("Y0", h), lambda column=column: column, order)


def _protection_bound(f: WeightFamily, n: int) -> int:
    """Largest protection number a tree of size n can have.

    A p-protected vertex has at least s children, s the smallest positive
    outdegree of nonzero weight, each of them (p-1)-protected, so its
    subtree has at least m_p vertices: m_0 = 1, m_p = s*m_(p-1) + 1.
    """
    structure = family_structure(f)
    s = structure.r if structure.w1_zero else 1
    p, m = 0, 1
    while s * m + 1 <= n:
        p, m = p + 1, s * m + 1
    return p


def solve_Y(f: WeightFamily, order: int) -> TruncatedSeries:
    """The unique power-series solution of Y = x*Phi(Y), Y(0) = 0.

    Plane trees at order 5 give the Catalan numbers 0, 1, 1, 2, 5, 14.
    """
    check_int("order", order, 1)
    return _unscaled(f, _y_coefficients(f, order)[: order + 1])


def _unscaled(f: WeightFamily, scaled: list) -> TruncatedSeries:
    return TruncatedSeries(Fraction(c, _scale(f, n)) for n, c in enumerate(scaled))


@dataclass(frozen=True)
class ProtectionSeriesSet:
    """Joint solution Y_{h,0}..Y_{h,h} of the bounded-protection system."""

    family: WeightFamily
    h: int
    order: int
    series: Tuple[TruncatedSeries, ...]

    @property
    def y0(self) -> TruncatedSeries:
        return self.series[0]

    def residuals(self) -> List[TruncatedSeries]:
        """Substitute the solution back into the defining equations.

        Uses the generic Horner composition from the series module, a
        fully independent route from the streamed solver; every returned
        series must be identically zero.
        """
        x = TruncatedSeries.x(self.order)
        phi = self.family.weight
        out = [self.series[0] - (self.series[1] + x)]
        phi_top = compose_phi(phi, self.series[self.h])
        for k in range(1, self.h + 1):
            rhs = x * (compose_phi(phi, self.series[k - 1]) - phi_top)
            out.append(self.series[k] - rhs)
        return out


def solve_protection_system(f: WeightFamily, h: int, order: int) -> ProtectionSeriesSet:
    """Solve the bounded-protection system through ``order`` for fixed h >= 1."""
    check_int("h", h, 1)
    check_int("order", order, 1)
    ys = _solve_system_raw(f, h, order)
    return ProtectionSeriesSet(
        family=f,
        h=h,
        order=order,
        series=tuple(_unscaled(f, col) for col in ys),
    )


def bounded_count(f: WeightFamily, h: int, n: int) -> Fraction:
    """Total weight of n-vertex trees whose maximum protection number is <= h.

    h = 0 admits only the single-vertex tree; h >= n-1 admits every tree
    of size n, so the value coincides with [x^n] Y there.
    """
    check_int("n", n, 1)
    check_int("h", h, 0)
    if h >= n - 1:
        count = _y_coefficients(f, n)[n]
    else:
        count = _y0_coefficients(f, h, n)[n] if h else 0
    return Fraction(count, _scale(f, n))


class CdfRow(NamedTuple):
    h: int
    p_exact: Fraction


@dataclass(frozen=True)
class CdfTable:
    """Exact distribution P(X_n <= h) for one family and one size n."""

    family: str
    n: int
    rows: Tuple[CdfRow, ...]

    def __iter__(self):
        return iter(self.rows)

    def probability(self, h: int) -> Fraction:
        for row in self.rows:
            if row.h == h:
                return row.p_exact
        raise KeyError(f"no row for h = {h}")


def cdf_exact(f: WeightFamily, n: int, hmax: Optional[int] = None) -> CdfTable:
    """Exact CDF rows (h, y_{h,n}/y_n) for h = 0 .. min(hmax, n-1); hmax
    defaults to :func:`_protection_bound`, beyond which every row is 1."""
    check_int("n", n, 1)
    yn = Fraction(_y_coefficients(f, n)[n], _scale(f, n))
    if yn == 0:
        raise PeriodMismatch(f"{f.name}: no trees of size {n} exist (y_{n} = 0)")
    if hmax is None:
        hmax = _protection_bound(f, n)
    else:
        check_int("hmax", hmax, 0)
    _prefetch_y0(f, range(1, min(hmax, n - 2) + 1), n)
    rows = tuple(
        CdfRow(h, bounded_count(f, h, n) / yn) for h in range(min(hmax, n - 1) + 1)
    )
    return CdfTable(family=f.name, n=n, rows=rows)


def expectation_exact(f: WeightFamily, n: int) -> Fraction:
    """Exact expectation of the maximum protection number at size n.

    The tail sum E = sum_{h >= 0} (1 - P(X_n <= h)) of the default
    :func:`cdf_exact` rows; every later row is 1 and adds nothing.
    """
    return sum(1 - row.p_exact for row in cdf_exact(f, n))
