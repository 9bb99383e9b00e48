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

Three windows cut that work, and a split of the levels cuts its wall
time, without changing a coefficient:

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
* Linear tail.  Y_{h,k} falls short of the h-independent series
  P_k = x*(Phi(P_{k-1}) - 1), P_0 = Y, by a difference D of valuation at
  least h + 2.  Once 2h + 3 > N the terms x*D^2 vanish through order N,
  so those levels solve a linear system whose pieces they all share:
  :func:`_tail_y0` reads every one of them from one pass over
  P_1, P_2, ... with a few products per level, instead of h + 1
  composers each.  Single reads through :func:`bounded_count`, which the
  oracle check uses, keep the windowed solve.
* Level split.  The levels h of one CDF below the linear tail share
  nothing but Y, so :func:`cdf_exact` first solves the levels missing
  from the store with
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
from itertools import zip_longest
from operator import add, mul, sub
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

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

    def __init__(self, r: list, p: list, q: list, arg: list):
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


# Rows C(m, 0..m) of Pascal's triangle for the e^t kernel: every
# _ExpComposer step and every binomial product of the linear tail reads
# them.  A longer table replaces the list as a whole and no row changes
# once made, so a thread never reads a row out of place.
_PASCAL = [[1]]


def _pascal(m: int) -> list:
    """Row m of Pascal's triangle, C(m, 0) .. C(m, m) (read-only)."""
    global _PASCAL
    rows = _PASCAL
    if len(rows) <= m:
        rows = rows.copy()
        while len(rows) <= m:
            row = rows[-1]
            rows.append([1, *map(add, row, row[1:]), 1])
        _PASCAL = rows
    return rows[m]


class _ExpComposer:
    """Phi(t) = e^t on factorial-scaled coefficients S_j = j!*s_j.

    G' = S'G gives G_m = m!*g_m = sum_j C(m-1, j-1)*S_j*G_{m-j}, and
    coeff(m) = (m+1)!*[x^(m+1)] x*G = (m+1)*G_m.  The sum starts at the
    valuation v of S, and the binomials come from the shared row m - 1 of
    :func:`_pascal`.  e^t is its own derivative, so the same stream is
    x*Phi'(S) too.
    """

    __slots__ = ("arg", "out", "v")

    def __init__(self, arg: list):
        self.arg = arg
        self.out = [1]
        self.v = 1

    def coeff(self, m: int):
        out, arg = self.out, self.arg
        while len(out) <= m:
            mm = len(out)
            v = self.v = _valuation(arg, self.v, mm)
            # empty while v > mm
            terms = map(mul, _pascal(mm - 1)[v - 1 :], arg[v : mm + 1])
            out.append(sum(map(mul, terms, out[mm - v :: -1])))
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


def _make_composer(f: WeightFamily, arg: list, derivative: bool = False):
    """Streams s_(m+1) * [x^(m+1)] x*Phi(S) from the scaled coefficients of S,
    or x*Phi'(S) with ``derivative``.

    With s_n = L^n that is [x^m] of L*Phi at the scaled argument, so the
    rational composer runs on L*R, L*P and Q; Phi' = R' + (P'Q - PQ')/Q^2
    runs on the same integer lists differentiated.
    """
    if f.rational is None:
        return _ExpComposer(arg)
    R, P, Q = f.rational
    L = _scale(f, 1)
    r, p, q = [int(L * c) for c in R], [int(L * c) for c in P], list(Q)
    if derivative:
        pq, qp = _poly_mul(_poly_deriv(p), q), _poly_mul(p, _poly_deriv(q))
        numerator = [a - b for a, b in zip_longest(pq, qp, fillvalue=0)]
        r, p, q = _poly_deriv(r), numerator or [0], _poly_mul(q, q)
    return _RationalComposer(r, p, q, arg)


def _poly_deriv(a: list) -> list:
    """Coefficients of the derivative of the polynomial ``a``."""
    return [j * c for j, c in enumerate(a)][1:]


def _poly_mul(a: list, b: list) -> list:
    """Coefficients of the product of the polynomials ``a`` and ``b``."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, c in enumerate(a):
        for j, e in enumerate(b):
            out[i + j] += c * e
    return out


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


def _product(a: list, b: list, top: int, binomial: bool) -> list:
    """Scaled coefficients 0..top of the product of two scaled series.

    With s_n = L^n that is the plain convolution; with s_n = n! the term
    a_i*b_(n-i) carries C(n, i).  Each sum runs only over the indices at
    which both factors can be nonzero.
    """
    va, vb = _valuation(a, 0, len(a) - 1), _valuation(b, 0, len(b) - 1)
    out = [0] * (top + 1)
    for n in range(va + vb, min(top, len(a) + len(b) - 2) + 1):
        lo, hi = max(va, n - len(b) + 1), min(n - vb, len(a) - 1)
        terms = a[lo : hi + 1]
        if binomial:
            terms = map(mul, _pascal(n)[lo : hi + 1], terms)
        out[n] = sum(map(mul, terms, b[n - lo :: -1]))
    return out


def _geometric(u: list, top: int, binomial: bool) -> list:
    """Scaled coefficients 0..top of 1/(1 - U) for a scaled U with U(0) = 0.

    G = 1 + U*G, and [x^n] U*G reads G only below n, so no step divides.
    """
    vu, g = _valuation(u, 0, len(u) - 1), [1]
    for n in range(1, top + 1):
        hi = min(n, len(u) - 1)
        terms = u[vu : hi + 1]
        if binomial:
            terms = map(mul, _pascal(n)[vu : hi + 1], terms)
        g.append(sum(map(mul, terms, g[n - vu :: -1])))
    return g


def _tail_y0(f: WeightFamily, hs: Iterable[int], order: int) -> Dict[int, list]:
    """{h: scaled Y_{h,0} through ``order``} for levels h >= 1 with
    2h + 3 > order, from one linear solve that all of them share.

    With P_0 = Y, P_k = x*(Phi(P_{k-1}) - 1) and A_k = x*Phi'(P_{k-1}), the
    difference D_k = P_k - Y_{h,k}, of valuation at least h + 2, obeys
    D_0 = D_1 and, by Taylor's theorem at P_(k-1) and at P_h,

        D_k = A_k*D_(k-1) + P_(h+1) - A_(h+1)*D_h + O(x*D^2)

    for 1 <= k <= h.  The O(x*D^2) terms vanish through ``order`` once
    2h + 3 > order, and the linear rest solves to

        Y_{h,0} = Y - c/(1 - A_1),   c = P_{h+1}/(1 + A_{h+1}*K),
        K = M_h/(1 - A_1) + S_h,

    M_h = A_h...A_2 and S_h = 1 + A_h + A_h*A_(h-1) + ... + A_h...A_3
    (M_1 = 1, S_1 = 0), so M_(h+1) = A_(h+1)*M_h and
    S_(h+1) = 1 + A_(h+1)*S_h cost one product each per level.

    Truncations, with h0 the lowest level and T0 = order - h0 - 2: c has
    valuation at least h + 2, so every factor of it is needed only
    through order - h - 2, and A_k only through T0.  P_k runs through
    order - h0 - 1 + k, up to ``order``; once k > T0 its higher powers
    vanish there, so P_k = x*w1*P_(k-1) and A_k = x*w1.  Only P_k for
    k <= T0 is composed, and only the current P, A, M and S are kept.
    """
    hs = sorted(hs)
    if not hs:
        return {}
    h0, binomial = hs[0], f.rational is None
    t0 = order - h0 - 2
    y = _y_coefficients(f, order)[: order + 1]
    unit = _scale(f, 1)  # the scaled coefficient of x, and of x*w1 below
    xw1 = 1 if binomial else int(unit * f.weight(1))  # e^t has w1 = 1
    wanted, out = set(hs), {}
    p, m, s = y[: order - h0], [1], [0]
    for k in range(1, hs[-1] + 2):
        top = min(order - h0 - 1 + k, order)  # P_k runs through top
        if k <= t0:
            comp = _make_composer(f, p)
            new_p = [0] + [comp.coeff(n - 1) for n in range(1, top + 1)]
            new_p[1] -= unit
            if binomial:  # x*e^t = P_k + x
                a = new_p[: t0 + 1]
                a[1] += unit
            else:
                dcomp = _make_composer(f, p, derivative=True)
                a = [0] + [dcomp.coeff(n) for n in range(t0)]
            p = new_p
        else:
            if binomial:
                p = [0] + [n * c for n, c in enumerate(p[:top], 1)]
            else:
                p = [0] + [xw1 * c for c in p[:top]]
            a = [0, xw1]
        if k == 1:
            inv1 = _geometric(a, t0, binomial)  # 1/(1 - A_1)
            continue
        h = k - 1  # P_{h+1} and A_{h+1} are at hand, with M_h and S_h
        if h in wanted:
            ks = _product(m, inv1, order - h - 3, binomial)  # K
            for n, e in enumerate(s[: len(ks)]):
                ks[n] += e
            ak = _product(a, ks, order - h - 2, binomial)
            b_inv = _geometric([-e for e in ak], order - h - 2, binomial)
            c = _product(p, b_inv, order, binomial)
            out[h] = list(map(sub, y, _product(c, inv1, order, binomial)))
        t = order - max(k, h0) - 3  # M_k and S_k serve levels >= k only
        m = _product(a, m, t, binomial)
        s = _product(a, s, t, binomial)
        if s:
            s[0] += 1
    return out


def _prefetch_y0(f: WeightFamily, hs: Iterable[int], order: int) -> None:
    """Store Y_{h,0} through ``order`` for every level h in ``hs`` that the
    store lacks.

    Levels with 2h + 3 > order come from the shared linear solve of
    :func:`_tail_y0`, in the calling process.  Each lower level gets its
    own windowed solve, and those are shared among every CPU of the
    process (see _fork_map), priced by :func:`_y0_work`.
    """
    from ._split import _fork_map

    missing = [h for h in hs if _stored(f, ("Y0", h), order) is None]
    columns = _tail_y0(f, [h for h in missing if 2 * h + 3 > order], order)
    work = {h: _y0_work(h, order) for h in missing if 2 * h + 3 <= order}
    columns.update(
        _fork_map(lambda h: _solve_system_raw(f, h, order, y0_only=True)[0], work)
    )
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
        series must be identically zero.  The factor x reads Phi(Y_{h,k})
        only through order - 1, so each column is composed at that order
        and shifted by one: no composed coefficient goes unread.
        """
        x = TruncatedSeries.x(self.order)
        phi = self.family.weight
        out = [self.series[0] - (self.series[1] + x)]
        composed = [compose_phi(phi, s.truncate(self.order - 1)) for s in self.series]
        for k in range(1, self.h + 1):
            rhs = TruncatedSeries((0, *(composed[k - 1] - composed[self.h])))
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
