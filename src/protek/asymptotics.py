"""Asymptotic constants and limit-law evaluators.

For a family with weight generating function Phi, the structural point
tau solves Phi(tau) = tau*Phi'(tau) below the radius of convergence and
rho = tau/Phi(tau) = 1/Phi'(tau) is the dominant singularity of Y.  From
there two regimes split on whether outdegree 1 carries weight:

* w1 != 0 (exponential): with zeta = rho*Phi'(0), d = 1/zeta and
  kappa = lambda1*(1-zeta)*zeta/tau, the CDF tends to exp(-kappa*n*d^-h)
  and the mean grows like log_d(n) plus explicit constants and a tiny
  1-periodic fluctuation.

* w1 = 0 (double-exponential): with r the smallest weighted outdegree
  >= 2, lambda1 = (rho*w_r)^(-1/(r-1)), mu the limit base of the
  recursion eta_k = rho*(Phi(eta_{k-1}) - 1), d = mu^-r and
  kappa = w_r*lambda1^r/Phi(tau), the CDF tends to exp(-kappa*n*d^(-r^h))
  and the distribution concentrates on at most two values.

The singularity rho_h of the h-bounded generating functions is pinned by
a three-unknown system (the two boundary equations plus a vanishing
Jacobian determinant) and solved here by Newton iteration in
arbitrary-precision floats.  The levels h share nothing but tau and rho,
so :func:`_prefetch_rho_h` solves the levels missing from the store with
:func:`protek._split._fork_map`, on every CPU of the process's affinity
mask, before :func:`solve_rho_h` reads them one by one.
"""

from __future__ import annotations

import itertools
import marshal
import math
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import mpmath as mp
from mpmath.libmp import MPZ

from .errors import InvalidArgument, NoConvergence, NoTau, PeriodMismatch, WrongRegime, check_int
from .families import WeightFamily, _memo, _stored, family_structure
from .textfmt import fraction_to_mpf

DEFAULT_PRECISION_BITS = 256
MIN_PRECISION_BITS = 64
_GUARD_BITS = 24


# ---------------------------------------------------------------------------
# structural constants
# ---------------------------------------------------------------------------


def solve_tau_rho(
    f: WeightFamily, precision_bits: int = DEFAULT_PRECISION_BITS
) -> Tuple[mp.mpf, mp.mpf]:
    """Solve Phi(tau) = tau*Phi'(tau) below the radius; rho = tau/Phi(tau).

    H(t) = t*Phi'(t) - Phi(t) has H(0) = -1 and derivative t*Phi''(t) > 0,
    so the root is bracketed by bisecting a geometric grid of 121 points
    and then polished by Newton with a bisection safeguard.  The grid ends
    just below the radius, or for entire Phi at the first of 1e6, 2e6,
    4e6, ... where H > 0 (H(t) -> +inf once some w_j > 0 at j >= 2).  If H
    is not positive there, the family has no tau and NoTau is raised.
    """
    check_int("precision_bits", precision_bits, MIN_PRECISION_BITS)
    with mp.workprec(precision_bits + _GUARD_BITS):
        def big_h(t):
            phi, dphi = f.phi_derivs(t, 1)
            return t * dphi - phi

        entire = math.isinf(f.radius)
        hi_cap = mp.mpf(10) ** 6 if entire else mp.mpf(f.radius) * (1 - mp.mpf(10) ** -6)
        # one try below the radius; an entire Phi doubles the cap while
        # H <= 0, and the bound only keeps a malformed family from looping
        # forever
        for _ in range(1 << 14 if entire else 1):
            if big_h(hi_cap) > 0:
                break
            hi_cap *= 2
        else:
            raise NoTau(
                f"{f.name}: t*Phi'(t) - Phi(t) has no sign change below the "
                f"radius of convergence; the family lacks the structural "
                f"point tau and is not analyzable here"
            )

        # H is increasing: bisect on k over the grid hi_cap*2^-k, k = 0..120,
        # keeping H(grid hi_k) > 0 >= H(grid lo_k); k = 121 stands for t = 0
        hi_k, lo_k = 0, 121
        while lo_k - hi_k > 1:
            k = (hi_k + lo_k) // 2
            if big_h(mp.ldexp(hi_cap, -k)) > 0:
                hi_k = k
            else:
                lo_k = k
        lo = mp.ldexp(hi_cap, -lo_k) if lo_k <= 120 else mp.mpf(0)
        hi = mp.ldexp(hi_cap, -hi_k)
        t = (lo + hi) / 2
        step_target = mp.mpf(2) ** (-(precision_bits + 10))
        for _ in range(400):
            phi, dphi, ddphi = f.phi_derivs(t, 2)
            ht = t * dphi - phi
            if ht > 0:
                hi = t
            elif ht < 0:
                lo = t
            else:
                break
            slope = t * ddphi
            nt = t - ht / slope if slope != 0 else None
            if nt is None or not (lo < nt < hi):
                nt = (lo + hi) / 2
            done = abs(nt - t) <= abs(nt) * step_target
            t = nt
            if done:
                break
        tau = t
        rho = tau / f.phi_derivs(tau, 0)[0]
        return tau, rho


@dataclass(frozen=True)
class FamilyConstants:
    """Every constant of the two limit laws for one family."""

    family: str
    regime: str                       # "exponential" | "double-exponential"
    precision_bits: int
    D: int                            # period; tree sizes are 1 mod D
    tau: mp.mpf
    rho: mp.mpf
    phi_tau: mp.mpf
    phi2_tau: mp.mpf
    a: mp.mpf                         # leading singular-expansion coefficient
    lambda1: mp.mpf
    kappa: mp.mpf
    d: mp.mpf
    zeta: Optional[mp.mpf] = None     # exponential regime only
    lambda2: Optional[mp.mpf] = None  # exponential regime only
    r: Optional[int] = None           # double-exponential regime only
    mu: Optional[mp.mpf] = None       # double-exponential regime only
    errors: Dict[str, float] = field(default_factory=dict)


def _etas(f: WeightFamily, rho, tau) -> Iterator[mp.mpf]:
    """eta_1, eta_2, ... of eta_0 = tau, eta_k = rho*(Phi(eta_{k-1}) - 1),
    each step at the working precision of the draw.  Phi - 1 comes from
    phim1_eval, which has no cancellation, so a tiny eta keeps its full
    relative accuracy without extra bits."""
    eta = tau
    while True:
        eta = rho * f.phim1_eval(eta)
        yield eta


def eta_sequence(c: FamilyConstants, f: WeightFamily, kmax: int) -> List[mp.mpf]:
    """eta_0 .. eta_kmax of the recursion eta_0 = tau,
    eta_k = rho*(Phi(eta_{k-1}) - 1); strictly decreasing to 0.  Every
    value is computed and stored at precision_bits + _GUARD_BITS.  lambda1,
    lambda2 and mu are limits along this same recursion (_etas)."""
    check_int("kmax", kmax, 0)
    with mp.workprec(c.precision_bits + _GUARD_BITS):
        return [c.tau] + list(itertools.islice(_etas(f, c.rho, c.tau), kmax))


def _exponential_limits(f: WeightFamily, tau, rho) -> dict:
    """lambda1, lambda2 and the fields derived from them, w1 != 0; both
    limits read the recursion of eta_sequence (_etas)."""
    w1 = fraction_to_mpf(f.weight(1))
    zeta = rho * w1

    # lambda1 = lim zeta^-k eta_k; geometric convergence, so the relative
    # change of successive iterates is the error estimate.
    # lambda2 = prod_{j>=1} Phi'(eta_j)/Phi'(0).  Both read one pass over
    # the eta sequence, and each stops updating at its own tolerance.
    tol1, tol2 = mp.mpf(10) ** -25, mp.mpf(10) ** -30
    lam1, scale, delta1 = tau, mp.mpf(1), mp.mpf(1)
    lam2, delta2 = mp.mpf(1), mp.mpf(1)
    for eta in itertools.islice(_etas(f, rho, tau), 5000):
        if not delta1 < tol1:
            scale = scale / zeta
            lam1_new = scale * eta
            delta1 = abs(lam1_new / lam1 - 1)
            lam1 = lam1_new
        if not delta2 < tol2:
            factor = f.phi_derivs(eta, 1)[1] / w1
            lam2 *= factor
            delta2 = abs(factor - 1)
        if delta1 < tol1 and delta2 < tol2:
            break
    else:
        limit = "lambda2 product" if delta1 < tol1 else "lambda1 iteration"
        raise NoConvergence(f"{f.name}: {limit} did not stabilize")

    return dict(
        regime="exponential",
        lambda1=lam1,
        kappa=lam1 * (1 - zeta) * zeta / tau,
        d=1 / zeta,
        zeta=zeta,
        lambda2=lam2,
        errors={"lambda1": float(delta1), "lambda2": float(delta2)},
    )


def _doubleexp_limits(f: WeightFamily, r: int, tau, rho, phi_tau) -> dict:
    """lambda1, mu and the fields derived from them, w1 = 0.

    mu is evaluated through the telescoping sum
    log(mu) = log(eta_0/lambda1) + sum_j theta_j / r^(j+1) with
    theta_{k-1} = log(eta_k/lambda1) - r*log(eta_{k-1}/lambda1); the raw
    r^k-th root of eta_k/lambda1 would lose precision catastrophically,
    while these terms decay doubly exponentially.
    """
    w_r = fraction_to_mpf(f.weight(r))
    lam1 = (rho * w_r) ** (mp.mpf(-1) / (r - 1))
    log_lam1 = mp.log(lam1)

    tol = mp.mpf(10) ** -30
    log_ratio = mp.log(tau) - log_lam1
    total = log_ratio
    rpow = mp.mpf(r)
    last_term = mp.mpf(1)
    for eta in itertools.islice(_etas(f, rho, tau), 500):
        new_log_ratio = mp.log(eta) - log_lam1
        theta = new_log_ratio - r * log_ratio
        term = theta / rpow
        total += term
        rpow *= r
        log_ratio = new_log_ratio
        last_term = abs(term)
        # theta_j = O(eta_j), so once eta is below the tolerance the
        # remaining tail of the sum is below it too
        if last_term < tol and eta < tol:
            break
    else:
        raise NoConvergence(f"{f.name}: mu telescoping sum did not stabilize")
    mu = mp.exp(total)
    if not (0 < mu < 1):
        raise NoConvergence(f"{f.name}: mu = {mu} is outside (0, 1)")

    return dict(
        regime="double-exponential",
        lambda1=lam1,
        kappa=w_r * lam1**r / phi_tau,
        d=mu ** (-r),
        r=r,
        mu=mu,
        errors={"mu": float(last_term)},
    )


def family_constants(
    f: WeightFamily, precision_bits: int = DEFAULT_PRECISION_BITS
) -> FamilyConstants:
    """Every limit-law constant of f in the regime that w1 selects; only the
    limits of the eta recursion differ between the two.  Families with the
    same weights share one stored result; each caller's copy carries its
    own family name."""
    check_int("precision_bits", precision_bits, MIN_PRECISION_BITS)

    def compute() -> FamilyConstants:
        struct = family_structure(f)
        with mp.workprec(precision_bits + _GUARD_BITS):
            tau, rho = solve_tau_rho(f, precision_bits)
            phi_tau, _, phi2_tau = f.phi_derivs(tau, 2)
            if struct.w1_zero:
                limits = _doubleexp_limits(f, struct.r, tau, rho, phi_tau)
            else:
                limits = _exponential_limits(f, tau, rho)
            return FamilyConstants(
                family=f.name,
                precision_bits=precision_bits,
                D=struct.D,
                tau=tau,
                rho=rho,
                phi_tau=phi_tau,
                phi2_tau=phi2_tau,
                a=-mp.sqrt(2 * phi_tau / phi2_tau),
                **limits,
            )

    c = _memo(f, ("constants", precision_bits), compute)
    return c if c.family == f.name else replace(c, family=f.name)


# ---------------------------------------------------------------------------
# limit-law evaluators
# ---------------------------------------------------------------------------


def cdf_asymptotic(c: FamilyConstants, n: int, h: int) -> mp.mpf:
    """Regime-appropriate double-exponential CDF value in [0, 1].

    An exponent of magnitude 2^precision_bits or more raises
    InvalidArgument: it is known to less than one unit, so its exp has no
    correct digit, and mpmath would take seconds to evaluate it."""
    with mp.workprec(c.precision_bits + _GUARD_BITS):
        if c.regime == "exponential":
            exponent = -c.kappa * n * c.d ** mp.mpf(-h)
        else:
            exponent = -c.kappa * n * c.d ** (-mp.mpf(c.r) ** h)
        if mp.mag(exponent) > c.precision_bits:
            raise InvalidArgument(
                f"{c.family}, n = {n}, h = {h}: the limit law's exponent has "
                f"magnitude 2^{mp.mag(exponent) - 1} or more, so its exp has no "
                f"correct digit at {c.precision_bits} bits"
            )
        return mp.exp(exponent)


def _check_d(c: FamilyConstants) -> None:
    """Both limit laws scale by log(d); d = 1 leaves no scale."""
    if not c.d > 1:
        raise InvalidArgument(
            f"{c.family}: d = {mp.nstr(c.d, 17)} at {c.precision_bits} bits, "
            f"but the limit laws need d > 1; more bits may separate d from 1"
        )


def default_hmax(c: FamilyConstants, n: int) -> int:
    """Largest h worth tabulating next to :func:`cdf_asymptotic` by default.

    In the exponential regime the CDF is within 1e-15 of 1 beyond roughly
    4*log_d(n), in the double-exponential regime beyond log_r of that;
    both caps carry a safety margin and are clipped to n - 1.  The logs
    are taken at 53 bits, so every precision of c gives the same cap.
    """
    check_int("n", n, 1)
    _check_d(c)
    with mp.workprec(53):
        ln_ratio = mp.log(max(n, 2)) / mp.log(c.d)
        if c.regime == "exponential":
            return min(n - 1, int(mp.ceil(4 * ln_ratio)) + 10)
        return min(n - 1, int(mp.ceil(mp.log(4 * ln_ratio) / mp.log(c.r))) + 2)


# Lanczos approximation, g = 7 with 9 coefficients; together with the
# reflection formula this covers the whole complex plane and is accurate
# to ~1e-13 relative on the imaginary arguments needed below.
_LANCZOS_G = 7
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(z) -> mp.mpc:
    """Gamma function for complex arguments (Lanczos plus reflection)."""
    z = mp.mpc(z)
    if z.real < 0.5:
        return mp.pi / (mp.sin(mp.pi * z) * complex_gamma(1 - z))
    z -= 1
    acc = mp.mpc(_LANCZOS_COEFFS[0])
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + mp.mpf(1) / 2
    return mp.sqrt(2 * mp.pi) * t ** (z + mp.mpf(1) / 2) * mp.exp(-t) * acc


def psi_fluctuation(d, x) -> mp.mpf:
    """The 1-periodic fluctuation
    -(1/log d) * sum_{k != 0} Gamma(-2*pi*i*k/log d) * e^{2*pi*i*k*x},
    truncated at |k| <= 10.  Conjugate terms are paired, so only the real
    parts of k >= 1 enter."""
    ln_d = mp.log(d)
    two_pi = 2 * mp.pi
    total = mp.mpf(0)
    for k in range(1, 11):
        g = complex_gamma(mp.mpc(0, -two_pi * k / ln_d))
        phase = mp.exp(mp.mpc(0, two_pi * k * x))
        total += 2 * (g * phase).real
    return -total / ln_d


def expectation_asymptotic(c: FamilyConstants, n: int) -> mp.mpf:
    """Mean of the maximum protection number, exponential regime:
    log_d(n) + log_d(kappa) + gamma/log(d) + 1/2 + psi_d(log_d(kappa*n))."""
    if c.regime != "exponential":
        raise WrongRegime(
            f"{c.family}: the expectation formula applies to the exponential "
            f"regime only (w1 != 0)"
        )
    _check_d(c)
    with mp.workprec(c.precision_bits + _GUARD_BITS):
        ln_d = mp.log(c.d)
        log_d_n = mp.log(n) / ln_d
        log_d_kappa = mp.log(c.kappa) / ln_d
        x = log_d_n + log_d_kappa
        return (
            log_d_n
            + log_d_kappa
            + mp.euler / ln_d
            + mp.mpf(1) / 2
            + psi_fluctuation(c.d, x)
        )


def count_asymptotic(c: FamilyConstants, n: int) -> mp.mpf:
    """Leading-order estimate of the total weight y_n:
    D * (-a/(2*sqrt(pi))) * n^(-3/2) * rho^-n for n = 1 mod D."""
    if (n - 1) % c.D != 0:
        raise PeriodMismatch(
            f"{c.family}: y_n = 0 for n != 1 mod {c.D}; no asymptotic applies"
        )
    with mp.workprec(c.precision_bits + _GUARD_BITS):
        return c.D * (-c.a) / (2 * mp.sqrt(mp.pi)) * mp.mpf(n) ** mp.mpf("-1.5") * c.rho ** (-n)


def _predictor_round(m) -> int:
    """floor(m) when the fractional part is <= 1/2 (inclusive), else ceil."""
    fl = mp.floor(m)
    return int(fl) if m - fl <= mp.mpf(1) / 2 else int(fl) + 1


def two_point_predictor(c: FamilyConstants, n: int) -> Tuple[int, mp.mpf]:
    """The concentration point h_n with m_n = log_r(log_d(n)) in the
    double-exponential regime; the maximum is h_n or h_n + 1 w.h.p."""
    if c.regime != "double-exponential":
        raise WrongRegime(f"{c.family}: two-point concentration needs w1 = 0")
    with mp.workprec(c.precision_bits + _GUARD_BITS):
        log_d_n = mp.log(n) / mp.log(c.d)
        if not log_d_n > 1:
            raise InvalidArgument(
                f"need log_d(n) > 1, got {float(log_d_n)} at n = {n}"
            )
        m = mp.log(log_d_n) / mp.log(c.r)
        return _predictor_round(m), m


# ---------------------------------------------------------------------------
# the singularity system for rho_h
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RhoHSolution:
    """Solution of the three-unknown singularity system at level h."""

    family: str
    h: int
    precision_bits: int
    rho_h: mp.mpf
    eta: Tuple[mp.mpf, ...]           # eta_{h,0} .. eta_{h,h}
    s: mp.mpf                         # = Phi(eta_{h,h})
    residuals: Tuple[mp.mpf, mp.mpf, mp.mpf]
    iterations: int = 0               # Newton steps taken


def _rho_h_system(f: WeightFamily, h: int, u):
    """Residuals, exact Jacobian and eta_{h,0} .. eta_{h,h} of the rho_h
    system at u = (rho_h, eta_{h,0}, s), at the working precision.

    With p_k = rho_h*Phi'(eta_{h,k}) and q = 1 - rho_h*Phi'(eta_{h,0}), the
    determinant residual is E_h of the recursion E_0 = 1,
    E_k = q + p_k*E_{k-1}.  One forward pass carries eta_{h,k}, E_k and
    their partials in the three unknowns, with Phi, Phi' and Phi''
    evaluated once at each eta_{h,k}.
    """
    rho_h, eta0, s = u
    v, dv, ddv = f.phi_derivs(eta0, 2)
    q = 1 - rho_h * dv
    dq = (-dv, -rho_h * ddv, 0)
    r2 = eta0 - rho_h * (v - s + 1)
    dr2 = [-(v - s + 1), q, rho_h]

    etas = [eta0, eta0 - rho_h]
    deta = (-1, 1, 0)                     # d eta_k / d(rho_h, eta0, s)
    e, de = mp.mpf(1), (0, 0, 0)          # E_k and dE_k
    for k in range(1, h + 1):
        v, dv, ddv = f.phi_derivs(etas[k], 2)
        p, dp_deta = rho_h * dv, rho_h * ddv
        dp = [dp_deta * d for d in deta]
        dp[0] += dv
        de = [dq[i] + dp[i] * e + p * de[i] for i in range(3)]
        e = q + p * e
        if k < h:
            etas.append(rho_h * v - rho_h * s)
            deta = (v - s + p * deta[0], p * deta[1], p * deta[2] - rho_h)

    r1 = s - v
    dr1 = [-dv * d for d in deta]
    dr1[2] += 1
    return [r1, r2, e], [dr1, dr2, de], etas


def _rho_h_newton(f: WeightFamily, h: int, precision_bits: int) -> bytes:
    """The Newton solve of solve_rho_h as the marshal bytes of
    (failure, iterations, u, residuals, etas), where failure is None or
    the reason the solve failed and every mpf is a _packed tuple.  The
    bytes take about 40% of the memory the tuples would take in the
    store."""
    with mp.workprec(precision_bits + _GUARD_BITS):
        c = family_constants(f, precision_bits)
        rho = c.rho
        u = [rho, c.tau, mp.mpf(1)]
        tol = mp.mpf(2) ** (-(precision_bits // 2))
        res, jac, etas = _rho_h_system(f, h, u)
        failure = None
        for iterations in range(120):
            norm = max(abs(v) for v in res)
            if norm < tol:
                break
            try:
                delta = mp.lu_solve(jac, res)
            except ZeroDivisionError:
                failure = "singular Newton Jacobian"
                break
            u = [u[i] - delta[i] for i in range(3)]
            res, jac, etas = _rho_h_system(f, h, u)
        else:
            failure = (
                f"Newton did not reach the residual target 2^-{precision_bits // 2}"
            )

        slack = mp.mpf(2) ** (-(precision_bits // 4))
        if failure is None and (
            u[0] < rho - slack
            or any(etas[k] < etas[k + 1] - slack for k in range(h))
        ):
            failure = "converged to a spurious root"
        packed = (tuple(map(_packed, x)) for x in (u, res, etas))
        return marshal.dumps((failure, iterations, *packed))


def _packed(x: mp.mpf) -> tuple:
    """The _mpf_ tuple of x with an int mantissa, which marshal can send."""
    sign, man, exp, bc = x._mpf_
    return sign, int(man), exp, bc


def _unpacked(t: tuple) -> mp.mpf:
    """The mpf of a _packed tuple, every bit kept: mp.mpf(t) would round
    it to the working precision."""
    sign, man, exp, bc = t
    return mp.make_mpf((sign, MPZ(man), exp, bc))


def _rho_h_work(h: int, bits: int) -> int:
    """Estimated cost of the rho_h solve at level h and precision bits, in
    units of about 100 ns, as _SPLIT_WORK_FLOOR counts them.  Each Newton
    step evaluates Phi at h + 1 points, and a solve at larger h takes
    fewer steps: on a 2-CPU x86-64 machine (Python 3.11, mpmath 1.3
    without gmpy) a level of plane, cayley, binary, pruned-binary or
    riordan at 64 to 2048 bits took about 0.85 us * (h + 8) * (bits + 128),
    mostly within a factor of 1.6 of that."""
    return 8 * (h + 8) * (bits + 128)


def _prefetch_rho_h(f: WeightFamily, hs: Iterable[int], bits: int) -> None:
    """Store the rho_h solve at precision ``bits`` of every level h in
    ``hs`` that the store lacks, solved on every CPU of the process (see
    _fork_map).  The family constants are solved here first, so no child
    solves them again."""
    from ._split import _fork_map

    hs = list(hs)
    for h in hs:
        check_int("h", h, 2)
    family_constants(f, bits)
    work = {h: _rho_h_work(h, bits) for h in hs if _stored(f, ("rho_h", h, bits)) is None}
    outcomes = _fork_map(lambda h: _rho_h_newton(f, h, bits), work)
    for h, outcome in outcomes.items():
        _memo(f, ("rho_h", h, bits), lambda outcome=outcome: outcome)


def solve_rho_h(
    f: WeightFamily, h: int, precision_bits: int = DEFAULT_PRECISION_BITS
) -> RhoHSolution:
    """Newton solve for the dominant singularity rho_h of the h-bounded
    generating functions.

    Unknowns (rho_h, eta_{h,0}, s): the remaining eta_{h,k} propagate
    forward via eta_{h,1} = eta_{h,0} - rho_h and
    eta_{h,k} = rho_h*Phi(eta_{h,k-1}) - rho_h*s.  Residuals are the
    closure s = Phi(eta_{h,h}), the k = 1 equation folded with the
    root-level one, and the vanishing Jacobian determinant

      p_1*...*p_h + q*(1 + sum_{k=2..h} p_k*...*p_h)

    with p_k = rho_h*Phi'(eta_{h,k}) and q = 1 - rho_h*Phi'(eta_{h,0}),
    evaluated as E_h of the Horner recursion E_0 = 1, E_k = q + p_k*E_{k-1}.

    The Newton Jacobian is exact: _rho_h_system carries the partials of
    eta_{h,k} and E_k forward in the same pass, with Phi'' from
    phi_derivs.  The initial guess (rho, tau, 1) reads tau and rho from the
    stored family_constants and converges for h >= 2 on all builtin
    families.  Newton stops once every residual is below
    2^(-precision_bits/2), after at most 120 steps.

    The outcome is kept in the one results store under
    ("rho_h", h, precision_bits), where _prefetch_rho_h may have put it,
    failures included: a level is solved once, and a failed level raises
    the same NoConvergence on every read.  Families with the same weights
    share the entry; each caller's copy carries its own family name.
    """
    check_int("h", h, 2)
    check_int("precision_bits", precision_bits, MIN_PRECISION_BITS)
    failure, iterations, u, res, etas = marshal.loads(_memo(
        f, ("rho_h", h, precision_bits), lambda: _rho_h_newton(f, h, precision_bits)
    ))
    u = tuple(map(_unpacked, u))
    if failure is not None:
        raise NoConvergence(f"{f.name}, h = {h}: {failure}", u)
    return RhoHSolution(
        family=f.name,
        h=h,
        precision_bits=precision_bits,
        rho_h=u[0],
        eta=tuple(map(_unpacked, etas)),
        s=u[2],
        residuals=tuple(map(_unpacked, res)),
        iterations=iterations,
    )
