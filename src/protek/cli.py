"""Command line interface emitting reproducible CSV/JSON tables.

Commands: constants | cdf | expect | oracle | rhoh | figure.  A family is
named with --family (builtins) or given as --weights a0,a1,... where each
entry is an integer or a fraction p/q.  Identical configurations produce
byte-identical output; the working precision defaults to 256 bits and can
be overridden per call with --prec or globally with the environment
variable PROTEK_PREC.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import mpmath as mp

from .asymptotics import (
    DEFAULT_PRECISION_BITS,
    cdf_asymptotic,
    expectation_asymptotic,
    family_constants,
    solve_rho_h,
)
from .counting import cdf_exact, expectation_exact
from .errors import NoConvergence, ProtekError, WrongRegime
from .families import BUILTIN_NAMES, make_builtin, make_polynomial
from .oracle import oracle_check
from .textfmt import fraction_to_mpf, rational_pair, rational_to_decimal, real_str

FIGURE_PANELS = (
    ("plane", (20, 100, 200)),
    ("cayley", (20, 100, 200)),
    ("pruned-binary", (20, 100, 200)),
    ("complete-binary", (25, 105, 205)),
    ("riordan", (25, 105, 205)),
)


def _default_precision() -> int:
    env = os.environ.get("PROTEK_PREC")
    if env:
        return int(env)
    return DEFAULT_PRECISION_BITS


def _resolve_family(args):
    if getattr(args, "weights", None):
        parts = [p.strip() for p in args.weights.split(",")]
        return make_polynomial(parts)
    if getattr(args, "family", None):
        return make_builtin(args.family)
    raise ProtekError("specify a family with --family or --weights")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _json_dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _constants_fields(c):
    fields = [
        ("tau", real_str(c.tau)),
        ("rho", real_str(c.rho)),
        ("phi_tau", real_str(c.phi_tau)),
        ("phi2_tau", real_str(c.phi2_tau)),
        ("a", real_str(c.a)),
        ("lambda1", real_str(c.lambda1)),
        ("kappa", real_str(c.kappa)),
        ("d", real_str(c.d)),
    ]
    if c.regime == "exponential":
        fields += [("zeta", real_str(c.zeta)), ("lambda2", real_str(c.lambda2))]
    else:
        fields += [("r", str(c.r)), ("mu", real_str(c.mu))]
    fields.append(("D", str(c.D)))
    return fields


def cmd_constants(args) -> int:
    f = _resolve_family(args)
    c = family_constants(f, args.prec)
    fields = _constants_fields(c)
    if args.format == "json":
        payload = {
            "command": "constants",
            "family": f.name,
            "regime": c.regime,
            "precision_bits": c.precision_bits,
            "constants": dict(fields),
            "errors": {k: repr(v) for k, v in sorted(c.errors.items())},
        }
        _emit(_json_dump(payload), args.out)
    else:
        lines = ["quantity,value,error_estimate"]
        lines.append(f"regime,{c.regime},")
        lines.append(f"precision_bits,{c.precision_bits},")
        for name, value in fields:
            err = c.errors.get(name, "")
            lines.append(f"{name},{value},{err}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------


def _cdf_rows(f, n, hmax, prec):
    c = family_constants(f, prec)
    table = cdf_exact(f, n, hmax)
    rows = []
    with mp.workprec(prec):
        for row in table.rows:
            approx = cdf_asymptotic(c, n, row.h)
            diff = abs(fraction_to_mpf(row.p_exact) - approx)
            rows.append((row.h, row.p_exact, approx, diff))
    return rows


def cmd_cdf(args) -> int:
    f = _resolve_family(args)
    rows = _cdf_rows(f, args.n, args.hmax, args.prec)
    if args.format == "json":
        payload = {
            "command": "cdf",
            "family": f.name,
            "n": args.n,
            "rows": [
                {
                    "h": h,
                    "p_exact": rational_to_decimal(p),
                    "p_exact_rational": rational_pair(p),
                    "p_asymptotic": real_str(approx),
                    "abs_diff": real_str(diff),
                }
                for h, p, approx, diff in rows
            ],
        }
        _emit(_json_dump(payload), args.out)
    else:
        lines = ["h,p_exact,p_asymptotic,abs_diff"]
        for h, p, approx, diff in rows:
            lines.append(
                f"{h},{rational_to_decimal(p)},{real_str(approx)},{real_str(diff)}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------


def cmd_expect(args) -> int:
    f = _resolve_family(args)
    e_exact = expectation_exact(f, args.n)
    c = family_constants(f, args.prec)
    e_asym = None
    diff = None
    try:
        e_asym = expectation_asymptotic(c, args.n)
        with mp.workprec(args.prec):
            diff = abs(fraction_to_mpf(e_exact) - e_asym)
    except WrongRegime:
        pass
    if args.format == "json":
        payload = {
            "command": "expect",
            "family": f.name,
            "n": args.n,
            "e_exact_rational": rational_pair(e_exact),
            "e_exact": rational_to_decimal(e_exact),
            "e_asymptotic": real_str(e_asym) if e_asym is not None else None,
            "abs_diff": real_str(diff) if diff is not None else None,
        }
        _emit(_json_dump(payload), args.out)
    else:
        lines = ["quantity,value"]
        lines.append(f"e_exact_rational,{rational_pair(e_exact)}")
        lines.append(f"e_exact,{rational_to_decimal(e_exact)}")
        if e_asym is not None:
            lines.append(f"e_asymptotic,{real_str(e_asym)}")
            lines.append(f"abs_diff,{real_str(diff)}")
        _emit("\n".join(lines) + "\n", args.out)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    f = _resolve_family(args)
    report = oracle_check(f, args.nmax)
    if args.format == "json":
        payload = {
            "command": "oracle",
            "family": f.name,
            "nmax": args.nmax,
            "all_passed": report.passed,
            "rows": [
                {
                    "n": r.n,
                    "h": r.h,
                    "oracle": rational_pair(r.oracle_weight),
                    "series": rational_pair(r.series_coefficient),
                    "match": r.ok,
                }
                for r in report.rows
            ],
        }
        _emit(_json_dump(payload), args.out)
    else:
        lines = ["n,h,oracle,series,match"]
        for r in report.rows:
            lines.append(
                f"{r.n},{r.h},{rational_pair(r.oracle_weight)},"
                f"{rational_pair(r.series_coefficient)},{'pass' if r.ok else 'FAIL'}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    if not report.passed:
        first = report.first_failure()
        print(
            f"oracle mismatch at n={first.n}, h={first.h}: "
            f"oracle={first.oracle_weight}, series={first.series_coefficient}",
            file=sys.stderr,
        )
        return 1
    return 0


# ---------------------------------------------------------------------------
# rhoh
# ---------------------------------------------------------------------------


def _rho_h_predicted(c, h):
    """Leading term of rho_h - rho in the appropriate regime."""
    if c.regime == "exponential":
        signal = c.zeta ** (h + 1)
        return c.lambda1 * (1 - c.zeta) * signal / c.phi_tau, signal
    signal = c.mu ** (mp.mpf(c.r) ** (h + 1))
    return c.rho * c.kappa * signal, signal


def cmd_rhoh(args) -> int:
    f = _resolve_family(args)
    c = family_constants(f, args.prec)
    floor = mp.mpf(2) ** (-(args.prec // 2))
    rows = []
    with mp.workprec(args.prec):
        for h in range(args.h_from, args.h_to + 1):
            predicted, signal = _rho_h_predicted(c, h)
            if not signal > floor:
                rows.append((h, None, None, predicted, None, "needs-more-precision"))
                continue
            try:
                sol = solve_rho_h(f, h, args.prec)
            except NoConvergence:
                rows.append((h, None, None, predicted, None, "no-convergence"))
                continue
            delta = sol.rho_h - c.rho
            rows.append((h, sol.rho_h, delta, predicted, delta / predicted, "ok"))

    def fmt(x):
        return real_str(x) if x is not None else ""

    if args.format == "json":
        payload = {
            "command": "rhoh",
            "family": f.name,
            "rows": [
                {
                    "h": h,
                    "rho_h": fmt(rho_h) or None,
                    "delta": fmt(delta) or None,
                    "predicted": fmt(predicted),
                    "ratio": fmt(ratio) or None,
                    "status": status,
                }
                for h, rho_h, delta, predicted, ratio, status in rows
            ],
        }
        _emit(_json_dump(payload), args.out)
    else:
        lines = ["h,rho_h,delta,predicted,ratio,status"]
        for h, rho_h, delta, predicted, ratio, status in rows:
            lines.append(
                f"{h},{fmt(rho_h)},{fmt(delta)},{fmt(predicted)},{fmt(ratio)},{status}"
            )
        _emit("\n".join(lines) + "\n", args.out)
    return 0 if all(row[5] == "ok" for row in rows) else 1


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def cmd_figure(args) -> int:
    outdir = args.out or "figures"
    os.makedirs(outdir, exist_ok=True)
    panels = FIGURE_PANELS
    if args.family:
        panels = tuple(p for p in panels if p[0] == args.family)
        if not panels:
            names = ", ".join(p[0] for p in FIGURE_PANELS)
            raise ProtekError(f"no figure panel for {args.family!r}; panels: {names}")
    if args.n:
        wanted = {int(p.strip()) for p in args.n.split(",")}
        panels = tuple(
            (name, tuple(n for n in ns if n in wanted)) for name, ns in panels
        )
    written = []
    for name, ns in panels:
        if not ns:
            continue
        f = make_builtin(name)
        lines = ["family,n,h,p_exact,p_asymptotic,abs_diff"]
        for n in ns:
            for h, p, approx, diff in _cdf_rows(f, n, args.hmax, args.prec):
                lines.append(
                    f"{name},{n},{h},{rational_to_decimal(p)},"
                    f"{real_str(approx)},{real_str(diff)}"
                )
        path = os.path.join(outdir, f"figure_{name}.csv")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_family_args(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--family", choices=BUILTIN_NAMES, help="builtin family name")
    group.add_argument(
        "--weights",
        help="finite weight sequence a0,a1,... (integers or fractions p/q)",
    )


def _add_common_args(p):
    p.add_argument("--prec", type=int, default=_default_precision(),
                   help="working precision in bits (default 256 or $PROTEK_PREC)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", help="output path (default: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protek",
        description="Maximum protection number of simply generated trees: "
        "exact distributions, brute-force verification and asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("constants", help="all limit-law constants of a family")
    _add_family_args(p)
    _add_common_args(p)
    p.set_defaults(func=cmd_constants)

    p = sub.add_parser("cdf", help="exact and asymptotic CDF at one size")
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--hmax", type=int, default=None)
    _add_common_args(p)
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("expect", help="exact and asymptotic expectation")
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("oracle", help="brute-force cross-check of the counts")
    _add_family_args(p)
    p.add_argument("--nmax", type=int, default=8)
    _add_common_args(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("rhoh", help="singularity of the h-bounded series")
    _add_family_args(p)
    p.add_argument("--h-from", dest="h_from", type=int, required=True)
    p.add_argument("--h-to", dest="h_to", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=cmd_rhoh)

    p = sub.add_parser("figure", help="CSV data behind the CDF figure panels")
    p.add_argument("--family", help="restrict to one panel")
    p.add_argument("--n", help="restrict to a comma-separated list of sizes")
    p.add_argument("--hmax", type=int, default=None)
    _add_common_args(p)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ProtekError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
