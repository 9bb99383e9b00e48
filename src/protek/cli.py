"""Command line interface emitting reproducible CSV/JSON tables.

Commands: constants | cdf | expect | oracle | rhoh | figure.  A family is
named with --family (builtins) or given as --weights a0,a1,... where each
entry is an integer or a fraction p/q.  Identical configurations produce
byte-identical output; the working precision defaults to 256 bits and can
be overridden per call with --prec or globally with the environment
variable PROTEK_PREC.  main runs the command inside one mp.workprec(--prec)
block; a command solves the family constants once, at that precision, and
cdf without --hmax prints h through default_hmax of them.  argparse exits
with code 2 and a usage message on an unknown option or choice, a number
that is not an integer, --prec below 64, --hmax below 0, --nmax below 1,
a figure --n that is not positive, or --h-to below --h-from.  Every other
failure, such as cdf --n 0 or rhoh --h-from 1, prints ``error: ...`` and
exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import mpmath as mp

from .asymptotics import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    _prefetch_rho_h,
    cdf_asymptotic,
    default_hmax,
    expectation_asymptotic,
    family_constants,
    solve_rho_h,
)
from .counting import cdf_exact, expectation_exact
from .errors import NoConvergence, ProtekError
from .families import BUILTIN_NAMES, family_structure, make_builtin, make_polynomial
from .oracle import oracle_check
from .textfmt import fraction_to_mpf, rational_pair, rational_to_decimal, real_str

FIGURE_PANELS = (
    ("plane", (20, 100, 200)),
    ("cayley", (20, 100, 200)),
    ("pruned-binary", (20, 100, 200)),
    ("complete-binary", (25, 105, 205)),
    ("riordan", (25, 105, 205)),
)


def _resolve_family(args):
    if getattr(args, "weights", None):
        parts = [p.strip() for p in args.weights.split(",")]
        return make_polynomial(parts)
    if getattr(args, "family", None):
        return make_builtin(args.family)
    raise ProtekError("specify a family with --family or --weights")


def _emit(text: str, out_path):
    """Write text to stdout, or atomically replace the file at out_path."""
    if not out_path:
        sys.stdout.write(text)
        return
    tmp = f"{out_path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
        os.replace(tmp, out_path)
    except OSError as exc:
        # name the target, not the pid-stamped temporary file
        raise OSError(exc.errno, exc.strerror, out_path) from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _cell(value) -> str:
    if isinstance(value, bool):
        return "pass" if value else "FAIL"
    return "" if value is None else str(value)


def _csv(columns, rows) -> str:
    lines = [columns] + [[_cell(row[c]) for c in columns] for row in rows]
    return "".join(",".join(line) + "\n" for line in lines)


def _write(args, payload, columns, rows):
    """The only output path of the commands: ``payload`` as JSON, or the
    ``columns`` of each row dict as CSV."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(_csv(columns, rows), args.out)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------


def _constants_fields(c):
    names = ["tau", "rho", "phi_tau", "phi2_tau", "a", "lambda1", "kappa", "d"]
    names += ["zeta", "lambda2"] if c.regime == "exponential" else ["r", "mu"]
    names.append("D")
    # r and D are integers; every other constant is an mpmath real.
    return [(k, (str if k in ("r", "D") else real_str)(getattr(c, k))) for k in names]


def cmd_constants(args) -> int:
    f = _resolve_family(args)
    c = family_constants(f, args.prec)
    fields = _constants_fields(c)
    payload = {
        "command": "constants",
        "family": f.name,
        "regime": c.regime,
        "precision_bits": c.precision_bits,
        "constants": dict(fields),
        "errors": {k: repr(v) for k, v in sorted(c.errors.items())},
    }
    quantities = [("regime", c.regime), ("precision_bits", c.precision_bits)] + fields
    rows = [
        {"quantity": name, "value": value, "error_estimate": c.errors.get(name)}
        for name, value in quantities
    ]
    _write(args, payload, ("quantity", "value", "error_estimate"), rows)
    return 0


# ---------------------------------------------------------------------------
# cdf
# ---------------------------------------------------------------------------

CDF_COLUMNS = ("h", "p_exact", "p_asymptotic", "abs_diff")


def _cdf_rows(f, n, hmax, prec):
    c = family_constants(f, prec)
    table = cdf_exact(f, n, default_hmax(c, n) if hmax is None else hmax)
    rows = []
    for row in table.rows:
        approx = cdf_asymptotic(c, n, row.h)
        rows.append({
            "h": row.h,
            "p_exact": rational_to_decimal(row.p_exact),
            "p_exact_rational": rational_pair(row.p_exact),
            "p_asymptotic": real_str(approx),
            "abs_diff": real_str(abs(fraction_to_mpf(row.p_exact) - approx)),
        })
    return rows


def cmd_cdf(args) -> int:
    f = _resolve_family(args)
    rows = _cdf_rows(f, args.n, args.hmax, args.prec)
    payload = {"command": "cdf", "family": f.name, "n": args.n, "rows": rows}
    _write(args, payload, CDF_COLUMNS, rows)
    return 0


# ---------------------------------------------------------------------------
# expect
# ---------------------------------------------------------------------------


def cmd_expect(args) -> int:
    f = _resolve_family(args)
    e_exact = expectation_exact(f, args.n)
    values = {
        "e_exact_rational": rational_pair(e_exact),
        "e_exact": rational_to_decimal(e_exact),
        "e_asymptotic": None,
        "abs_diff": None,
    }
    # the expectation formula is the exponential regime's (w1 != 0); a
    # double-exponential family prints the exact values alone
    if not family_structure(f).w1_zero:
        e_asym = expectation_asymptotic(family_constants(f, args.prec), args.n)
        values["e_asymptotic"] = real_str(e_asym)
        values["abs_diff"] = real_str(abs(fraction_to_mpf(e_exact) - e_asym))
    payload = {"command": "expect", "family": f.name, "n": args.n, **values}
    rows = [{"quantity": k, "value": v} for k, v in values.items() if v is not None]
    _write(args, payload, ("quantity", "value"), rows)
    return 0


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def cmd_oracle(args) -> int:
    f = _resolve_family(args)
    report = oracle_check(f, args.nmax)
    rows = [
        {
            "n": r.n,
            "h": r.h,
            "oracle": rational_pair(r.oracle_weight),
            "series": rational_pair(r.series_coefficient),
            "match": r.ok,
        }
        for r in report.rows
    ]
    payload = {
        "command": "oracle",
        "family": f.name,
        "nmax": args.nmax,
        "all_passed": report.passed,
        "rows": rows,
    }
    _write(args, payload, ("n", "h", "oracle", "series", "match"), rows)
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

RHOH_COLUMNS = ("h", "rho_h", "delta", "predicted", "ratio", "status")


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
    levels = [(h, *_rho_h_predicted(c, h)) for h in range(args.h_from, args.h_to + 1)]
    # every level that a row solves is solved here first, on every CPU
    _prefetch_rho_h(f, [h for h, _, signal in levels if signal > floor], args.prec)
    rows = []
    for h, predicted, signal in levels:
        row = dict.fromkeys(RHOH_COLUMNS)
        row.update(h=h, predicted=real_str(predicted))
        rows.append(row)
        if not signal > floor:
            row["status"] = "needs-more-precision"
            continue
        try:
            sol = solve_rho_h(f, h, args.prec)
        except NoConvergence:
            row["status"] = "no-convergence"
            continue
        delta = sol.rho_h - c.rho
        row.update(rho_h=real_str(sol.rho_h), delta=real_str(delta),
                   ratio=real_str(delta / predicted), status="ok")
    payload = {"command": "rhoh", "family": f.name, "rows": rows}
    _write(args, payload, RHOH_COLUMNS, rows)
    return 0 if all(row["status"] == "ok" for row in rows) else 1


# ---------------------------------------------------------------------------
# figure
# ---------------------------------------------------------------------------


def cmd_figure(args) -> int:
    panels = FIGURE_PANELS
    if args.family:
        panels = tuple(p for p in panels if p[0] == args.family)
        if not panels:
            names = ", ".join(p[0] for p in FIGURE_PANELS)
            raise ProtekError(f"no figure panel for {args.family!r}; panels: {names}")
    if args.n:
        sizes = sorted({n for _, ns in panels for n in ns})
        missing = sorted(args.n.difference(sizes))
        if missing:
            raise ProtekError(
                f"no figure panel has size {', '.join(map(str, missing))}; "
                f"panel sizes: {', '.join(map(str, sizes))}"
            )
        panels = tuple(
            (name, tuple(n for n in ns if n in args.n)) for name, ns in panels
        )
    outdir = args.out or "figures"
    os.makedirs(outdir, exist_ok=True)
    written = []
    for name, ns in panels:
        if not ns:
            continue
        f = make_builtin(name)
        # largest size first: the smaller sizes then read Y_{h,0} from the
        # columns cached by its solves
        by_n = {n: _cdf_rows(f, n, args.hmax, args.prec)
                for n in sorted(ns, reverse=True)}
        rows = [{"family": name, "n": n, **row} for n in ns for row in by_n[n]]
        path = os.path.join(outdir, f"figure_{name}.csv")
        _emit(_csv(("family", "n") + CDF_COLUMNS, rows), path)
        written.append(path)
    for path in written:
        print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _int_at_least(lo):
    """argparse type: an int >= lo; anything else exits with code 2."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < lo:
            raise argparse.ArgumentTypeError(f"must be >= {lo}, got {value}")
        return value

    return parse


def _size_set(text):
    """argparse type: a comma-separated list of sizes >= 1, as a set."""
    return {_int_at_least(1)(part) for part in text.split(",")}


def _add_family_args(p):
    group = p.add_mutually_exclusive_group()
    group.add_argument("--family", choices=BUILTIN_NAMES, help="builtin family name")
    group.add_argument(
        "--weights",
        help="finite weight sequence a0,a1,... (integers or fractions p/q)",
    )


def _add_common_args(p, table=True):
    # argparse applies ``type`` to a string default, so $PROTEK_PREC is
    # validated exactly like --prec.
    p.add_argument("--prec", type=_int_at_least(MIN_PRECISION_BITS),
                   default=os.environ.get("PROTEK_PREC") or str(DEFAULT_PRECISION_BITS),
                   help="working precision in bits, >= 64 "
                   "(default 256 or $PROTEK_PREC)")
    if table:  # figure writes CSV panels only
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
    p.add_argument("--hmax", type=_int_at_least(0), default=None)
    _add_common_args(p)
    p.set_defaults(func=cmd_cdf)

    p = sub.add_parser("expect", help="exact and asymptotic expectation")
    _add_family_args(p)
    p.add_argument("--n", type=int, required=True)
    _add_common_args(p)
    p.set_defaults(func=cmd_expect)

    p = sub.add_parser("oracle", help="brute-force cross-check of the counts")
    _add_family_args(p)
    p.add_argument("--nmax", type=_int_at_least(1), default=8)
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
    p.add_argument("--n", type=_size_set,
                   help="restrict to a comma-separated list of sizes")
    p.add_argument("--hmax", type=_int_at_least(0), default=None)
    _add_common_args(p, table=False)
    p.set_defaults(func=cmd_figure)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "rhoh" and args.h_to < args.h_from:
        parser.error("argument --h-to: must be >= --h-from")
    # exact counts of large weights print with more than the 4300 digits
    # that Python 3.11+ allows an int by default; 3.10 has no limit
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        with mp.workprec(args.prec):
            return args.func(args)
    except (ProtekError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
