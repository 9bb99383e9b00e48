"""Seeded operation lists for the four benchmark workloads.

A workload is a fixed sequence of slots. Each slot holds a small pool of
operations of about the same cost; the seed picks one operation per slot.
Seed 0 picks the first entry of every pool, which is the reference list.
Every operation any seed can pick has a recorded output digest in
``digests.json``.

An operation is a tuple of strings:

* ``("cli", arg, ...)``: ``protek.cli.main([arg, ...])`` with stdout captured.
* ``("residuals", family, h, order)``: ``solve_protection_system`` followed by
  ``residuals()``; the solved coefficients are the output and every residual
  must be zero.
* ``("eta", family, kmax)``: ``eta_sequence(family_constants(f), f, kmax)``.

``figure`` writes its CSV files to ``fig-<family>``, relative to the working
directory of the process that runs the operation.
"""

from __future__ import annotations

import random


def _cli(text):
    return ("cli",) + tuple(text.split())


def _figure(family, sizes=""):
    return _cli(f"figure --family {family} {sizes} --out fig-{family}")


# The last slots of every workload: tiny calls that reach every traced layer, so
# each per-layer metric is measured on every workload (about 1% of the work).
PROBES = [
    [_cli("oracle --family plane --nmax 5")],
    [("residuals", "plane", "2", "6")],
    [_cli("rhoh --family plane --h-from 2 --h-to 3")],
    [("eta", "plane", "3")],
]

# Sizes are scaled down from the full CLI runs (figure, expect --n 200,
# oracle --nmax 12) so that one repetition takes two to three seconds and a
# run of --seconds holds about ten. Pools vary only the output format, and
# the working precision where it feeds no more than the printed asymptotic
# column; such entries make within 1.3% of the function calls of the first
# entry of their slot. Entries that changed sizes, h ranges or weights made
# up to 17% fewer or more calls, so the seed changed how much work a run
# measured.
WORKLOADS = {
    "exact-rational": {
        "why": "the Fraction path of the counting kernel does almost all the "
        "work (cayley and fractional --weights)",
        # expect runs first: after cdf at a larger n its columns would be cached.
        "slots": [
            [_cli("expect --family cayley --n 28"),
             _cli("expect --family cayley --n 28 --format json"),
             _cli("expect --family cayley --n 28 --prec 320")],
            [_cli("cdf --family cayley --n 40"),
             _cli("cdf --family cayley --n 40 --format json"),
             _cli("cdf --family cayley --n 40 --prec 320")],
            [_cli("cdf --weights 1,1/2,1/3 --n 40"),
             _cli("cdf --weights 1,1/2,1/3 --n 40 --format json"),
             _cli("cdf --weights 1,1/2,1/3 --n 40 --prec 320")],
        ] + PROBES,
    },
    "exact-integer": {
        "why": "the counting kernel runs hundreds of small solves on plain ints "
        "(plane, pruned-binary, riordan and binary panels)",
        "slots": [
            [_cli("expect --family plane --n 76"),
             _cli("expect --family plane --n 76 --format json"),
             _cli("expect --family plane --n 76 --prec 320")],
            [_figure("pruned-binary", "--n 20,100")],
            [_figure("plane")],
            [_figure("riordan")],
            [_figure("complete-binary")],
        ] + PROBES,
    },
    "verify": {
        "why": "the two independent checks do the work: oracle enumeration "
        "and residual substitution through the series Horner composition",
        "slots": [
            [_cli("oracle --family plane --nmax 11"),
             _cli("oracle --family plane --nmax 11 --format json")],
            [_cli("oracle --family cayley --nmax 11"),
             _cli("oracle --family cayley --nmax 11 --format json")],
            [("residuals", "plane", "5", "32")],
            [("residuals", "cayley", "4", "24")],
        ] + PROBES,
    },
    "asymptotics": {
        "why": "mpmath work with no exact series: rho_h Newton solves, "
        "constants at 4096 bits and the eta recursion",
        "slots": [
            [_cli("rhoh --family cayley --h-from 2 --h-to 14 --prec 1024"),
             _cli("rhoh --family cayley --h-from 2 --h-to 14 --prec 1024 --format json")],
            [_cli("rhoh --family plane --h-from 2 --h-to 24 --prec 1024"),
             _cli("rhoh --family plane --h-from 2 --h-to 24 --prec 1024 --format json")],
            [_cli("rhoh --family complete-binary --h-from 2 --h-to 6 --prec 1024"),
             _cli("rhoh --family complete-binary --h-from 2 --h-to 6 --prec 1024 --format json")],
            [_cli("constants --family cayley --prec 4096"),
             _cli("constants --family cayley --prec 4096 --format json")],
            [_cli("constants --family riordan --prec 4096"),
             _cli("constants --family riordan --prec 4096 --format json")],
            [("eta", "riordan", "17")],
        ] + PROBES,
    },
}


def operations(workload: str, seed: int) -> list:
    """The operation list of one workload for one seed."""
    slots = WORKLOADS[workload]["slots"]
    if seed == 0:
        return [pool[0] for pool in slots]
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(pool) for pool in slots]


def all_operations(workload: str) -> list:
    """Every operation any seed can pick, in slot order."""
    return [op for pool in WORKLOADS[workload]["slots"] for op in pool]


def op_key(op) -> str:
    return " ".join(op)
