"""One benchmark repetition in a fresh interpreter.

Usage: ``python3 child.py ROOT`` with a JSON job on stdin:
``{"ops": [...], "trace": bool}``, or ``{"ops": []}`` to time the import only.
ROOT is the checkout whose ``src/protek`` is imported. The working directory
is where ``figure`` writes its files.

Prints one JSON line: the monotonic time at which ``import protek.cli``
returned, and for each operation its start, end, output digest and failure
(if any), the peak RSS, and for a traced run the spans and layer metrics.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(sys.argv[1], "src"))
import protek.cli  # noqa: E402  (the import is what set-up time measures)

IMPORTED = time.clock_gettime(time.CLOCK_MONOTONIC)

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402

import mpmath  # noqa: E402

import spans  # noqa: E402

# Significant digits of rendered eta values and the precision they are
# rounded to first. eta_sequence works at the constants' precision (256 bits
# by default) plus guard bits; 60 digits keep all but a few of the 77 digits
# that 256 bits hold, so a recursion that loses accuracy changes the digest.
DIGITS = 60
RENDER_BITS = 256


def _pair(q):
    return f"{q.numerator}/{q.denominator}"


def _call(op):
    """Run one operation; returns (exit code, value to render)."""
    kind = op[0]
    if kind == "cli":
        return protek.cli.main(list(op[1:])), None
    if kind == "residuals":
        f = protek.make_builtin(op[1])
        solution = protek.solve_protection_system(f, int(op[2]), int(op[3]))
        return 0, (solution, solution.residuals())
    if kind == "eta":
        f = protek.make_builtin(op[1])
        return 0, protek.eta_sequence(protek.family_constants(f), f, int(op[2]))
    raise ValueError(f"unknown operation kind {kind!r}")


def _render(op, value):
    """Output text of a library operation, and whether its own check passed."""
    if op[0] == "residuals":
        solution, residuals = value
        lines = [",".join(_pair(c) for c in s) for s in solution.series]
        zero = all(c == 0 for r in residuals for c in r)
        lines.append(f"residuals zero: {zero}")
        return "\n".join(lines) + "\n", zero
    with mpmath.workprec(RENDER_BITS):
        return "".join(mpmath.nstr(+x, DIGITS) + "\n" for x in value), True


def _digest(op, text):
    h = hashlib.sha256(text.encode())
    if op[:2] == ("cli", "figure"):
        outdir = op[op.index("--out") + 1]
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _outcome(op, code, value, stdout):
    """(digest, error) of an operation that returned."""
    if code != 0:
        return None, f"exit code {code}"
    try:
        text, ok = (stdout, True) if op[0] == "cli" else _render(op, value)
        digest = _digest(op, text)
    except Exception as exc:
        return None, f"output check raised {type(exc).__name__}: {exc}"
    return (digest, None) if ok else (None, "nonzero residual")


def main():
    job = json.load(sys.stdin)
    result = {"imported": IMPORTED}
    if job["ops"]:
        recorder = None
        if job["trace"]:
            recorder = spans.Recorder()
            spans.install(recorder)
        ops = [tuple(op) for op in job["ops"]]
        timed = []
        for op in ops:
            out, err = io.StringIO(), io.StringIO()
            start = spans.now()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code, value = _call(op)
                error = None
            except (Exception, SystemExit) as exc:
                code, value, error = None, None, f"{type(exc).__name__}: {exc}"
            timed.append((op, start, spans.now(), code, value, out.getvalue(), error))
        # Everything below runs after the timed region.
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        records = []
        for op, start, end, code, value, stdout, error in timed:
            digest = None
            if error is None:
                digest, error = _outcome(op, code, value, stdout)
            records.append({"start": start, "end": end, "digest": digest, "error": error})
        result["ops"] = records
        if recorder is not None:
            result["layers"] = spans.layer_metrics(recorder.spans, recorder.kept)
            result["spans"] = recorder.spans
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
