"""Benchmark of protek: seeded CLI workloads, byte-exact output gate, traced layers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exact-rational --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest
    python3 perfbench/run.py --record

A run first times a few bare imports, then repeats the workload's operation
list, each repetition in a fresh interpreter (``child.py``) so that every
list starts with cold module caches, until about ``--seconds`` have passed.
At least one repetition runs (three with ``--trace 1``). Every operation's
output is hashed and compared with ``digests.json``; an operation fails if
it raises, exits nonzero, leaves a nonzero residual or its digest differs.

With ``--trace 0`` the repetitions run untraced and the last line reports
the end-to-end metrics, each the median over repetitions (``op_max_s`` is
the largest of the operations' medians). With ``--trace 1`` traced and
untraced repetitions alternate; the last line reports the per-layer metrics
(medians over traced repetitions) and the tracing overhead, and the spans
are written to ``.perfbench/``.

``--record`` hashes every operation any seed can pick and rewrites
``digests.json``. The recorded digests are the reference outputs; a change
that is meant to keep outputs byte-identical must not re-record them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
WORK = os.path.join(ROOT, ".perfbench")
DIGESTS = os.path.join(HERE, "digests.json")
CHILD_TIMEOUT_S = 150
SETUP_SAMPLES = 5

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_max_s": "s",
    "peak_rss_mb": "MiB",
}
PER_LAYER = {
    "counting.self_s": "s",
    "counting.bounded_count.calls": "count",
    "counting.bounded_count.p50_s": "s",
    "counting.bounded_count.max_s": "s",
    "counting.rows_per_s": "1/s",
    "counting.max_count_bits": "bits",
    "series.self_s": "s",
    "series.compose_phi.calls": "count",
    "oracle.self_s": "s",
    "oracle.oracle_distribution.calls": "count",
    "oracle.trees": "count",
    "oracle.trees_per_s": "1/s",
    "asymptotics.self_s": "s",
    "asymptotics.family_constants.s": "s",
    "asymptotics.family_constants.calls": "count",
    "asymptotics.solve_rho_h.calls": "count",
    "asymptotics.solve_rho_h.p50_s": "s",
    "asymptotics.solve_rho_h.max_s": "s",
    "asymptotics.eta_sequence.s": "s",
    "asymptotics.cdf_asymptotic.calls": "count",
    "families.self_s": "s",
    "textfmt.self_s": "s",
    "textfmt.calls": "count",
    "cli.self_s": "s",
    "untraced_s": "s",
    "trace_overhead": "ratio",
}
# Counts that must repeat exactly between traced repetitions of one list.
REPEATING = (
    "counting.bounded_count.calls",
    "series.compose_phi.calls",
    "textfmt.calls",
    "oracle.trees",
)


class HarnessError(Exception):
    pass


def machine_facts() -> dict:
    import mpmath
    import mpmath.libmp

    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
    }


def spawn(ops, trace=False) -> dict:
    """Run one repetition of ``ops`` in a fresh interpreter."""
    workdir = os.path.join(WORK, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    job = json.dumps({"ops": [list(op) for op in ops], "trace": trace})
    started = spans.now()
    with subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), ROOT],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=workdir,
        text=True,
    ) as proc:
        try:
            out, err = proc.communicate(job, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise HarnessError(f"repetition exceeded {CHILD_TIMEOUT_S} s")
    finished = spans.now()
    if proc.returncode != 0 or not out.strip():
        raise HarnessError(f"child exited with {proc.returncode}: {err.strip()[-2000:]}")
    rep = json.loads(out.strip().splitlines()[-1])
    rep["setup_s"] = rep["imported"] - started
    rep["elapsed_s"] = finished - started
    rep["trace"] = trace
    return rep


def check(ops, rep, expected) -> list:
    """Failure messages of one repetition against the expected digests."""
    failures = []
    for op, record in zip(ops, rep["ops"]):
        key = workloads.op_key(op)
        if record["error"] is not None:
            failures.append(f"{key}: {record['error']}")
        elif record["digest"] != expected.get(key):
            failures.append(f"{key}: output digest {record['digest']} differs")
    return failures


def wall(rep) -> float:
    return rep["ops"][-1]["end"] - rep["ops"][0]["start"]


def end_to_end(reps, setup_samples) -> dict:
    """Medians over repetitions. The fastest repetition was tried first: it
    depends on whether a run happens to catch a quiet moment of a shared
    machine, and spread two to three times as much from seed to seed."""
    plain = [r for r in reps if not r["trace"]]
    durations = [[o["end"] - o["start"] for o in r["ops"]] for r in plain]
    return {
        "wall_s": statistics.median(wall(r) for r in plain),
        "setup_s": statistics.median(setup_samples),
        "op_max_s": max(statistics.median(per_op) for per_op in zip(*durations)),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
    }


def untraced(rep) -> float:
    """Traced wall time outside every layer span: glue between operations,
    and any work the tracer misses."""
    return wall(rep) - sum(rep["layers"][f"{layer}.self_s"] for layer in spans.LAYERS)


def per_layer(reps) -> dict:
    traced = [r for r in reps if r["trace"]]
    plain = [r for r in reps if not r["trace"]]
    metrics = {}
    for name in PER_LAYER:
        if name not in ("untraced_s", "trace_overhead"):
            values = [r["layers"][name] for r in traced]
            counted = isinstance(values[0], int)
            metrics[name] = (statistics.median_low if counted else statistics.median)(values)
    metrics["untraced_s"] = statistics.median(map(untraced, traced))
    metrics["trace_overhead"] = (
        statistics.median(map(wall, traced)) / statistics.median(map(wall, plain)) - 1
    )
    return metrics


def repeat_mismatches(reps) -> list:
    traced = [r["layers"] for r in reps if r["trace"]]
    return [
        f"{name} differs between traced repetitions: {[t[name] for t in traced]}"
        for name in REPEATING
        if len({t[name] for t in traced}) > 1
    ]


def with_units(values, units) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def write_spans(workload, seed, reps):
    rows = []
    for run, rep in enumerate(reps):
        if rep["trace"]:
            rows.extend([run] + span for span in rep["spans"])
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-{seed}.json")
    with open(path, "w") as fh:
        json.dump({"workload": workload, "seed": seed,
                   "columns": ["run", "name", "start", "end", "parent"],
                   "spans": rows}, fh)


def measure(workload, seed, seconds, trace, expected) -> dict:
    deadline = spans.now() + seconds
    ops = workloads.operations(workload, seed)
    spawn([])                       # warm-up: bytecode caches of a fresh checkout
    setup_samples = [spawn([])["setup_s"] for _ in range(SETUP_SAMPLES)]
    reps, failures = [], []
    min_reps = 3 if trace else 1    # traced, untraced, traced: counts must repeat
    while True:
        rep = spawn(ops, trace=trace and len(reps) % 2 == 0)
        reps.append(rep)
        setup_samples.append(rep["setup_s"])
        failures += check(ops, rep, expected)
        # Start another repetition if it is expected to end no later than
        # half a repetition after the deadline, so runs last --seconds on average.
        typical = statistics.median(r["elapsed_s"] for r in reps)
        if len(reps) >= min_reps and spans.now() + typical / 2 > deadline:
            break
    mismatches = []
    if trace:
        metrics = with_units(per_layer(reps), PER_LAYER)
        mismatches = repeat_mismatches(reps)
        write_spans(workload, seed, reps)
    else:
        metrics = with_units(end_to_end(reps, setup_samples), END_TO_END)
    for message in failures + mismatches:
        print(f"FAIL {message}", file=sys.stderr)
    return {
        "correct": not failures and not mismatches,
        "attempted": len(ops) * len(reps),
        "failed": len(failures),
        "metrics": metrics,
    }


def load_digests() -> dict:
    if not os.path.isfile(DIGESTS):
        raise HarnessError(f"missing {DIGESTS}")
    with open(DIGESTS) as fh:
        return json.load(fh)


def record():
    digests = {}
    for workload in workloads.WORKLOADS:
        ops = workloads.all_operations(workload)
        rep = spawn(ops)
        for op, r in zip(ops, rep["ops"]):
            if r["error"] is not None:
                raise HarnessError(f"{workloads.op_key(op)}: {r['error']}")
            digests[workloads.op_key(op)] = r["digest"]
            print(f"{r['end'] - r['start']:8.3f} s  {workloads.op_key(op)}")
    with open(DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")


def check_checkout():
    if not os.path.isfile(os.path.join(ROOT, "src", "protek", "__init__.py")):
        raise HarnessError(f"no protek sources under {os.path.join(ROOT, 'src')}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    try:
        check_checkout()
        if args.record:
            record()
            return 0
        if args.selftest:
            import selftest

            return selftest.main()
        if args.workload is None:
            parser.error("--workload is required")
        expected = load_digests()
        print("machine " + json.dumps(machine_facts()))
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace), expected)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
