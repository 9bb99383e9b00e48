"""Self-test of the benchmark harness on a tiny operation list per workload.

Run with ``python3 perfbench/run.py --selftest``. For each workload it shows
that a wrong expected digest counts as a failure, that every metric named in
``BENCHMARK.json`` is printed with its unit, that the self times of the
layers add up to the traced wall time within ``GAP_PER_OP_S`` per operation,
and that the counts which must repeat do repeat.
"""

from __future__ import annotations

import json
import os

import run
import spans
import workloads

TINY = {
    "exact-rational": ["cli cdf --weights 1,1/2,1/3 --n 14"],
    "exact-integer": ["cli expect --family plane --n 20",
                      "cli figure --family riordan --out fig-riordan"],
    "verify": ["cli oracle --family cayley --nmax 6", "residuals plane 3 12"],
    "asymptotics": ["cli rhoh --family complete-binary --h-from 2 --h-to 4",
                    "cli constants --family riordan", "eta riordan 8"],
}
# Time outside every layer span allowed per operation: redirecting and timing
# the operation, and the tracer's own bookkeeping around its outermost span.
# Tens of microseconds are measured; missed work shows up as more.
GAP_PER_OP_S = 2e-4
# Catalan(n - 1) plane trees on n vertices.
PLANE_TREES = {1: 1, 2: 1, 3: 2, 4: 5, 8: 429, 12: 58786}


def _printed_units(metrics) -> dict:
    line = json.dumps({"metrics": metrics})
    return {name: m["unit"] for name, m in json.loads(line)["metrics"].items()}


def _declared_units(kind) -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def check_workload(workload) -> list:
    problems = []
    ops = [tuple(text.split()) for text in TINY[workload]]
    plain = run.spawn(ops)
    expected = {workloads.op_key(op): r["digest"] for op, r in zip(ops, plain["ops"])}
    failures = run.check(ops, plain, expected)
    if failures:
        problems.append(f"operations failed: {failures}")
    wrong = dict(expected, **{workloads.op_key(ops[0]): "0" * 64})
    if len(run.check(ops, plain, wrong)) != 1:
        problems.append("a wrong expected digest was not counted as one failure")

    traced = [run.spawn(ops, trace=True) for _ in range(2)]
    problems += run.repeat_mismatches(traced)
    reps = traced + [plain]
    printed = {
        "end_to_end": _printed_units(run.with_units(
            run.end_to_end(reps, [plain["setup_s"]]), run.END_TO_END)),
        "per_layer": _printed_units(run.with_units(run.per_layer(reps), run.PER_LAYER)),
    }
    for kind, units in printed.items():
        if units != _declared_units(kind):
            problems.append(f"{kind} printed {units}, declared {_declared_units(kind)}")

    traced_wall, plain_wall = run.wall(traced[0]), run.wall(plain)
    overhead = traced_wall / plain_wall - 1
    gap = run.untraced(traced[0])
    if not 0 <= gap <= GAP_PER_OP_S * len(ops):
        problems.append(
            f"layer self times leave {gap:.6f} s of the traced wall {traced_wall:.6f} s "
            f"unattributed, overhead {overhead:+.3f}"
        )
    print(f"{workload}: {len(ops)} ops, traced wall {traced_wall:.4f} s, "
          f"unattributed {gap * 1e3:.3f} ms, overhead {overhead:+.3f}")
    return problems


def main() -> int:
    problems = []

    class Plane:
        @staticmethod
        def weight(j):
            return 1

    for n, trees in PLANE_TREES.items():
        if spans.count_trees(Plane, n) != trees:
            problems.append(f"count_trees(plane, {n}) != {trees}")
    for workload in workloads.WORKLOADS:
        problems += [f"{workload}: {p}" for p in check_workload(workload)]
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0
