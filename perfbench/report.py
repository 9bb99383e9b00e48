"""Run the benchmark over several seeds and print every metric's statistics.

    python3 perfbench/report.py --seeds 1-10
    python3 perfbench/report.py --workloads verify --seeds 1-5 --trace 1

For each workload and metric it prints the unit, the median, the first and
third quartiles, the sample count and the quartile spread as a share of the
median; then the failure ratio over every operation attempted. Each run is
``run.py`` in its own process, exactly as a single measurement is made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def main(argv=None) -> int:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runs = {}
    ok = True
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            if lines[0].startswith("machine ") and not runs:
                print(lines[0])
            result = json.loads(lines[-1])
            runs.setdefault(workload, []).append({"seed": seed, **result})
            sys.stderr.write(proc.stderr)

    for workload, results in runs.items():
        print(f"\n{workload}")
        print(f"  {'metric':38} {'unit':6} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'n':>3} {'spread':>7}")
        for name, first in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:38} {first['unit']:6} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{len(values):3d} {spread:7.3f}")
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        correct = all(r["correct"] for r in results)
        ok = ok and correct
        print(f"  {'fail_ratio':38} {'ratio':6} {failed / attempted:12.6g}   "
              f"({failed} of {attempted} operations; correct: {correct})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
