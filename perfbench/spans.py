"""Span recording from outside the protek package, and per-layer metrics.

``install`` wraps the public functions of the traced modules and patches
every name bound to one of them in every loaded ``protek`` module, so calls
made through ``from .x import f`` bindings are recorded too. It also wraps
the public methods of their public classes, so that work such as the series
arithmetic of ``ProtectionSeriesSet.residuals`` is inside a span. Per-tree
and per-coefficient hot paths (``max_protection``, ``OrderedTree``, the
composers, ``phi_eval``) and generator functions are left alone.

A span is ``[name, start, end, parent]``; ``parent`` is the index of the
enclosing span, or -1. The spans stay in memory and are handed back when
the run ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

LAYERS = ("cli", "counting", "series", "oracle", "asymptotics", "families", "textfmt")
SKIP = {"protek.oracle.max_protection", "protek.oracle.OrderedTree"}
# Calls whose arguments or results are kept for counts made after the run.
KEEP = {"counting.bounded_count", "oracle.oracle_distribution"}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Recorder:
    def __init__(self):
        self.spans = []
        self.kept = []        # (span index, args, result)
        self._stack = [-1]

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, now(), 0.0, self._stack[-1]])
        self._stack.append(idx)
        return idx

    def _close(self, idx):
        self.spans[idx][2] = now()
        self._stack.pop()

    def wrap(self, name, fn):
        keep = name in KEEP

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if keep:
                self.kept.append((idx, args, result))
            return result

        return traced


def _public(namespace, module, prefix, kind):
    """(name, object) of the public ``kind`` objects ``module`` defines."""
    for attr, obj in list(vars(namespace).items()):
        if (
            not attr.startswith("_")
            and kind(obj)
            and obj.__module__ == module.__name__
            and not inspect.isgeneratorfunction(obj)
            and f"protek.{prefix}.{attr}" not in SKIP
        ):
            yield f"{prefix}.{attr}", obj


def install(recorder: Recorder):
    """Wrap the layers' public functions and methods and patch every binding
    of the functions."""
    wrapped = {}
    for layer in LAYERS:
        module = sys.modules[f"protek.{layer}"]
        for name, obj in _public(module, module, layer, inspect.isfunction):
            wrapped[id(obj)] = recorder.wrap(name, obj)
        for cls_name, cls in _public(module, module, layer, inspect.isclass):
            for name, obj in _public(cls, module, cls_name, inspect.isfunction):
                setattr(cls, name.rsplit(".", 1)[1], recorder.wrap(name, obj))
    for modname, module in list(sys.modules.items()):
        if modname != "protek" and not modname.startswith("protek."):
            continue
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(module, attr, wrapped[id(obj)])


def count_trees(f, n: int) -> int:
    """Number of outdegree words the oracle enumerates for size n.

    Counts sequences d_1..d_n over the outdegrees of nonzero weight below n
    that sum to n - 1; by the cycle lemma exactly one in n of them is a
    Lukasiewicz word.
    """
    allowed = [j for j in range(n) if f.weight(j) != 0]
    ways = [1] + [0] * (n - 1)          # ways[s]: words so far with sum s
    for _ in range(n):
        nxt = [0] * n
        for s, w in enumerate(ways):
            if w:
                for j in allowed:
                    if s + j < n:
                        nxt[s + j] += w
        ways = nxt
    return ways[n - 1] // n


def _fraction_bits(q) -> int:
    return max(q.numerator.bit_length(), q.denominator.bit_length())


def layer_metrics(spans, kept) -> dict:
    """Per-layer metrics of one traced repetition."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    self_s = {layer: 0.0 for layer in LAYERS}
    durations = {}
    for i, (name, start, end, parent) in enumerate(spans):
        self_s[name.split(".", 1)[0]] += (end - start) - child_time[i]
        durations.setdefault(name, []).append(end - start)

    def calls(name):
        return len(durations.get(name, ()))

    def total(name):
        return sum(durations.get(name, ()))

    def p50(name):
        ds = durations.get(name)
        return statistics.median(ds) if ds else 0.0

    def peak(name):
        return max(durations.get(name, ()), default=0.0)

    def per_s(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    trees = 0
    count_bits = 0
    for idx, args, result in kept:
        name = spans[idx][0]
        if name == "oracle.oracle_distribution":
            trees += count_trees(args[0], args[1])
        else:
            count_bits = max(count_bits, _fraction_bits(result))

    rows = calls("counting.bounded_count") + calls("counting.expectation_exact")
    textfmt_calls = sum(len(v) for k, v in durations.items() if k.startswith("textfmt."))
    return {
        "counting.self_s": self_s["counting"],
        "counting.bounded_count.calls": calls("counting.bounded_count"),
        "counting.bounded_count.p50_s": p50("counting.bounded_count"),
        "counting.bounded_count.max_s": peak("counting.bounded_count"),
        "counting.rows_per_s": per_s(rows, self_s["counting"]),
        "counting.max_count_bits": count_bits,
        "series.self_s": self_s["series"],
        "series.compose_phi.calls": calls("series.compose_phi"),
        "oracle.self_s": self_s["oracle"],
        "oracle.oracle_distribution.calls": calls("oracle.oracle_distribution"),
        "oracle.trees": trees,
        "oracle.trees_per_s": per_s(trees, self_s["oracle"]),
        "asymptotics.self_s": self_s["asymptotics"],
        "asymptotics.family_constants.s": total("asymptotics.family_constants"),
        "asymptotics.family_constants.calls": calls("asymptotics.family_constants"),
        "asymptotics.solve_rho_h.calls": calls("asymptotics.solve_rho_h"),
        "asymptotics.solve_rho_h.p50_s": p50("asymptotics.solve_rho_h"),
        "asymptotics.solve_rho_h.max_s": peak("asymptotics.solve_rho_h"),
        "asymptotics.eta_sequence.s": total("asymptotics.eta_sequence"),
        "asymptotics.cdf_asymptotic.calls": calls("asymptotics.cdf_asymptotic"),
        "families.self_s": self_s["families"],
        "textfmt.self_s": self_s["textfmt"],
        "textfmt.calls": textfmt_calls,
        "cli.self_s": self_s["cli"],
    }
