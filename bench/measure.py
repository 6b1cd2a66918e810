"""Small statistics helpers shared by the runner, the tracer and the tools."""

from __future__ import annotations

import gc
import math
import statistics
from time import perf_counter

# What reference_time() reads on the machine the baseline was measured on
# (2-core VM, Python 3.11.7); op latencies are reported at this speed.
REFERENCE_S = 0.9e-3


def _reference_work() -> int:
    table = {}
    for i in range(1200):
        table[f"e{i}"] = (i * 7919) % 1009
    total = 0
    for key, value in sorted(table.items(), key=lambda kv: kv[1]):
        total += len(key) * value
    return total


def reference_time() -> float:
    """Seconds a fixed pure-Python workload takes right now.

    The CPU speed of a shared VM drifts by tens of percent over minutes;
    an op's latency times REFERENCE_S / reference_time() (measured around
    the op) is its latency at a fixed reference speed.  The garbage
    collector is off meanwhile, so the program's heap cannot move it.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        _reference_work()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank q-th percentile (0 < q <= 100)."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


def beyond(values: list[float], q: float) -> int:
    """How many samples lie strictly above the nearest-rank q-th percentile."""
    cut = percentile(values, q)
    return sum(1 for v in values if v > cut)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(Q1, median, Q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def growth_exponent(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(y) on log(x); 0 with fewer than 3 sizes."""
    points = [(x, y) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in points}) < 3:
        return 0.0
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
