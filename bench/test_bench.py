"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import infnet  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from child import Executor, Run, write_files  # noqa: E402
from infnet.checkerboard import path_sum_kernel  # noqa: E402
from measure import beyond, percentile  # noqa: E402
from oracles import Checker, Outcome  # noqa: E402
from workloads import WORKLOADS, Op, generate, ladder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _shape(ops: list[Op], files: dict[str, str]):
    """Everything an op list feeds the program, as plain data."""
    texts = [op.expect["net"].text() if "net" in op.expect else None for op in ops]
    broken = [op.expect.get("broken_text") for op in ops]
    return [(op.kind, op.argv, op.size) for op in ops], files, texts, broken


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generators_are_deterministic(workload):
    first = _shape(*generate(workload, 7, "w"))
    assert _shape(*generate(workload, 7, "w")) == first
    assert _shape(*generate(workload, 8, "w")) != first


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_pass_keeps_ten_samples_beyond_p90(workload):
    ops, _ = generate(workload, 1, "w")
    assert beyond([float(i) for i in range(len(ops))], 90) >= 10


def test_percentile_helper():
    values = [float(v) for v in range(1, 101)]
    assert percentile(values, 50) == 50.0
    assert percentile(values, 90) == 90.0
    assert beyond(values, 90) == 10
    assert beyond(values[:99], 90) == 9


def test_metric_names_and_units_match_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.UNITS


def _one_pass(ops: list[Op], execute) -> Run:
    timed = Run(ops, execute, Checker(path_sum_kernel))
    timed.one_pass()
    return timed


def test_corrupted_csv_counts_as_failed(tmp_path):
    out, trace = str(tmp_path / "f.csv"), str(tmp_path / "t.csv")
    op = Op("propagate", ["propagate", "--steps", "14", "--out", out, "--trace", trace], 14,
            (out, trace), {"steps": 14, "theta": 0.7853981633974483, "initial": "P"})
    execute = Executor(infnet)
    assert _one_pass([op], execute).failed == 0

    def corrupting(op):
        outcome = execute(op)
        with open(out, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        t, x, prob_p, prob_q, total = lines[40].split(",")
        lines[40] = ",".join((t, x, repr(float(prob_p) * 1.001), prob_q, total))
        with open(out, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return outcome

    timed = _one_pass([op], corrupting)
    assert (timed.attempted, timed.failed) == (1, 1)


def test_wrong_distance_line_counts_as_failed(tmp_path):
    import random

    net, _ = ladder(random.Random(0), 40, 3)
    path = str(tmp_path / "l.net")
    write_files({path: net.text()})
    op = Op("distance", ["distance", path, "--p-label", "2", "--q-label", "5"], net.n,
            expect={"net": net, "separation": 3})
    assert _one_pass([op], Executor(infnet)).failed == 0
    timed = _one_pass([op, op], lambda op: Outcome(0, "distance 5/2\n"))
    assert (timed.attempted, timed.failed) == (2, 2)
