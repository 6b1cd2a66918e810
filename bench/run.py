"""infnet benchmark: one seeded workload, end-to-end or traced per layer.

    python3 bench/run.py --workload particle --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; infnet is imported from its `src/`.
Workloads (see workloads.py and BENCHMARK.json for why each exists):

  particle       propagate / simulate / enumerate: checkerboard stepping,
                 CSV formatting, word sampling; no network code at all
  geometry-read  validate / quantify / distance / interval on coordinated
                 ladders: parse, bulk closure, projections, coordination
  network-build  incremental builds, dumps, validate and hasse on random
                 restricted-mode networks, one in eight with a broken rule

The loop is closed with one client: each op starts when the previous one
returns.  Each run happens in a fresh child process with BLAS/OpenMP
pinned to one thread and INFNET_SEED unset (it would override --seed).

With --trace 0 the last line holds the end-to-end metrics:

  setup_s      child start to first timed op (import, inputs, one warm-up
               op per kind); median over SETUP_RUNS fresh processes
  wall_s       time of the whole op list
  op_p50_s     op latency, median and 90th percentile over the op list
  op_p90_s     (>= 100 ops, so >= 10 lie beyond p90)

Each op runs once per pass; the three figures above use each op's median
latency over the passes.
  peak_rss_mb  the measuring child's peak resident set
  ok_ratio     ops whose exit code and output passed the oracles, over
               ops attempted; `failed` counts the rest

Op latencies are wall-clock times rescaled to a fixed CPU speed: each is
multiplied by REFERENCE_S over the time a fixed pure-Python loop takes
around that op (measure.reference_time).  On a shared 2-core VM the CPU
speed drifts by up to 25% between runs, which raw times carry straight
into the spread; the rescaled times cancel most of it.  setup_s is rescaled
by readings taken right after set-up.  The unscaled pass times are
printed on the `samples:` line.

With --trace 1 it holds the per-layer metrics of layers.py instead.

`hasse` runs only on valid networks: on a --force-loaded invalid file it
has no defined correct output yet, so its output cannot be checked.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from statistics import median

import layers
from measure import beyond, percentile
from workloads import WORKLOADS

SETUP_RUNS = 7  # the measuring child plus six setup-only children
DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("INFNET_SEED", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    # No bytecode cache is written, so every run compiles infnet alike.
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Run child.py once in a fresh process and return its JSON result."""
    child = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
    argv = [sys.executable, child, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), *extra]
    t0 = time.monotonic()
    proc = subprocess.run(argv + ["--t0", repr(t0)], capture_output=True, text=True,
                          env=child_env(), timeout=max(1.0, deadline - t0))
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def per_op(latencies: list[float], ops_per_pass: int) -> list[float]:
    """Each op's median latency over the passes.

    Medians per op keep a slow spell of the machine during one pass from
    moving the totals and percentiles built on them.
    """
    return [median(latencies[i::ops_per_pass]) for i in range(ops_per_pass)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "infnet", "__init__.py")):
        print("run from the root of an infnet checkout: src/infnet is missing", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = []
        if not args.trace:
            setups = [spawn(args, ["--setup-only"], deadline)["setup_s"] for _ in range(SETUP_RUNS - 1)]
        result = spawn(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    latencies = per_op(result["latencies"], result["ops_per_pass"])
    tail = beyond(latencies, 90)
    correct = result["failed"] == 0 and tail >= 10 and result.get("self_time_error", 0.0) < 1e-6
    for problem in result["problems"]:
        print(f"failed op: {problem}", file=sys.stderr)
    print(f"samples: ops={len(result['latencies'])} ops_per_pass={result['ops_per_pass']} "
          f"passes={len(result['walls'])} beyond_p90={tail} setups={len(setups)} "
          f"pass_walls={' '.join(f'{w:.3f}' for w in result['walls'])} "
          f"raw_pass_walls={' '.join(f'{w:.3f}' for w in result['raw_walls'])}")
    if args.trace:
        values = result["layers"]
        units = layers.UNITS
        if result["untraced_names"]:
            print(f"not traced (absent): {' '.join(result['untraced_names'])}")
    else:
        values = {
            "setup_s": median(setups),
            "wall_s": sum(latencies),
            "op_p50_s": percentile(latencies, 50),
            "op_p90_s": percentile(latencies, 90),
            "peak_rss_mb": result["peak_rss_mb"],
            "ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        }
        units = END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
