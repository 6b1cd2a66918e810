"""Run the benchmark over several seeds and record the results in one file.

    python3 bench/sweep.py --seeds 1-10 --out results.json
    python3 bench/sweep.py --workloads particle --seeds 1-5 --trace-seed 1 --out r.json

Run from the root of a checkout.  Prints, per workload and end-to-end
metric, the median, the quartiles and the spread (interquartile distance
over the median) next to the bound from BENCHMARK.json; a spread must stay
under a third of its bound for the benchmark to count as steady.  The
output file is what compare.py reads, and it records the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

from measure import quartiles, spread
from workloads import WORKLOADS

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "processor": platform.processor() or platform.machine(),
    }


def summarize(runs: dict[str, list[dict]], bounds: dict[str, float]) -> None:
    for workload, results in runs.items():
        print(f"{workload}  ({len(results)} runs)")
        for name in results[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in results]
            q1, q2, q3 = quartiles(values)
            bound = bounds.get(name)
            share = spread(values)
            verdict = "" if bound is None else ("steady" if share < bound / 3 else "NOT steady")
            print(f"  {name:14s} median {q2:.6g}  Q1 {q1:.6g}  Q3 {q3:.6g}  "
                  f"spread {share:.4f}  bound {bound}  {verdict}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--trace-seed", type=int, default=None, help="also make one traced run per workload")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"machine": machine(), "seconds": seconds, "seeds": args.seeds, "runs": {}, "traced": {}}
    for workload in args.workloads:
        record["runs"][workload] = []
        for seed in args.seeds:
            result = run_once(workload, seed, seconds, 0)
            record["runs"][workload].append({"seed": seed, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}",
                  file=sys.stderr)
        if args.trace_seed is not None:
            record["traced"][workload] = run_once(workload, args.trace_seed, seconds, 1)
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    summarize(record["runs"], bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
