"""One workload run in a fresh process; started by run.py, not by hand.

Imports infnet from `src/` under the current directory, generates the
workload's inputs from the seed, runs one warm-up op per op kind, then runs
the op list in passes, one op at a time (a closed loop with one client),
until `--seconds` of op time is spent.  Latencies are rescaled to the
reference CPU speed (measure.reference_time).  Outputs are checked outside
every timed region: the first pass against the oracles, later passes
against the first pass's digest.  With `--trace 1` the first half of the
budget runs untraced and the second half under the tracer.  Prints one
JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from statistics import fmean, median
from time import perf_counter

import layers
from measure import REFERENCE_S, reference_time
from oracles import Checker, Outcome, closure_density
from tracer import Tracer
from workloads import Op, generate, warmups

WORK_DIR = ".bench_work"


def import_infnet(root: str):
    """infnet from this checkout's src/, never from anywhere else."""
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import infnet

    if not os.path.abspath(infnet.__file__).startswith(src + os.sep):
        raise ImportError(f"infnet was imported from {infnet.__file__}, not from {src}")
    return infnet


class Executor:
    """Runs one op: `cli.main` with captured streams, or a library build."""

    def __init__(self, infnet):
        from infnet import cli, netformat

        self.cli, self.netformat, self.network = cli, netformat, infnet.InfluenceNetwork

    def __call__(self, op: Op) -> Outcome:
        if op.kind == "build":
            return self.build(op)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(op.argv)
        return Outcome(code, out.getvalue(), err.getvalue())

    def build(self, op: Op) -> Outcome:
        spec, homes = op.expect["net"], op.expect["homes"]
        net = self.network(spec.mode)
        for name in sorted(spec.chains):
            net.add_chain(name)
        for home in homes:
            net.add_event(home)
        for source, target in spec.cross:
            net.add_influence(source, target)
        net.finalize()
        with open(op.files[0], "w", encoding="utf-8") as handle:
            handle.write(self.netformat.dumps(net))
        return Outcome(0, net=net)


class Run:
    """The timed loop with its bookkeeping."""

    def __init__(self, ops: list[Op], execute, check):
        self.ops, self.execute, self.check = ops, execute, check
        self.digests: dict[int, str] = {}
        self.bad: set[int] = set()
        self.latencies: list[float] = []
        self.latencies_by_kind: dict[str, list[float]] = {}
        self.walls: list[float] = []
        self.raw_walls: list[float] = []
        self.attempted = self.failed = 0
        self.output_bytes = 0
        self.problems: list[str] = []

    def one_pass(self, tracer: Tracer | None = None) -> float:
        """Run the op list once; return its time at the reference CPU speed.

        reference_time() is read before the first op and after every op,
        outside the timed region.  Op i is scaled by the median of the four
        readings nearest to it, so one disturbed reading cannot move it.
        """
        first = not self.walls
        refs = [reference_time()]
        raw = []
        for i, op in enumerate(self.ops):
            start = perf_counter()
            try:
                if tracer is None:
                    outcome = self.execute(op)
                else:
                    outcome = tracer.root(i, op.kind, lambda: self.execute(op))
            except Exception as exc:  # an op that raises is a failed op
                outcome = Outcome(-1, stderr=repr(exc))
            raw.append(perf_counter() - start)
            # Everything below is outside the timed region.
            self.settle(i, op, outcome, first)
            refs.append(reference_time())
        latencies = [t * REFERENCE_S / median(refs[max(0, i - 1):i + 3]) for i, t in enumerate(raw)]
        for op, latency in zip(self.ops, latencies):
            self.latencies.append(latency)
            if tracer is None:
                self.latencies_by_kind.setdefault(op.kind, []).append(latency)
        self.attempted += len(raw)
        self.raw_walls.append(sum(raw))
        self.walls.append(sum(latencies))
        return self.walls[-1]

    def settle(self, i: int, op: Op, outcome: Outcome, first: bool) -> None:
        for path in op.files:
            try:
                with open(path, encoding="utf-8") as handle:
                    outcome.files[path] = handle.read()
            except OSError:
                outcome.files[path] = ""
        digest = hashlib.blake2b(repr((outcome.code, outcome.stdout, outcome.files)).encode()).hexdigest()
        if first:
            problem = f"raised {outcome.stderr}" if outcome.code == -1 else self.check(op, outcome)
            self.digests[i] = digest
            self.output_bytes += len(outcome.stdout) + sum(len(t) for t in outcome.files.values())
            if problem:
                self.bad.add(i)
        else:
            problem = "output differs from the first pass" if digest != self.digests[i] else None
            if i in self.bad:
                problem = "failed in the first pass"
        if problem:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{op.kind} {' '.join(op.argv[:3])}: {problem}")
        broken = op.expect.get("broken_text") if op.kind == "build" else None
        if broken is not None:
            with open(op.files[0], "w", encoding="utf-8") as handle:
                handle.write(broken)

    def loop(self, seconds: float, tracer: Tracer | None = None) -> list[float]:
        """Whole passes until the next would overrun `seconds` of op time
        (at least one); returns the passes' times at the reference speed."""
        first = len(self.walls)
        while len(self.walls) == first or sum(self.raw_walls[first:]) + fmean(self.raw_walls[first:]) <= seconds:
            self.one_pass(tracer)
        return self.walls[first:]


def write_files(files: dict[str, str]) -> None:
    for path, text in files.items():
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--t0", type=float, required=True, help="parent's time.monotonic() at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    infnet = import_infnet(root)
    work_root = os.path.join(root, WORK_DIR)
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=work_root)
    try:
        result = measure(args, infnet, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(work_root)
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result))
    return 0


def measure(args, infnet, workdir: str) -> dict:
    ops, files = generate(args.workload, args.seed, workdir)
    warm_ops, warm_files = warmups(args.workload, workdir)
    write_files({**files, **warm_files})
    execute = Executor(infnet)
    for op in warm_ops:
        execute(op)
    # Rescaled to the reference CPU speed like op latencies, by readings
    # taken right after set-up.
    setup_s = (time.monotonic() - args.t0) * REFERENCE_S / median(reference_time() for _ in range(5))
    if args.setup_only:
        return {"setup_s": setup_s}

    from infnet import checkerboard

    checker = Checker(checkerboard.path_sum_kernel)
    run = Run(ops, execute, checker)
    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = run.loop(budget)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {
        "setup_s": setup_s,
        "walls": untraced,
        "raw_walls": list(run.raw_walls),
        "latencies": run.latencies,
        "peak_rss_mb": peak_rss_mb,
        "ops_per_pass": len(ops),
    }
    if args.trace:
        tracer = Tracer()
        tracer.install()
        traced = run.loop(args.seconds - sum(run.raw_walls), tracer)
        nets = {id(op.expect["net"]): op.expect["net"] for op in ops if "net" in op.expect}
        extra = {
            "latencies": run.latencies_by_kind,
            "output_bytes": run.output_bytes,
            "norm_drift_max": checker.norm_drift_max,
            "parse_bytes": tracer.sizes.get("netformat.parse", 0),
            "closure_density": fmean(closure_density(n) for n in nets.values()) if nets else 0.0,
            "untraced_walls": untraced,
            "traced_walls": traced,
        }
        result["layers"] = layers.derive(tracer.aggregate(), tracer.influences, ops, len(traced), extra)
        result["self_time_error"] = tracer.self_time_error()
        result["untraced_names"] = tracer.missing
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems)
    return result


if __name__ == "__main__":
    sys.exit(main())
