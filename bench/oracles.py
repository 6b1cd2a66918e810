"""Output checks for benchmark ops, independent of the code they check.

Reachability comes from the generated edge lists: a topological sweep
(Kahn's algorithm, which visits the DAG breadth first) builds descendant
and ancestor bitsets, and plain BFS samples the library's `influences`.
Neither touches infnet's incremental closure.  Propagator fields are
checked against the brute-force 2**N `path_sum_kernel`, which is passed in
by the caller, and `simulate` totals are recounted from the same numpy
stream.  Every check returns None when the output is right and a short
reason when it is not.  Checks run outside every timed region.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from workloads import Network, Op

NORM_DRIFT_LIMIT = 1e-9
KERNEL_STEPS = 12  # fields up to this many steps are compared with the path sum
BFS_SOURCES, BFS_TARGETS = 8, 16


@dataclass
class Outcome:
    """What one op produced: exit code, captured streams, written files."""

    code: int
    stdout: str = ""
    stderr: str = ""
    files: dict[str, str] = field(default_factory=dict)
    net: object = None  # the built network, for `build` ops


def closure(n: int, edges: list[tuple[int, int]]) -> tuple[list[int], list[int]]:
    """Strict descendant and ancestor bitsets of an acyclic edge list."""
    succ = [[] for _ in range(n)]
    indegree = [0] * n
    for s, t in edges:
        succ[s].append(t)
        indegree[t] += 1
    order = []
    queue = deque(e for e in range(n) if indegree[e] == 0)
    while queue:
        e = queue.popleft()
        order.append(e)
        for t in succ[e]:
            indegree[t] -= 1
            if indegree[t] == 0:
                queue.append(t)
    if len(order) != n:
        raise ValueError("generated network is cyclic")
    desc = [0] * n
    for e in reversed(order):
        for t in succ[e]:
            desc[e] |= desc[t] | (1 << t)
    anc = [0] * n
    for e in order:
        for t in succ[e]:
            anc[t] |= anc[e] | (1 << e)
    return desc, anc


def bfs_reachable(succ: dict[int, list[int]], source: int) -> set[int]:
    """Reflexive reachability from source by breadth-first search."""
    seen = {source}
    queue = deque([source])
    while queue:
        for t in succ.get(queue.popleft(), ()):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return seen


def closure_density(net: Network) -> float:
    """Strictly reachable ordered pairs over n**2."""
    desc, _ = closure(net.n, net.edges())
    return sum(bin(d).count("1") for d in desc) / net.n**2


class Checker:
    """Checks op outcomes and collects the physics health signals."""

    def __init__(self, path_sum_kernel: Callable):
        self._kernel = path_sum_kernel
        self._kernel_cache: dict[tuple, complex] = {}
        self._closures: dict[int, tuple[list[int], list[int]]] = {}
        self._projection_cache: dict[int, dict] = {}
        self.norm_drift_max = 0.0

    def __call__(self, op: Op, out: Outcome) -> Optional[str]:
        return getattr(self, "_" + op.kind)(op, out)

    def kernel(self, initial: str, final: str, x: float, steps: int, theta: float) -> complex:
        key = (initial, final, x, steps, theta)
        if key not in self._kernel_cache:
            self._kernel_cache[key] = self._kernel(initial, 0, final, x, steps, theta)
        return self._kernel_cache[key]

    def _closure(self, net: Network) -> tuple[list[int], list[int]]:
        if id(net) not in self._closures:
            self._closures[id(net)] = closure(net.n, net.edges())
        return self._closures[id(net)]

    # -- particle ---------------------------------------------------------

    def _propagate(self, op: Op, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit {out.code}"
        steps, theta, initial = op.expect["steps"], op.expect["theta"], op.expect["initial"]
        field_lines = out.files[op.files[0]].splitlines()
        trace_lines = out.files[op.files[1]].splitlines()
        if field_lines[0] != "t,x,probP,probQ,total" or trace_lines[0] != "t,mean_x,norm":
            return "bad CSV header"
        rows: dict[int, list[tuple[float, float, float]]] = {}
        norms: dict[int, str] = {}
        try:
            for line in field_lines[1:]:
                t, x, prob_p, prob_q, total = line.split(",")
                t, x = int(t), float(x)
                if abs(2 * x) > t or (round(2 * x) - t) % 2:
                    return f"site x={x} at t={t} lies off the light cone lattice"
                if norms.setdefault(t, total) != total:
                    return f"t={t}: total column is not constant"
                rows.setdefault(t, []).append((x, float(prob_p), float(prob_q)))
            trace = [line.split(",") for line in trace_lines[1:]]
            if sorted(rows) != list(range(steps + 1)) or [int(r[0]) for r in trace] != sorted(rows):
                return "time steps missing or out of order"
            for t, mean_x, norm in trace:
                t = int(t)
                sites = rows[t]
                total = float(norms[t])
                drift = abs(total - 1.0)
                self.norm_drift_max = max(self.norm_drift_max, drift)
                if drift > NORM_DRIFT_LIMIT:
                    return f"t={t}: norm drift {drift:.3g}"
                if norm != norms[t]:
                    return f"t={t}: trace norm {norm} differs from field total {norms[t]}"
                if abs(sum(p + q for _, p, q in sites) - total) > 1e-12 * len(sites):
                    return f"t={t}: site probabilities do not sum to the total"
                mean = sum(x * (p + q) for x, p, q in sites)
                if abs(float(mean_x) - mean) > 1e-9 * (1 + t):
                    return f"t={t}: trace mean {mean_x} differs from field mean {mean!r}"
                if t <= KERNEL_STEPS:
                    for x, p, q in sites:
                        want_p = abs(self.kernel(initial, "P", x, t, theta)) ** 2
                        want_q = abs(self.kernel(initial, "Q", x, t, theta)) ** 2
                        if abs(p - want_p) > 1e-12 or abs(q - want_q) > 1e-12:
                            return f"t={t}, x={x}: field differs from the path sum"
        except (ValueError, KeyError, IndexError) as exc:
            return f"malformed CSV: {exc!r}"
        return None

    def _simulate(self, op: Op, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit {out.code}"
        e = op.expect
        rng = np.random.default_rng(e["seed"])
        # Each float64 draw takes one 64-bit word, so the row chunking here
        # need not match the sampler's to read the same stream.
        total_p, left = 0, e["count"]
        rows = max(1, 1_000_000 // e["steps"])
        while left > 0:
            take = min(rows, left)
            total_p += int(np.count_nonzero(rng.random((take, e["steps"])) < e["prob_p"]))
            left -= take
        dp = e["steps"] * e["count"] - total_p
        dq = total_p
        want = [
            f"seed {e['seed']}",
            f"words {e['count']}",
            f"steps {e['steps']}",
            f"dp {dp}",
            f"dq {dq}",
            f"beta {(dp - dq) / (dp + dq)!r}",
            f"beta_expected {1.0 - 2.0 * e['prob_p']!r}",
        ]
        return None if out.stdout.splitlines() == want else "simulate totals differ from the recount"

    def _enumerate(self, op: Op, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit {out.code}"
        e = op.expect
        lines = out.stdout.splitlines()
        n_words = math.comb(e["p"] + e["q"], e["p"])
        if len(lines) != n_words + 2:
            return f"{len(lines) - 2} words, expected {n_words}"
        try:
            words = [line.split(" ") for line in lines[:-2]]
            if any(w.count("P") != e["p"] or len(w) != e["p"] + e["q"] for w, _ in words):
                return "a word has the wrong symbol counts"
            if any(a[0] >= b[0] for a, b in zip(words, words[1:])):
                return "words are not strictly increasing"
            sums = {}
            for line, final in zip(lines[-2:], "PQ"):
                label, value = line.split(" ")
                if label != f"sum_final_{final}":
                    return f"missing sum_final_{final}"
                sums[final] = complex(value)
        except ValueError as exc:
            return f"malformed output: {exc!r}"
        x = (e["q"] - e["p"]) / 2
        for final in "PQ":
            want = self.kernel(e["initial"], final, x, e["p"] + e["q"], e["theta"])
            if abs(sums[final] - want) > 1e-9:
                return f"sum_final_{final} {sums[final]} differs from the path sum {want}"
        return None

    # -- geometry-read ----------------------------------------------------

    def _projections(self, net: Network):
        """Forward/backward labels of every event onto each chain, or None."""
        if id(net) in self._projection_cache:
            return self._projection_cache[id(net)]
        desc, anc = self._closure(net)
        out = {}
        for name, members in net.chains.items():
            # Chain ids increase along the chain, so the lowest reachable
            # member is the least one and the highest the greatest.
            label_of = {e: label for label, e in enumerate(members, 1)}
            mask = sum(1 << e for e in members)
            forward, backward = [], []
            for x in range(net.n):
                down = (desc[x] | 1 << x) & mask
                up = (anc[x] | 1 << x) & mask
                forward.append(label_of[(down & -down).bit_length() - 1] if down else None)
                backward.append(label_of[up.bit_length() - 1] if up else None)
            out[name] = (forward, backward)
        self._projection_cache[id(net)] = out
        return out

    def _validate(self, op: Op, out: Outcome) -> Optional[str]:
        violation = op.expect.get("violation")
        if violation is None:
            ok = out.code == 0 and out.stdout == "ok\n"
            return None if ok else f"exit {out.code}, {out.stdout[:80]!r}; expected ok"
        lines = out.stdout.splitlines()
        if out.code != 1 or not lines:
            return f"exit {out.code} on a broken network; expected 1"
        if not all(line.startswith(violation["rule"] + ":") for line in lines):
            return f"expected only {violation['rule']} violations, got {lines[:3]}"
        if not any(violation["needle"] in line for line in lines):
            return f"no line says {violation['needle']!r}"
        return None

    def _quantify(self, op: Op, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit {out.code}"
        net = op.expect["net"]
        proj = self._projections(net)
        (fp, bp), (fq, bq) = proj["P"], proj["Q"]
        p, q = net.chains["P"], net.chains["Q"]

        def between(x: int) -> bool:
            for (f1, b1, c1), (f2, b2, c2) in (((fp, bp, p), (fq, bq, q)), ((fq, bq, q), (fp, bp, p))):
                if f1[x] is None or b2[x] is None or f1[c2[b2[x] - 1]] != f1[x]:
                    return False
                if b1[x] is None or f2[x] is None or b1[c2[f2[x] - 1]] != b1[x]:
                    return False
            return True

        def label(value) -> str:
            return "-" if value is None else str(value)

        want = []
        for x in range(net.n):
            pairable = fp[x] is not None and fq[x] is not None
            want.append(f"{x} {label(fp[x])} {label(bp[x])} "
                        f"{'between' if between(x) else 'outside'} "
                        f"{'pairable' if pairable else 'unpairable'}")
        got = out.stdout.splitlines()
        if got == want:
            return None
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return f"quantify row {bad} differs from the BFS oracle"

    def _distance(self, op: Op, out: Outcome) -> Optional[str]:
        want = f"distance {op.expect['separation']}\n"
        if out.code == 0 and out.stdout == want:
            return None
        return f"exit {out.code}, {out.stdout.strip()!r}; expected {want.strip()!r}"

    def _interval(self, op: Op, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit {out.code}"
        proj = self._projections(op.expect["net"])
        a, b = int(op.argv[op.argv.index("--a") + 1]), int(op.argv[op.argv.index("--b") + 1])
        (fp, _), (fq, _) = proj["P"], proj["Q"]
        quad = (fp[a], fq[a], fp[b], fq[b])
        dp, dq = Fraction(quad[2] - quad[0]), Fraction(quad[3] - quad[1])
        dt, dx = (dp + dq) / 2, (dp - dq) / 2
        want = (
            f"quadruple {' '.join(map(str, quad))}\n"
            f"pair ({dp}, {dq})\nscalar {dp * dq}\ndt {dt}\ndx {dx}\n"
            f"symmetric ({dt}, {dt})\nantisymmetric ({dx}, {-dx})\n"
        )
        return None if out.stdout == want else "interval lines differ from the oracle"

    # -- network-build ----------------------------------------------------

    def _build(self, op: Op, out: Outcome) -> Optional[str]:
        net = op.expect["net"]
        if out.code != 0:
            return f"build failed: {out.stderr[:200]}"
        if out.files[op.files[0]] != net.text():
            return "dumps text differs from the generated network"
        succ: dict[int, list[int]] = {}
        for s, t in net.edges():
            succ.setdefault(s, []).append(t)
        rng = random.Random(net.n)
        for source in rng.sample(range(net.n), BFS_SOURCES):
            reach = bfs_reachable(succ, source)
            for target in rng.sample(range(net.n), BFS_TARGETS):
                if out.net.influences(source, target) != (target in reach):
                    return f"influences({source}, {target}) disagrees with BFS"
        return None

    def _hasse(self, op: Op, out: Outcome) -> Optional[str]:
        if out.code != 0:
            return f"exit {out.code}"
        net = op.expect["net"]
        svg = out.files[op.files[0]]
        desc, _ = self._closure(net)
        succ: dict[int, list[int]] = {}
        for s, t in net.edges():
            succ.setdefault(s, []).append(t)
        arrows = sum(
            1 for s, t in net.cross
            if not any(m != t and desc[m] >> t & 1 for m in succ[s])
        )
        shape = (svg.count("<circle"), svg.count("<line "), svg.count("<polyline"))
        want = (net.n, arrows, sum(1 for m in net.chains.values() if m))
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")) or shape != want:
            return f"SVG has (circles, arrows, chains) {shape}, expected {want}"
        return None
