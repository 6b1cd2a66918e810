"""Seeded workload generators for the infnet benchmark.

Every input is made here from the workload seed alone, without calling
infnet: ladder networks are written as `.net` text directly, random
restricted-mode networks are edge lists, and the particle mix is a list of
CLI argument vectors.  The same seed gives the same ops, byte for byte.

Sizes sit on a fixed grid: a list of k sizes takes the midpoints of k
equal slices of the (log) range, which covers the range as evenly as a
log-uniform draw would.  Where an op has two sized properties, slice i of
the first goes with slice (7 * i) % k of the second.  The seed draws
everything else (network contents, labels, angles, helicities, sampler
seeds, which rule breaks) and the order of the op list.  So inputs change
with the seed while the work of an op list, and of the op at any
percentile, does not, which keeps the spread across seeds small.

Each pass of a workload runs one fixed op list of at least 100 ops, so at
least ten ops lie beyond the 90th percentile of every pass.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("particle", "geometry-read", "network-build")
QUARTER_PI = math.pi / 4


@dataclass
class Op:
    """One timed operation: a CLI call, or one library network build."""

    kind: str
    argv: list[str]
    size: int
    files: tuple[str, ...] = ()
    expect: dict = field(default_factory=dict)


@dataclass
class Network:
    """A generated network: chains of event ids plus cross-chain edges."""

    mode: str
    n: int  # events, with ids 0..n-1
    chains: dict[str, list[int]]
    cross: list[tuple[int, int]]

    def edges(self) -> list[tuple[int, int]]:
        """Every edge, chain links included."""
        out = []
        for members in self.chains.values():
            out.extend(zip(members, members[1:]))
        out.extend(self.cross)
        return out

    def homes(self) -> list[str]:
        """Chain name of every event id; restricted networks only."""
        out = [""] * self.n
        for name, members in self.chains.items():
            for e in members:
                out[e] = name
        return out

    def text(self) -> str:
        """Canonical `.net` text: mode, chains by name, cross edges sorted."""
        lines = [f"mode {self.mode}"]
        for name in sorted(self.chains):
            lines.append(f"chain {name}: " + " ".join(map(str, self.chains[name])))
        lines.extend(f"influence {s} -> {t}" for s, t in sorted(self.cross))
        return "\n".join(lines) + "\n"


def grid(count: int, lo: float, hi: float, log: bool = True) -> list[float]:
    """Midpoints of `count` equal slices of [lo, hi], ascending."""
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    values = [a + (i + 0.5) * (b - a) / count for i in range(count)]
    return [math.exp(v) for v in values] if log else values


def paired(values: list[float]) -> list[float]:
    """The fixed partner order: slice (7 * i) % k for slice i (k coprime to 7)."""
    return [values[7 * i % len(values)] for i in range(len(values))]


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}/{seed}")


# -------------------------
# particle
# -------------------------

N_PROPAGATE, N_SIMULATE, N_ENUMERATE = 64, 40, 12


def particle_ops(seed: int, workdir: str) -> list[Op]:
    """Propagate, simulate and enumerate calls in a shuffled, seeded mix."""
    rng = _rng("particle", seed)
    alt_theta = rng.uniform(0.2, 1.3)
    ops = []
    for i, steps in enumerate(grid(N_PROPAGATE, 16, 256)):
        steps = round(steps)
        theta = alt_theta if i % 4 == 0 else QUARTER_PI
        initial = rng.choice("PQ")
        out = os.path.join(workdir, f"prop{i}.csv")
        trace = os.path.join(workdir, f"prop{i}.trace.csv")
        argv = ["propagate", "--steps", str(steps), "--initial", initial,
                "--out", out, "--trace", trace]
        if theta != QUARTER_PI:
            argv += ["--theta", repr(theta)]
        ops.append(Op("propagate", argv, steps, (out, trace),
                      {"steps": steps, "theta": theta, "initial": initial}))
    symbols = grid(N_SIMULATE, 1e6, 1e7)
    word_lengths = paired(grid(N_SIMULATE, 10, 2000))
    for total, length in zip(symbols, word_lengths):
        steps = round(length)
        count = max(1, round(total / steps))
        prob_p = round(rng.uniform(0.05, 0.95), 6)
        sim_seed = rng.randrange(2**31)
        argv = ["simulate", "--steps", str(steps), "--prob-p", repr(prob_p),
                "--seed", str(sim_seed), "--count", str(count)]
        ops.append(Op("simulate", argv, steps * count,
                      expect={"steps": steps, "count": count, "prob_p": prob_p, "seed": sim_seed}))
    for i in range(N_ENUMERATE):
        total = 6 + i % 9  # 6..14 symbols
        n_p = (5 * i) % (total + 1)  # fixed, like the sizes: it sets the word count
        initial = rng.choice("PQ")
        theta = alt_theta if i % 2 else QUARTER_PI
        argv = ["enumerate", "--p", str(n_p), "--q", str(total - n_p),
                "--initial", initial, "--amplitudes"]
        if theta != QUARTER_PI:
            argv.append(repr(theta))
        ops.append(Op("enumerate", argv, total,
                      expect={"p": n_p, "q": total - n_p, "theta": theta, "initial": initial}))
    rng.shuffle(ops)
    return ops


# -------------------------
# geometry-read
# -------------------------

N_LADDERS = 30


def ladder(rng: random.Random, length: int, separation: int) -> tuple[Network, list[int]]:
    """Coordinated chains P, Q with midway events, as in the test ladders.

    P holds ids 0..L-1 and Q ids L..2L-1; cross edges run p_i -> q_(i+s)
    and q_i -> p_(i+s).  A midway event m at chain time k is wired
    p_k -> m, q_k -> m, m -> p_(k+s), m -> q_(k+s).
    """
    p = list(range(length))
    q = list(range(length, 2 * length))
    cross = []
    for i in range(length - separation):
        cross.append((p[i], q[i + separation]))
        cross.append((q[i], p[i + separation]))
    slots = rng.sample(range(length - separation), max(2, length // 8))
    midway = []
    for offset, k in enumerate(sorted(slots)):
        m = 2 * length + offset
        midway.append(m)
        cross += [(p[k], m), (q[k], m), (m, p[k + separation]), (m, q[k + separation])]
    return Network("general", 2 * length + len(midway), {"P": p, "Q": q}, cross), midway


def geometry_ops(seed: int, workdir: str) -> tuple[list[Op], dict[str, str]]:
    """validate / quantify / distance / interval on seeded ladders.

    Returns the ops and the input files to write, path -> text.
    """
    rng = _rng("geometry-read", seed)
    files = {}
    ops = []
    for i, length in enumerate(grid(N_LADDERS, 32, 256)):
        length = round(length)
        separation = rng.randint(1, 4)
        net, midway = ladder(rng, length, separation)
        path = os.path.join(workdir, f"ladder{i}.net")
        files[path] = net.text()
        info = {"net": net, "separation": separation, "midway": midway}
        ops.append(Op("validate", ["validate", path], net.n, expect=info))
        ops.append(Op("quantify", ["quantify", path, "--chain", "P", "--pair", "Q"], net.n, expect=info))
        p_label = rng.randint(1, length - separation)
        q_label = rng.randint(1, length - separation)
        ops.append(Op("distance", ["distance", path, "--chain-p", "P", "--chain-q", "Q",
                                   "--p-label", str(p_label), "--q-label", str(q_label)],
                      net.n, expect=info))
        # Endpoints between both chains: midway events and P events p_j
        # with s <= j < L - s.
        between = midway + list(range(separation, length - separation))
        a, b = rng.choice(midway), rng.choice(between)
        ops.append(Op("interval", ["interval", path, "--a", str(a), "--b", str(b)],
                      net.n, expect=info))
    rng.shuffle(ops)
    return ops, files


# -------------------------
# network-build
# -------------------------

N_NETWORKS = 40
BREAKS = ("degree", "gap", "cycle")


def restricted_network(rng: random.Random, n: int, n_chains: int, prob: float) -> Network:
    """Random restricted-mode network of n events on n_chains chains.

    Event ids increase with time and every edge runs from a lower id to a
    higher one, so the network is acyclic.  Each event starts a cross edge
    with probability `prob` to a later, still free event of another chain
    nearby; no event takes part in more than one cross edge.
    """
    homes = [c for c in range(n_chains) for _ in range(2)]
    homes += [rng.randrange(n_chains) for _ in range(n - len(homes))]
    rng.shuffle(homes)
    names = [f"C{c:02d}" for c in range(n_chains)]
    chains = {name: [] for name in names}
    for event, home in enumerate(homes):
        chains[names[home]].append(event)
    used = [False] * n
    cross = []
    for source in range(n):
        if used[source] or rng.random() >= prob:
            continue
        start = source + 1 + rng.randrange(8)
        for target in range(start, min(n, start + 32)):
            if not used[target] and homes[target] != homes[source]:
                cross.append((source, target))
                used[source] = used[target] = True
                break
    return Network("restricted", n, chains, cross)


def inject(rng: random.Random, net: Network, kind: str) -> tuple[str, dict]:
    """Text of `net` with one rule broken, plus what validate must report."""
    text = net.text()
    home = {e: name for name, members in net.chains.items() for e in members}
    in_cross = {e for edge in net.cross for e in edge}
    if kind == "gap":
        inner = [e for name, members in net.chains.items()
                 for e in members[1:-1] if e in in_cross]
        if inner:
            event = rng.choice(inner)
            name = home[event]
            members = " ".join(str(e) for e in net.chains[name] if e != event)
            old = f"chain {name}: " + " ".join(map(str, net.chains[name])) + "\n"
            text = text.replace(old, f"chain {name}: {members}\n")
            return text, {"rule": "postulate-3", "needle": f"event {event} lies on 0 chains"}
        kind = "degree"
    if kind == "degree":
        for source in rng.sample(sorted(in_cross), len(in_cross)):
            targets = [t for t in range(source + 1, net.n)
                       if t not in in_cross and home[t] != home[source]]
            if targets:
                text += f"influence {source} -> {rng.choice(targets)}\n"
                return text, {"rule": "postulate-3",
                              "needle": f"event {source} takes part in 2 cross-chain influences"}
        kind = "cycle"
    members = max(net.chains.values(), key=len)
    i, j = sorted(rng.sample(range(len(members)), 2))
    text += f"influence {members[j]} -> {members[i]}\n"
    return text, {"rule": "cycle-would-form", "needle": "events on directed cycles"}


def network_ops(seed: int, workdir: str) -> list[Op]:
    """Build each network through the library, then validate and draw it.

    Broken networks get only `validate`, which must exit 1 naming the rule.
    """
    rng = _rng("network-build", seed)
    sizes = grid(N_NETWORKS, 128, 1536)
    chain_counts = paired(grid(N_NETWORKS, 2, 17, log=False))
    probs = paired(paired(grid(N_NETWORKS, 0.2, 0.8, log=False)))
    # The same size slices are broken for every seed, so the op mix (and
    # its cost) does not move with the seed; which rule breaks does.
    first = rng.randrange(len(BREAKS))
    broken = {i: BREAKS[(first + k) % len(BREAKS)] for k, i in enumerate(range(3, N_NETWORKS, 8))}
    groups = []
    for i in range(N_NETWORKS):
        net = restricted_network(rng, round(sizes[i]), int(chain_counts[i]), probs[i])
        path = os.path.join(workdir, f"net{i}.net")
        info = {"net": net, "homes": net.homes()}
        if i in broken:
            info["broken_text"], info["violation"] = inject(rng, net, broken[i])
        group = [Op("build", [path], net.n, (path,), info),
                 Op("validate", ["validate", path], net.n, expect=info)]
        if i not in broken:
            svg = os.path.join(workdir, f"net{i}.svg")
            group.append(Op("hasse", ["hasse", path, "--svg", svg], net.n, (svg,), info))
        groups.append(group)
    rng.shuffle(groups)
    return [op for group in groups for op in group]


def generate(workload: str, seed: int, workdir: str) -> tuple[list[Op], dict[str, str]]:
    """The op list of one pass and the input files it reads, path -> text."""
    if workload == "particle":
        return particle_ops(seed, workdir), {}
    if workload == "geometry-read":
        return geometry_ops(seed, workdir)
    if workload == "network-build":
        return network_ops(seed, workdir), {}
    raise ValueError(f"unknown workload {workload!r}")


def warmups(workload: str, workdir: str) -> tuple[list[Op], dict[str, str]]:
    """One small op per op kind, run untimed before measuring, and its files."""
    path = os.path.join(workdir, "warm.net")
    if workload == "particle":
        csv, trace = os.path.join(workdir, "warm.csv"), os.path.join(workdir, "warm.trace.csv")
        return [
            Op("propagate", ["propagate", "--steps", "16", "--out", csv, "--trace", trace], 16),
            Op("simulate", ["simulate", "--steps", "100", "--prob-p", "0.5", "--count", "100"], 10_000),
            Op("enumerate", ["enumerate", "--p", "3", "--q", "3", "--amplitudes"], 6),
        ], {}
    rng = random.Random(0)
    if workload == "geometry-read":
        net, midway = ladder(rng, 32, 2)
        return [
            Op("validate", ["validate", path], net.n),
            Op("quantify", ["quantify", path, "--chain", "P", "--pair", "Q"], net.n),
            Op("distance", ["distance", path, "--p-label", "3", "--q-label", "4"], net.n),
            Op("interval", ["interval", path, "--a", str(midway[0]), "--b", str(midway[1])], net.n),
        ], {path: net.text()}
    net = restricted_network(rng, 128, 4, 0.5)
    return [
        Op("build", [path], net.n, (path,), {"net": net, "homes": net.homes()}),
        Op("validate", ["validate", path], net.n),
        Op("hasse", ["hasse", path, "--svg", os.path.join(workdir, "warm.svg")], net.n),
    ], {}
