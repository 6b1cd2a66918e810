"""Shared fixtures: reference networks and independent oracles.

The reachability oracles deliberately avoid the library's bitset closure:
they walk edge dicts with BFS so that projection and reduction results can
be checked against an independent path, `pairwise_consistent` is the
plain all-pairs coordination test over those BFS labels, and `bfs_between`
checks betweenness's four projection compositions on them.  The checkerboard
kernel oracle counts words by their runs instead of stepping a field or
enumerating words, and `fourier_kernel` diagonalizes the step by wave
number, so neither shares code with infnet.checkerboard.
`recount_p` recounts sampled P's straight from numpy's stream, in pieces
that ignore word boundaries, so it shares no chunking with the sampler.
`density_rows`, `norm_of` and `mean_position_of` square amplitudes and sum
a field's probabilities in plain Python loops, one (x, p, q) row at a time,
sharing no code with SpinorField.probabilities or checkerboard.norm_and_mean.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import deque

import numpy as np
import pytest
from hypothesis import strategies as st

from infnet import InfluenceNetwork


# -- Brute-force oracles ------------------------------------------------------


def bfs_descendants(edges: dict[int, set[int]], source: int) -> set[int]:
    """Events reached from source through one or more edges, by plain BFS."""
    seen: set[int] = set()
    queue = deque([source])
    while queue:
        node = queue.popleft()
        for nxt in edges.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return seen


def bfs_reaches(edges: dict[int, set[int]], source: int, target: int) -> bool:
    """Reflexive reachability by plain BFS over an adjacency dict."""
    return source == target or target in bfs_descendants(edges, source)


def adjacency(net: InfluenceNetwork) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {e: set() for e in net.event_ids()}
    for source, target in net.edges():
        adj[source].add(target)
    return adj


def brute_forward(net: InfluenceNetwork, x: int, chain_name: str):
    """Least chain label reachable from x, via the BFS oracle."""
    adj = adjacency(net)
    chain = net.chain(chain_name)
    labels = [
        label
        for label, event in enumerate(chain.events, start=1)
        if bfs_reaches(adj, x, event)
    ]
    return min(labels) if labels else None


def brute_backward(net: InfluenceNetwork, x: int, chain_name: str):
    """Greatest chain label reaching x, via the BFS oracle."""
    adj = adjacency(net)
    chain = net.chain(chain_name)
    labels = [
        label
        for label, event in enumerate(chain.events, start=1)
        if bfs_reaches(adj, event, x)
    ]
    return max(labels) if labels else None


def bfs_labels(net: InfluenceNetwork) -> dict[str, dict[int, tuple]]:
    """(forward, backward) label of every event on every chain, by BFS.

    One BFS per event.  x's forward label is the least label of a chain
    event that x or a descendant of x is; its backward label is the greatest
    label of a chain event that has x as itself or a descendant.
    """
    adj = adjacency(net)
    reach = {e: bfs_descendants(adj, e) | {e} for e in net.event_ids()}
    labels = {}
    for name in net.chain_names():
        events = net.chain(name).events
        labels[name] = {
            x: (
                min((k for k, e in enumerate(events, 1) if e in reach[x]), default=None),
                max((k for k, e in enumerate(events, 1) if x in reach[e]), default=None),
            )
            for x in net.event_ids()
        }
    return labels


def pairwise_consistent(net: InfluenceNetwork, source: str, target: str, labels=None) -> bool:
    """Whether every pair of source events keeps its label distance on target.

    Compares all O(n^2) pairs of BFS projections, forward and backward;
    pairs with an absent projection are skipped.  `labels` is bfs_labels(net),
    for a caller that checks many chain pairs of one network.
    """
    labels = bfs_labels(net) if labels is None else labels
    events = net.chain(source).events
    for side in (0, 1):
        projected = [labels[target][e][side] for e in events]
        for i in range(len(projected)):
            for j in range(i + 1, len(projected)):
                if projected[i] is not None and projected[j] is not None:
                    if projected[j] - projected[i] != j - i:
                        return False
    return True


def bfs_between(net: InfluenceNetwork, labels: dict, x: int, p: str, q: str) -> bool:
    """Whether x lies between chains p and q, read from bfs_labels(net).

    Both ways round, x's forward label on one chain must equal the forward
    label there of the other chain's event at x's backward label on it, and
    dually with forward and backward swapped; an absent label fails.
    """
    for first, second in ((p, q), (q, p)):
        forward, backward = labels[first][x]
        inner_forward, inner_backward = labels[second][x]
        if None in (forward, backward, inner_forward, inner_backward):
            return False
        events = net.chain(second).events
        if labels[first][events[inner_backward - 1]][0] != forward:
            return False
        if labels[first][events[inner_forward - 1]][1] != backward:
            return False
    return True


# -- Closed-form checkerboard kernel -------------------------------------------


def _split_ways(n: int, runs: int) -> int:
    """Ways to cut n like symbols into `runs` non-empty runs."""
    if n == 0:
        return 1 if runs == 0 else 0
    return math.comb(n - 1, runs - 1) if runs > 0 else 0


def run_count_kernel(initial: str, final: str, dx2: int, steps: int, stay, flip):
    """Kernel of all `steps`-symbol words from x2 = 0 to x2 = dx2 ending on `final`.

    Each word contributes stay**(steps - R) * (i * flip)**R, where R counts
    its reversals and the first symbol is compared against `initial`; a P
    step moves x2 by -1, a Q step by +1.  Returns (real, imag).  The sum
    runs over run counts, not words (Jacobson & Schulman, J. Phys. A 17,
    375, 1984): k alternating runs starting with symbol s hold rP P-runs
    and rQ Q-runs, and C(nP-1, rP-1) * C(nQ-1, rQ-1) words share them, all
    with R = k - 1 + (s != initial).  Integer stay and flip give an exact
    Gaussian integer, so any N can be checked exactly.
    """
    if steps == 0:
        return (1, 0) if dx2 == 0 and initial == final else (0, 0)
    n_q, odd = divmod(steps + dx2, 2)
    n_p = steps - n_q
    if odd or n_q < 0 or n_p < 0:
        return (0, 0)
    parts = [0, 0]
    for first, other in (("P", "Q"), ("Q", "P")):
        for runs in range(1, 2 * min(n_p, n_q) + 2):
            if (first if runs % 2 else other) != final:
                continue
            own, alternate = (runs + 1) // 2, runs // 2
            r_p, r_q = (own, alternate) if first == "P" else (alternate, own)
            ways = _split_ways(n_p, r_p) * _split_ways(n_q, r_q)
            if not ways:
                continue
            reversals = runs - 1 + (first != initial)
            term = ways * stay ** (steps - reversals) * flip**reversals
            parts[reversals % 2] += -term if reversals % 4 >= 2 else term
    return tuple(parts)


def fourier_kernel(initial: str, theta: float, steps: int) -> tuple[np.ndarray, np.ndarray]:
    """(phi_p, phi_q) at x2 = -steps, -steps + 2, ..., steps after `steps`
    steps from a unit point source at x2 = 0 with helicity `initial`.

    The field lives on a ring of M >= 2 * steps + 2 doubled sites, wide
    enough that the light cone never wraps.  A step shifts phi_p one doubled
    site left and phi_q one right after mixing, so wave number k steps by
    U(k) = diag(e^{ik}, e^{-ik}) . [[c, i s], [i s, c]]; the field is the
    inverse FFT of the initial helicity's column of U(k)**steps.
    """
    ring = 2 * steps + 2
    k = 2 * np.pi * np.arange(ring) / ring
    c, s = math.cos(theta), math.sin(theta)
    mix = np.array([[c, 1j * s], [1j * s, c]])
    shift = np.zeros((ring, 2, 2), complex)
    shift[:, 0, 0], shift[:, 1, 1] = np.exp(1j * k), np.exp(-1j * k)
    column = np.linalg.matrix_power(shift @ mix, steps)[:, :, "PQ".index(initial)]
    field = np.fft.ifft(column, axis=0)
    sites = np.arange(-steps, steps + 1, 2) % ring
    return field[sites, 0], field[sites, 1]


# -- Sampled symbol counts -----------------------------------------------------


def recount_p(seed: int, prob_p: float, steps: int, count: int) -> int:
    """P's among `count` words of `steps` symbols drawn from default_rng(seed).

    Each float64 draw takes one 64-bit word of the stream, so the draws can
    be taken in flat pieces of any size, across word boundaries, and still
    be the sampler's draws in the sampler's order.
    """
    rng = np.random.default_rng(seed)
    total_p, left = 0, steps * count
    while left > 0:
        take = min(999_983, left)
        total_p += int(np.count_nonzero(rng.random(take) < prob_p))
        left -= take
    return total_p


# -- Field densities as (x, p, q) rows -----------------------------------------


def density_rows(field) -> list[tuple[float, float, float]]:
    """(x, |phi_p|**2, |phi_q|**2) per site of a SpinorField, one tuple per row.

    Squared as pow(hypot(re, im), 2) in Python, the rounding the propagate
    CSV prints, but built here without SpinorField's own methods.
    """
    abs_p, abs_q = (np.hypot(a.real, a.imag).tolist() for a in (field.phi_p, field.phi_q))
    xs = [(field.x2_lo + 2 * k) / 2 for k in range(len(abs_p))]
    return [(x, p ** 2, q ** 2) for x, p, q in zip(xs, abs_p, abs_q)]


def norm_of(rows: list[tuple[float, float, float]]) -> float:
    """Total probability of density rows, added left to right from int 0."""
    total = 0
    for _, prob_p, prob_q in rows:
        total += prob_p + prob_q
    return total


def mean_position_of(rows: list[tuple[float, float, float]]) -> float:
    """<x> of density rows, added left to right from int 0."""
    total = 0
    for x, prob_p, prob_q in rows:
        total += x * (prob_p + prob_q)
    return total


# -- Raw network parts ---------------------------------------------------------


@st.composite
def network_parts(draw, max_events: int = 10):
    """Raw `from_parts` input that need not pass validate().

    Up to three chains over events 0..n-1 may share events and repeat
    members, and the free edges may close cycles or loop on one event.
    Returns (chains, edges, n).
    """
    n = draw(st.integers(1, max_events))
    ids = st.integers(0, n - 1)
    names = "PQR"[: draw(st.integers(1, 3))]
    chains = {name: draw(st.lists(ids, min_size=1, max_size=n + 2)) for name in names}
    edges = draw(st.lists(st.tuples(ids, ids), max_size=2 * n))
    return chains, edges, n


# -- Reference networks -------------------------------------------------------


def ladder_parts(length: int, separation: int, slots) -> tuple[dict, list, int]:
    """Raw parts of a ladder with midway events, the benchmark's geometry-read shape.

    P holds ids 0..L-1 and Q ids L..2L-1; cross edges run p_i -> q_(i+s)
    and q_i -> p_(i+s).  The midway event at chain time k (one per slot)
    is wired p_k -> m, q_k -> m, m -> p_(k+s), m -> q_(k+s).
    Returns (chains, edges, n).
    """
    p = list(range(length))
    q = list(range(length, 2 * length))
    edges = []
    for i in range(length - separation):
        edges += [(p[i], q[i + separation]), (q[i], p[i + separation])]
    for m, k in enumerate(slots, start=2 * length):
        edges += [(p[k], m), (q[k], m), (m, p[k + separation]), (m, q[k + separation])]
    return {"P": p, "Q": q}, edges, 2 * length + len(slots)


def seeded_ladder_parts(length: int, moved: bool = False) -> tuple[dict, list, int]:
    """ladder_parts with the separation and midway slots drawn as the benchmark does, seeded by length.

    With `moved`, the edge q_0 -> p_s lands one step further up P, at
    p_(s+1): P's interval lengths no longer all survive projection onto Q.
    """
    rng = random.Random(length)
    separation = rng.randint(1, 4)
    slots = sorted(rng.sample(range(length - separation), max(2, length // 8)))
    chains, edges, n = ladder_parts(length, separation, slots)
    if moved:
        source, target = edges[1]
        edges[1] = (source, target + 1)
    return chains, edges, n


def restricted_parts(rng, n: int, n_chains: int, prob: float) -> tuple[dict, list, list]:
    """Parts of a random restricted network, the benchmark's network-build shape.

    Events 0..n-1 are spread over n_chains chains in a shuffled order, so
    ids rise along every chain.  Each event starts a cross edge with
    probability `prob` to a later, still free event of another chain
    within 39 ids; no event takes part in two.  Returns (chains, cross,
    homes), homes[e] naming event e's chain.
    """
    names = [f"C{c:02d}" for c in range(n_chains)]
    homes = [names[c] for c in range(n_chains) for _ in range(2)]
    homes += [rng.choice(names) for _ in range(n - len(homes))]
    rng.shuffle(homes)
    chains = {name: [e for e in range(n) if homes[e] == name] for name in names}
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
    return chains, cross, homes


def restricted_file_parts() -> tuple[dict, list]:
    """Parts of tests/data/restricted.net: 240 events on 6 chains, valid in restricted mode.

    restricted_parts draws the network (seed 20); then up to 8 pairs of
    events outside every cross edge get a redundant cross edge s -> t:
    s already reaches t by a path through a third chain, so the Hasse
    drawing leaves the edge out.  Returns (chains, cross).
    """
    n = 240
    chains, cross, homes = restricted_parts(random.Random(20), n, 6, 0.4)
    succ: dict[int, set[int]] = {e: set() for e in range(n)}
    for members in chains.values():
        for a, b in zip(members, members[1:]):
            succ[a].add(b)
    for source, target in cross:
        succ[source].add(target)
    reach = {e: bfs_descendants(succ, e) for e in range(n)}  # redundant edges keep it exact
    used = {e for edge in cross for e in edge}
    added: list[tuple[int, int]] = []
    for source, target in itertools.combinations(range(n), 2):
        if len(added) == 8 or {source, target} & used or target not in reach[source]:
            continue
        sides = homes[source], homes[target]
        if sides[0] != sides[1] and any(
            homes[m] not in sides and target in reach[m] for m in reach[source]
        ):
            added.append((source, target))
            used |= {source, target}
    return chains, cross + added


def build_ladder(length: int = 8, separation: int = 2) -> InfluenceNetwork:
    """Two coordinated chains P and Q at the given separation.

    Cross edges run p_i -> q_(i+separation) and q_i -> p_(i+separation), so
    forward projections shift by the separation in both directions and every
    interval keeps its length under projection.
    """
    net = InfluenceNetwork("general")
    net.add_chain("P")
    net.add_chain("Q")
    p = [net.add_event("P") for _ in range(length)]
    q = [net.add_event("Q") for _ in range(length)]
    for i in range(length - separation):
        net.add_influence(p[i], q[i + separation])
        net.add_influence(q[i], p[i + separation])
    return net


def build_ladder_with_between(length: int = 8) -> tuple[InfluenceNetwork, int, int]:
    """Separation-2 ladder plus two midway events a and c.

    a sits at chain time 3, one unit from each chain: backward projections
    (2, 2), forward projections (4, 4).  c sits likewise at chain time 6.
    The interval from a to the chain event q_6 is quantified by the pair
    (4, 2); the interval from a to c by the symmetric pair (3, 3).
    """
    net = build_ladder(length=length, separation=2)
    p = net.chain("P").events
    q = net.chain("Q").events
    a = net.add_event()
    net.add_influence(p[1], a)
    net.add_influence(q[1], a)
    net.add_influence(a, p[3])
    net.add_influence(a, q[3])
    c = net.add_event()
    net.add_influence(p[4], c)
    net.add_influence(q[4], c)
    net.add_influence(c, p[6])
    net.add_influence(c, q[6])
    return net, a, c


def build_two_particle_net() -> InfluenceNetwork:
    """Two restricted-mode chains trading influences, all invariants intact."""
    net = InfluenceNetwork("restricted")
    net.add_chain("Pi")
    net.add_chain("P")
    a = [net.add_event("Pi") for _ in range(4)]
    b = [net.add_event("P") for _ in range(4)]
    net.add_influence(a[0], b[1])
    net.add_influence(b[0], a[1])
    net.add_influence(a[2], b[3])
    net.add_influence(b[2], a[3])
    return net


def build_single_chain_cloud() -> tuple[InfluenceNetwork, dict[str, int]]:
    """A 10-event net: chain P of 6 plus four loose events around it.

    x: influenced by p_2 and influencing p_5, so quantified (5, 2).
    up: upstream only (influences p_1).
    down: downstream only (influenced by p_6).
    loose: attached to nothing.
    """
    net = InfluenceNetwork("general")
    net.add_chain("P")
    p = [net.add_event("P") for _ in range(6)]
    x = net.add_event()
    net.add_influence(p[1], x)
    net.add_influence(x, p[4])
    up = net.add_event()
    net.add_influence(up, p[0])
    down = net.add_event()
    net.add_influence(p[5], down)
    loose = net.add_event()
    return net, {"x": x, "up": up, "down": down, "loose": loose}


def lattice_lines(k: int, D: int, A: int) -> dict[str, tuple[int, int, int, int]]:
    """The four chains of `lattice_network` as lines (a, alpha, b, beta).

    Member n of a chain sits at light-cone point (u, v) = (a n + alpha,
    b n + beta), with u = t + x and v = t - x.  The rest pair P, Q stands at
    x = -D and x = D; the moving pair P', Q' runs at speed
    (k^2 - 1)/(k^2 + 1).  Every chain ticks at proper time k.
    """
    return {"P": (k, -D, k, D), "Q": (k, D, k, -D), "P'": (k * k, -A, 1, A), "Q'": (k * k, A, 1, -A)}


def lattice_network(k: int, D: int, A: int, J: int, R: int) -> tuple[InfluenceNetwork, list, list[int]]:
    """A finalized network whose order is the integer light-cone lattice's.

    The chains of `lattice_lines` take the members n = -J..J.  The endpoints
    are the other lattice points (u, v) with |u|, |v| <= R on the rest
    pair's own lattice (u = v = -D mod k) that lie strictly between both
    pairs.  Edges: each chain event to its forward projection (the earliest
    member above it, by a plain scan of the lattice order) on every other
    chain, and per endpoint and chain, backward projection -> endpoint ->
    forward projection.  Every edge runs up the lattice and chain links
    carry any later member, so an event reaches a chain member exactly
    when the lattice puts it below.  Ids run chain by chain, then the
    endpoints, so edges from an endpoint run to lower ids.  The network
    loads through `from_parts`.  Returns (network, (u, v) by event id,
    endpoint ids).
    """
    chains = {
        name: [(a * n + alpha, b * n + beta) for n in range(-J, J + 1)]
        for name, (a, alpha, b, beta) in lattice_lines(k, D, A).items()
    }
    points = [point for members in chains.values() for point in members]
    taken = set(points)
    assert len(taken) == len(points), "two chain events on one lattice point form a cycle"
    ends = [
        (u, v)
        for u in range(-R, R + 1)
        for v in range(-R, R + 1)
        if (u + D) % k == (v + D) % k == 0
        and abs(u - v) < 2 * D
        and abs(u - k * k * v) < (k * k + 1) * A
        and (u, v) not in taken
    ]
    points += ends
    ident = {point: event for event, point in enumerate(points)}

    def below(a: tuple[int, int], b: tuple[int, int]) -> bool:
        return a[0] <= b[0] and a[1] <= b[1]

    edges = set()
    for members in chains.values():
        home = set(members)
        for point in points:
            after = next((m for m in members if below(point, m)), None)
            if after is not None and point not in home:
                edges.add((ident[point], ident[after]))
        for point in ends:
            before = next((m for m in reversed(members) if below(m, point)), None)
            if before is not None:
                edges.add((ident[before], ident[point]))
    chain_ids = {name: [ident[point] for point in members] for name, members in chains.items()}
    net = InfluenceNetwork.from_parts("general", chain_ids, sorted(edges)).finalize()
    return net, points, [ident[point] for point in ends]


@pytest.fixture
def ladder() -> InfluenceNetwork:
    return build_ladder().finalize()


@pytest.fixture
def ladder_between() -> tuple[InfluenceNetwork, int, int]:
    net, a, c = build_ladder_with_between()
    return net.finalize(), a, c


@pytest.fixture
def two_particles() -> InfluenceNetwork:
    return build_two_particle_net().finalize()


@pytest.fixture
def chain_cloud() -> tuple[InfluenceNetwork, dict[str, int]]:
    net, ids = build_single_chain_cloud()
    return net.finalize(), ids
