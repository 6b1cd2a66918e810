"""Construction, reachability, reduction, and validation of influence networks.

Covered claims:
    - add_event appends, links chain tails, and rejects unknown chains
    - add_influence rejects cycles, duplicates, and restricted-degree breaches,
      on a restricted load too (the load counts its cross edges); in random
      restricted builds it refuses exactly the edges a recount over edges()
      calls breaches, and validate() then reports none
    - influences() is reflexive-transitive and matches a BFS oracle, after
      random add_event/add_influence sequences (rejected attempts included)
      and on from_parts input in any id order, cyclic input included
    - a loaded network closes in one Kahn pass on its first read: its
      bitsets equal BFS at 300 and 2000 events on permuted, reversed, cyclic,
      self-loop and repeated-member input; a load with a downward edge
      keeps add_influence's cycle test for later upward edges; and a
      falling chain of 4000 events loads in at most about 2.5 times the
      time of one of 2000
    - transitive reduction drops exactly the implied edges: on raw parts
      (cycles, self-loops, shared events, repeated members) it keeps an
      edge s -> t iff no other successor of s reaches t by BFS
    - validate() reports rule names for broken invariants; a cross-chain
      degree counts each incident edge once, a self-loop included, and an
      event a chain lists twice lies on that chain once; a restricted load's
      per-event count equals a recount over edges(), and the load tests
      crossness at most once per distinct influence, never on a chain link
    - in a build by add_event and add_influence, inserts only record
      their edges until the first read, which closes them all in one Kahn
      pass reading each event's successors once, and every later insert
      walks from its target; the closure matches BFS between
      inserts, after a downward edge, and at the benchmark's network-build
      size, and after finalize() no read writes it
    - the closure's self bits name the events on cycles, and its ancestor
      counts order an acyclic network for longest-path depths
    - from_parts links consecutive chain members on any input
    - chain labels are order-isomorphic, and label_of gives a member
      repeated in a --force file its first label
    - acyclicity survives random legal edit sequences
"""

from __future__ import annotations

import math
import random
import statistics
import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infnet import (
    CycleError,
    DegreeViolationError,
    DuplicateEdgeError,
    FinalizedError,
    InfluenceNetwork,
    NotFinalizedError,
    UnknownChainError,
    UnknownEventError,
    netformat,
)

from conftest import adjacency, bfs_descendants, bfs_reaches, network_parts, restricted_parts


def assert_closure_matches_bfs(net: InfluenceNetwork) -> None:
    """influences(a, b) for every pair, and the events on cycles, against BFS over edges()."""
    adj = adjacency(net)
    ids = net.event_ids()
    cyclic = []
    for a in ids:
        below = bfs_descendants(adj, a)
        if a in below:
            cyclic.append(a)
        for b in ids:
            assert net.influences(a, b) == (a == b or b in below), (a, b)
    reported = [v.events for v in net.validate() if v.rule == "cycle-would-form"]
    assert reported == ([tuple(cyclic)] if cyclic else [])


# == 1. Event and chain construction =========================================


class TestAddEvent:
    def test_first_event_on_chain(self):
        net = InfluenceNetwork()
        net.add_chain("P")
        assert net.add_event("P") == 0
        assert net.chain("P").events == (0,)

    def test_chain_extension_adds_link(self):
        net = InfluenceNetwork()
        net.add_chain("P")
        net.add_event("P")
        net.add_event("P")
        assert net.add_event("P") == 2
        assert (1, 2) in net.edges()

    def test_unknown_chain_rejected(self):
        net = InfluenceNetwork()
        with pytest.raises(UnknownChainError):
            net.add_event("Z")

    def test_chainless_event(self):
        net = InfluenceNetwork()
        event = net.add_event()
        assert net.off_chain_events() == (event,)

    def test_ids_never_reused(self):
        net = InfluenceNetwork()
        ids = [net.add_event() for _ in range(5)]
        assert ids == sorted(set(ids))

    def test_mutation_after_finalize_rejected(self):
        net = InfluenceNetwork()
        net.add_event()
        net.finalize()
        with pytest.raises(FinalizedError):
            net.add_event()


# == 2. Influence edges =======================================================


class TestAddInfluence:
    def test_cross_chain_edge_accepted(self, two_particles):
        # the fixture carries four cross edges already; its shape is legal
        assert two_particles.validate() == []

    def test_two_cycle_rejected(self):
        net = InfluenceNetwork()
        a, b = net.add_event(), net.add_event()
        net.add_influence(a, b)
        with pytest.raises(CycleError):
            net.add_influence(b, a)

    def test_long_cycle_rejected(self):
        net = InfluenceNetwork()
        events = [net.add_event() for _ in range(4)]
        for src, dst in zip(events, events[1:]):
            net.add_influence(src, dst)
        with pytest.raises(CycleError):
            net.add_influence(events[-1], events[0])

    def test_self_influence_rejected(self):
        net = InfluenceNetwork()
        a = net.add_event()
        with pytest.raises(CycleError):
            net.add_influence(a, a)

    def test_duplicate_rejected(self):
        net = InfluenceNetwork()
        a, b = net.add_event(), net.add_event()
        net.add_influence(a, b)
        with pytest.raises(DuplicateEdgeError):
            net.add_influence(a, b)

    def test_restricted_second_cross_edge_rejected(self):
        net = InfluenceNetwork("restricted")
        net.add_chain("A")
        net.add_chain("B")
        a = [net.add_event("A") for _ in range(2)]
        b = [net.add_event("B") for _ in range(2)]
        net.add_influence(a[0], b[0])
        with pytest.raises(DegreeViolationError):
            net.add_influence(a[0], b[1])

    def test_restricted_load_counts_its_cross_edges_for_later_inserts(self):
        # Loaded, not finalized: the degree of 0 and 2 comes from the load.
        net = InfluenceNetwork.from_parts(
            "restricted", {"A": [0, 1], "B": [2, 3], "C": [4, 5]}, [(0, 2)]
        )
        for source, target, busy in [(0, 3, 0), (5, 2, 2)]:
            with pytest.raises(DegreeViolationError, match=f"event {busy} already"):
                net.add_influence(source, target)
        net.add_influence(1, 4)
        assert net.validate() == []

    def test_unknown_event_rejected(self):
        net = InfluenceNetwork()
        net.add_event()
        with pytest.raises(UnknownEventError):
            net.add_influence(0, 99)


# == 3. Reachability ==========================================================


class TestInfluences:
    def test_transitive(self):
        net = InfluenceNetwork()
        a, b, c = (net.add_event() for _ in range(3))
        net.add_influence(a, b)
        net.add_influence(b, c)
        assert net.influences(a, c)
        assert not net.influences(c, a)

    def test_reflexive(self):
        net = InfluenceNetwork()
        x = net.add_event()
        assert net.influences(x, x)

    def test_isolated_events_unrelated(self):
        net = InfluenceNetwork()
        a, b = net.add_event(), net.add_event()
        assert not net.influences(a, b)
        assert not net.influences(b, a)

    def test_matches_bfs_oracle(self, ladder):
        adj = adjacency(ladder)
        for a in ladder.event_ids():
            for b in ladder.event_ids():
                assert ladder.influences(a, b) == bfs_reaches(adj, a, b)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["general", "restricted"]), st.randoms(use_true_random=False))
    def test_random_edit_sequences_match_bfs(self, mode, rng):
        # Up to 150 events; edge attempts land anywhere, so many go into
        # events that already have successors, and some are rejected.
        net = InfluenceNetwork(mode)
        for name in "PQR":
            net.add_chain(name)
        for _ in range(rng.randint(2, 150)):
            net.add_event(rng.choice("PQR") if mode == "restricted" else rng.choice([None, "P", "Q"]))
            for _ in range(rng.randint(0, 3)):
                ids = net.event_ids()
                source, target = rng.choice(ids), rng.choice(ids)
                if net.edges() and rng.random() < 0.2:
                    source, target = rng.choice(sorted(net.edges()))[:: rng.choice([1, -1])]
                # In restricted mode an edge joining two chains breaches the
                # degree rule iff either end has one already, by a recount.
                cross = {e for s, t in net.edges() if net.chains_of(s) != net.chains_of(t) for e in (s, t)}
                breach = (
                    mode == "restricted"
                    and net.chains_of(source) != net.chains_of(target)
                    and bool({source, target} & cross)
                )
                try:
                    net.add_influence(source, target)
                except (CycleError, DuplicateEdgeError):
                    pass
                except DegreeViolationError:
                    assert breach, (source, target)
                else:
                    assert not breach, (source, target)
        assert_closure_matches_bfs(net)
        assert not [v for v in net.validate() if "cross-chain" in v.detail]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_from_parts_in_permuted_id_order_matches_bfs(self, data):
        # Relabelling by a random permutation puts ids out of influence
        # order; the raw parts may also hold cycles and repeated members.
        chains, edges, n = data.draw(network_parts(max_events=40))
        perm = data.draw(st.permutations(range(n)))
        chains = {name: [perm[e] for e in members] for name, members in chains.items()}
        edges = [(perm[a], perm[b]) for a, b in edges]
        assert_closure_matches_bfs(InfluenceNetwork.from_parts("general", chains, edges, events=range(n)))

    def test_reverse_numbered_ladder_matches_bfs(self):
        length = 60
        p = list(range(2 * length - 1, length - 1, -1))
        q = list(range(length - 1, -1, -1))
        cross = [(p[i], q[i + 2]) for i in range(length - 2)] + [(q[i], p[i + 2]) for i in range(length - 2)]
        net = InfluenceNetwork.from_parts("general", {"P": p, "Q": q}, cross)
        assert net.validate() == []
        assert_closure_matches_bfs(net)


class _ReadLog(dict):
    """A dict that records the keys read by subscription, in order."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read: list = []

    def __getitem__(self, key):
        self.read.append(key)
        return super().__getitem__(key)


class TestDeferredClosure:
    """Inserts only record edges until the first read, which closes them all; later inserts walk."""

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["general", "restricted"]), st.randoms(use_true_random=False))
    def test_random_upward_builds_match_bfs_between_inserts(self, mode, rng):
        net = InfluenceNetwork(mode)
        for name in "PQR":
            net.add_chain(name)
        for _ in range(rng.randint(2, 120)):
            net.add_event(rng.choice("PQR") if mode == "restricted" else rng.choice([None, "P", "Q"]))
            if len(net.event_ids()) < 2:
                continue
            for _ in range(rng.randint(0, 3)):
                source, target = sorted(rng.sample(net.event_ids(), 2))
                try:
                    net.add_influence(source, target)
                except (DuplicateEdgeError, DegreeViolationError):
                    continue
                if rng.random() < 0.5:
                    a, b = rng.choice([(source, target), tuple(rng.sample(net.event_ids(), 2))])
                    assert net.influences(a, b) == bfs_reaches(adjacency(net), a, b), (a, b)
        assert net._upward
        assert_closure_matches_bfs(net)

    @settings(max_examples=40, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_build_turning_downward_partway_matches_bfs(self, rng):
        net = InfluenceNetwork("general")
        net.add_chain("P")
        net.add_event("P")
        for _ in range(rng.randint(10, 60)):
            net.add_event(rng.choice([None, "P"]))
            source, target = sorted(rng.sample(net.event_ids(), 2))
            if target not in net.successors(source):
                net.add_influence(source, target)
        # A fresh event has no ancestors, so its edge down cannot close a cycle.
        fresh = net.add_event()
        net.add_influence(fresh, rng.choice(net.event_ids()[:-1]))
        assert not net._upward
        for _ in range(rng.randint(0, 60)):
            if rng.random() < 0.3:
                net.add_event(rng.choice([None, "P"]))
            source, target = rng.sample(net.event_ids(), 2)
            try:
                net.add_influence(max(source, target), min(source, target))
            except (CycleError, DuplicateEdgeError):
                pass
            a, b = rng.sample(net.event_ids(), 2)
            assert net.influences(a, b) == bfs_reaches(adjacency(net), a, b), (a, b)
        assert_closure_matches_bfs(net)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_from_parts_upward_but_for_a_last_cycle_closing_edge_matches_bfs(self, data):
        # One cycle-closing edge into a high id among many upward ones: the
        # load closes the rest in Kahn order and walks the cycle's edges.
        n = data.draw(st.integers(3, 30), label="events")
        upward = st.tuples(st.integers(0, n - 2), st.integers(1, n - 1)).filter(lambda e: e[0] < e[1])
        edges = data.draw(st.lists(upward, max_size=3 * n), label="edges")
        target = data.draw(st.integers(n // 2, n - 2), label="target")
        source = data.draw(st.integers(target + 1, n - 1), label="source")
        chain = data.draw(st.lists(st.integers(0, n - 1), unique=True, max_size=n), label="chain")
        net = InfluenceNetwork.from_parts(
            "general", {"P": sorted(chain)}, [*edges, (source, target)], events=range(n)
        )
        assert not net._upward
        assert_closure_matches_bfs(net)

    def test_upward_restricted_build_at_benchmark_size_matches_bfs(self):
        chains, cross, homes = restricted_parts(random.Random(500), 600, 8, 0.5)
        net = InfluenceNetwork("restricted")
        for name in sorted(chains):
            net.add_chain(name)
        for home in homes:
            net.add_event(home)
        for source, target in cross:
            net.add_influence(source, target)
        net.finalize()
        assert net._upward and len(cross) > 150
        assert net.validate() == []
        assert_closure_matches_bfs(net)

    def test_inserts_record_until_the_first_read_closes_all_then_walk(self):
        net = InfluenceNetwork()
        for _ in range(100):
            net.add_event()
        net._succ = succ = _ReadLog(net._succ)
        # Before the first read an insert reads only the entry it records in.
        net.add_influence(10, 60)
        net.add_influence(20, 50)
        assert set(succ.read) == {10, 20}
        # The first read closes the whole network in one Kahn pass.
        succ.read.clear()
        assert net.influences(20, 50)
        assert sorted(succ.read) == list(range(100))
        # After it, an insert walks down from its target: 99 has no successors.
        succ.read.clear()
        net.add_influence(50, 99)
        assert set(succ.read) == {50, 99}
        succ.read.clear()
        assert net.influences(20, 99)
        assert succ.read == []

    def test_finalize_closes_so_reads_write_nothing(self):
        net = InfluenceNetwork()
        a, b, c = (net.add_event() for _ in range(3))
        net.add_influence(a, b)
        net.add_influence(b, c)
        before = list(net.finalize()._anc)
        assert before == [0, 0b1, 0b11]
        net._succ = log = _ReadLog(net._succ)
        assert net.influences(a, c) and net._cyclic() == ()
        assert log.read == [] and net._anc == before


def large_parts(shape: str, n: int, seed: int) -> tuple[dict, list]:
    """Raw `from_parts` input of n events at the sizes the bulk load serves.

    Each shape starts from a DAG on hidden ranks 0..n-1: chains P, Q and R,
    each rising through a quarter of the ranks, and free edges up to 40
    ranks ahead.  "reversed" numbers the ranks n-1..0, the others in a
    random order, so ids run against influence.  "cyclic" adds edges back
    down the ranks, "self-loop" adds self-loops, and "repeated-member"
    lists one member of each chain a second time.  Returns (chains, edges).
    """
    rng = random.Random(seed)
    ids = list(range(n))[::-1] if shape == "reversed" else rng.sample(range(n), n)
    chains = {name: sorted(rng.sample(range(n), n // 4)) for name in "PQR"}
    edges = [(a, min(n - 1, a + rng.randint(1, 40))) for a in range(n - 1) for _ in range(rng.randint(0, 2))]
    if shape == "cyclic":
        edges += [(b, a) for a, b in (sorted(rng.sample(range(n), 2)) for _ in range(5))]
    if shape == "self-loop":
        edges += [(a, a) for a in rng.sample(range(n), 5)]
    if shape == "repeated-member":
        for members in chains.values():
            members.insert(rng.randrange(len(members) + 1), rng.choice(members))
    chains = {name: [ids[e] for e in members] for name, members in chains.items()}
    return chains, [(ids[a], ids[b]) for a, b in edges]


class TestBulkLoad:
    """from_parts builds the adjacency whole; the first read closes it in one Kahn order."""

    @pytest.mark.parametrize("n", [300, 2000])
    @pytest.mark.parametrize("shape", ["permuted", "reversed", "cyclic", "self-loop", "repeated-member"])
    def test_closure_matches_bfs_at_bulk_sizes(self, shape, n):
        chains, edges = large_parts(shape, n, seed=n)
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        adj = adjacency(net)
        index = {e: i for i, e in enumerate(net.event_ids())}
        below: list[set[int]] = [set() for _ in index]
        for a, i in index.items():
            for b in bfs_descendants(adj, a):
                below[index[b]].add(i)
        expected = [sum(1 << i for i in ancestors) for ancestors in below]
        assert net._closure() == expected
        assert bool(net._cyclic()) == (shape not in ("permuted", "reversed"))

    def test_upward_insert_after_a_downward_load_still_tests_for_cycles(self):
        # 3 -> 1 -> 2 loads with one downward edge; 2 -> 3 runs upward and
        # would close the cycle.
        net = InfluenceNetwork.from_parts("general", {"P": [1, 2]}, [(3, 1)], events=range(4))
        assert not net._upward
        with pytest.raises(CycleError):
            net.add_influence(2, 3)
        assert not net.influences(2, 3)

    def test_falling_ids_load_in_near_linear_time(self):
        # A 4000-event chain costs at most about 2.5 times a 2000-event
        # one.  Before the bulk load, falling ids took the walk on every
        # edge and the ratio was about 4.5.  Each round times both sizes
        # best of 3, interleaved, and the median round drops a round that a
        # pause on a shared machine hit.
        def load(n: int) -> float:
            start = time.perf_counter()
            InfluenceNetwork.from_parts("general", {"P": falling[n]}, []).finalize()
            return time.perf_counter() - start

        falling = {n: list(range(n - 1, -1, -1)) for n in (2000, 4000)}
        ratios = []
        for _ in range(7):
            small = large = math.inf
            for _ in range(3):
                small, large = min(small, load(2000)), min(large, load(4000))
            ratios.append(large / small)
        assert statistics.median(ratios) <= 2.5, sorted(ratios)

    def test_falling_ids_load_as_fast_as_rising_ids(self):
        # The same 4000-event chain with ids falling against influence loads
        # in at most 1.5 times the time of its rising twin (about 1 here;
        # about 200 before the bulk load).  Both orders grow the same
        # bitsets, so this ratio carries none of their growth.  Each round
        # times both orders best of 3, interleaved; the median of 7 rounds
        # drops a round that a pause on a shared machine hit.
        def load(members: list[int]) -> float:
            start = time.perf_counter()
            InfluenceNetwork.from_parts("general", {"P": members}, []).finalize()
            return time.perf_counter() - start

        rising, falling = list(range(4000)), list(range(3999, -1, -1))
        ratios = []
        for _ in range(7):
            up = down = math.inf
            for _ in range(3):
                up, down = min(up, load(rising)), min(down, load(falling))
            ratios.append(down / up)
        assert statistics.median(ratios) <= 1.5, sorted(ratios)


# == 4. Transitive reduction ==================================================


class TestTransitiveReduction:
    def test_drops_redundant_edge(self):
        net = InfluenceNetwork()
        a, b, c = (net.add_event() for _ in range(3))
        net.add_influence(a, b)
        net.add_influence(b, c)
        net.add_influence(a, c)
        assert net.transitive_reduction() == {(a, b), (b, c)}

    def test_keeps_covering_edges(self, two_particles):
        assert two_particles.transitive_reduction() == set(two_particles.edges())

    def test_edgeless(self):
        net = InfluenceNetwork()
        net.add_event()
        assert net.transitive_reduction() == set()

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_reduction_preserves_reachability(self, data):
        n = data.draw(st.integers(2, 12), label="events")
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n), label="edges"
        )
        net = InfluenceNetwork.from_parts(
            "general", {}, chosen, events=range(n)
        ).finalize()
        reduced = net.transitive_reduction()
        assert reduced <= set(net.edges())
        slim: dict[int, set[int]] = {e: set() for e in range(n)}
        for source, target in reduced:
            slim[source].add(target)
        full = adjacency(net)
        for a in range(n):
            for b in range(n):
                assert bfs_reaches(slim, a, b) == bfs_reaches(full, a, b)

    @settings(max_examples=150, deadline=None)
    @given(network_parts())
    def test_reduction_is_the_bfs_rule(self, parts):
        # Cycles, self-loops, shared events and repeated members included:
        # an edge s -> t stays unless another successor of s reaches t.
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        adj = adjacency(net)
        expected = {
            (s, t)
            for s, targets in adj.items()
            for t in targets
            if not any(bfs_reaches(adj, mid, t) for mid in targets - {t})
        }
        assert net.transitive_reduction() == expected


# == 5. Validation ============================================================


class TestValidate:
    def test_legal_fixture_is_clean(self, two_particles):
        assert two_particles.validate() == []

    @settings(max_examples=80, deadline=None)
    @given(network_parts())
    def test_from_parts_links_every_chain(self, parts):
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        links = {(a, b) for members in chains.values() for a, b in zip(members, members[1:])}
        assert {(a, b) for a, b in links if a != b} <= net.edges()

    def test_cycle_reported(self):
        net = InfluenceNetwork.from_parts("general", {}, [(0, 1), (1, 0)], events=[0, 1])
        rules = [v.rule for v in net.validate()]
        assert rules == ["cycle-would-form"]

    def test_restricted_off_chain_event_is_postulate_3(self):
        net = InfluenceNetwork("restricted")
        net.add_event()
        assert [v.rule for v in net.validate()] == ["postulate-3"]

    def test_restricted_double_cross_is_postulate_3(self):
        net = InfluenceNetwork.from_parts(
            "restricted",
            {"A": [0, 1], "B": [2, 3], "C": [4, 5]},
            [(0, 2), (0, 4)],
        )
        assert "postulate-3" in {v.rule for v in net.validate()}

    def test_duplicate_chain_member_flagged(self):
        net = InfluenceNetwork.from_parts("general", {"P": [0, 1, 0]}, [])
        assert "postulate-4" in {v.rule for v in net.validate()}

    def test_repeated_member_lies_on_its_chain_once(self):
        net = InfluenceNetwork.from_parts("restricted", {"P": [0, 1, 0], "Q": [1, 2]}, [])
        assert (net.chains_of(0), net.chains_of(1)) == (("P",), ("P", "Q"))
        assert [str(v) for v in net.validate()] == [
            "cycle-would-form: events on directed cycles: [0, 1]",
            "postulate-4: chain 'P' lists an event more than once",
            "postulate-3: event 1 lies on 2 chains; restricted mode requires exactly one",
        ]

    def test_self_loop_counts_once_toward_the_cross_degree(self):
        net = InfluenceNetwork.from_parts("restricted", {"P": [0, 1], "Q": [2, 3]}, [(4, 4)])
        assert [str(v) for v in net.validate()] == [
            "cycle-would-form: events on directed cycles: [4]",
            "postulate-3: event 4 lies on 0 chains; restricted mode requires exactly one",
        ]

    def test_cross_two_cycle_counts_both_edges(self):
        net = InfluenceNetwork.from_parts(
            "restricted", {"P": [0, 1], "Q": [2, 3]}, [(0, 2), (2, 0)]
        )
        assert [str(v) for v in net.validate()][1:] == [
            f"postulate-3: event {e} takes part in 2 cross-chain influences; "
            "restricted mode allows one"
            for e in (0, 2)
        ]

    @settings(max_examples=150, deadline=None)
    @given(network_parts(), st.sampled_from(["restricted", "general"]))
    def test_cross_degree_matches_a_recount_over_edges(self, parts, mode):
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts(mode, chains, edges, events=range(n))
        homes = {e: {name for name, members in chains.items() if e in members} for e in range(n)}
        recount = {}
        for event in range(n):
            incident = [(s, t) for s, t in net.edges() if event in (s, t)]
            recount[event] = sum(not homes[s] & homes[t] for s, t in incident)
            assert net._cross[event] == (recount[event] if mode == "restricted" else 0)
        breaches = [str(v) for v in net.validate() if "cross-chain" in v.detail]
        assert breaches == [
            f"postulate-3: event {e} takes part in {count} cross-chain influences; "
            "restricted mode allows one"
            for e, count in recount.items()
            if count > 1 and mode == "restricted"
        ]

    @settings(max_examples=100, deadline=None)
    @given(network_parts())
    def test_restricted_load_tests_each_distinct_influence_once(self, parts):
        # Links are never cross, so a load tests only its distinct
        # influences, here repeated and mixed with some chain links.
        chains, edges, n = parts
        links = [(a, b) for members in chains.values() for a, b in zip(members, members[1:])]
        influences = edges + links[::2] + edges
        calls = []
        is_cross = InfluenceNetwork._is_cross

        def counted(net, *args):
            calls.append(args)
            return is_cross(net, *args)

        with mock.patch.object(InfluenceNetwork, "_is_cross", counted):
            InfluenceNetwork.from_parts("restricted", chains, influences, events=range(n))
        assert len(calls) <= len(set(influences))

    @settings(max_examples=150, deadline=None)
    @given(network_parts())
    def test_closure_finds_cycles_and_depths(self, parts):
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        adj = adjacency(net)
        cyclic = tuple(e for e in range(n) if e in bfs_descendants(adj, e))
        assert net._cyclic() == cyclic
        if cyclic:
            return
        preds = {e: [s for s, t in net.edges() if t == e] for e in range(n)}

        def longest(e: int) -> int:
            return max((longest(p) + 1 for p in preds[e]), default=0)

        assert net._depths() == {e: longest(e) for e in range(n)}


# == 6. Chain labels ==========================================================


class TestChainLabels:
    def test_labels_are_order_isomorphic(self, ladder):
        chain = ladder.chain("P")
        for first in chain.labels():
            for second in chain.labels():
                precedes = ladder.influences(
                    chain.event_at(first), chain.event_at(second)
                )
                assert (first <= second) == precedes

    def test_label_round_trip(self, ladder):
        chain = ladder.chain("Q")
        for label in chain.labels():
            assert chain.label_of(chain.event_at(label)) == label

    @pytest.mark.parametrize("members", ["0 1 2", "0 1 0", "0 1 0 2 1 2", "5 5 5"])
    def test_label_of_is_the_first_index_on_forced_files(self, tmp_path, members):
        source = tmp_path / "repeat.net"
        source.write_text(f"mode general\nchain P: {members}\nchain Q: 7 0\n")
        chain = netformat.load_path(str(source), force=True).chain("P")
        for event in chain.events:
            assert chain.label_of(event) == chain.events.index(event) + 1
        with pytest.raises(UnknownEventError):
            chain.label_of(7)


# == 7. Random edit sequences stay acyclic ===================================


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_random_edits_never_create_cycles(data):
    net = InfluenceNetwork("general")
    net.add_chain("P")
    ops = data.draw(st.lists(st.integers(0, 99), min_size=2, max_size=40), label="ops")
    for op in ops:
        if op % 3 == 0 or not net.event_ids():
            net.add_event("P" if op % 2 else None)
        else:
            ids = net.event_ids()
            src = ids[op % len(ids)]
            dst = ids[(op * 7 + 3) % len(ids)]
            try:
                net.add_influence(src, dst)
            except (CycleError, DuplicateEdgeError):
                pass
    for a in net.event_ids():
        for b in net.event_ids():
            if a != b:
                assert not (net.influences(a, b) and net.influences(b, a))
    assert not [v for v in net.validate() if v.rule == "cycle-would-form"]


def test_queries_require_finalized_network():
    from infnet import forward_project

    net = InfluenceNetwork()
    net.add_chain("P")
    net.add_event("P")
    with pytest.raises(NotFinalizedError):
        forward_project(net, 0, "P")
