"""Construction, reachability, reduction, and validation of influence networks.

Covered claims:
    - add_event appends, links chain tails, and rejects unknown chains
    - add_influence rejects cycles, duplicates, and restricted-degree breaches,
      in the order README gives when a call breaks two rules, and
      on a restricted load too (the load counts its cross edges); in random
      restricted builds it refuses exactly the edges a recount over edges()
      calls breaches, and validate() then reports none
    - influences() is reflexive-transitive and matches a BFS oracle, after
      random add_event/add_influence sequences (rejected attempts included)
      and on from_parts input in any id order, cyclic input included
    - a loaded network closes whole on its first read: its bitsets equal
      BFS at 300 and 2000 events on permuted, reversed, cyclic, self-loop
      and repeated-member input; a load with a downward edge keeps
      add_influence's cycle test for later upward edges; and a falling
      chain of 4000 events loads in at most about 2.5 times the time of
      one of 2000, and of its rising twin in at most 1.5 times, first read
      included, with no edge taking the per-edge walk
    - from_parts' bulk tables equal per-event references on raw parts:
      _upward holds exactly when every edge of edges() rises, and each
      event's chains_of() lists its chains in listing order; repeated.net
      loads upward
    - an upward network closes in index order and the same parts with
      falling ids in Kahn order, to the same BFS bitsets, with no event
      left to the per-edge walk (no `_spread` call); inserts after an
      upward load's first read keep every bitset equal to BFS
    - transitive reduction drops exactly the implied edges: on raw parts
      (cycles, self-loops, shared events, repeated members) it keeps an
      edge s -> t iff no other successor of s reaches t by BFS
    - the arrows read back from a Hasse drawing are the BFS covering edges
      minus the chain links, on random acyclic parts in any id order and
      on tests/data/restricted.net's parts
    - validate() reports rule names for broken invariants; a cross-chain
      degree counts each incident edge once, a self-loop included, and an
      event a chain lists twice lies on that chain once; an event of a
      restricted load refuses a further cross edge exactly when a recount
      over edges() gives it one, and the load tests crossness at most once
      per distinct influence, never on a chain link
    - in a build by add_event and add_influence, inserts call neither
      `_closure` nor `_spread` until the first read, and each runs as many
      lines at 4000 events as at 100, so it reads no other event's edges;
      the first read closes them all in one pass with no per-edge walk, at
      three lines per event without successors, so it reads each event's
      successors once, and every later insert spreads from its target; the
      closure matches BFS between inserts, after a
      downward edge, and at the benchmark's network-build size; finalize()
      calls no `_closure`, and later reads get the first read's bitsets,
      unchanged; validate() and dumps of an upward load, and a build shaped
      as the network-build benchmark's, call no `_closure`
    - eight threads racing first reads (influences on all pairs, chain())
      of a finalized network that no `_closure` call has read get BFS's
      answers and one view per chain, and leave edges() as it was
    - the events on cycles are the closure's self bits among the events
      its Kahn pass could not place, read after a load or a build and
      between later inserts; index order (every edge upward) or ancestor
      counts order an acyclic network for longest-path depths
    - from_parts links consecutive chain members on any input
    - chain labels are order-isomorphic
    - acyclicity survives random legal edit sequences
    - an unknown mode, a chain declared twice and a negative id given to
      from_parts are refused
    - hasse_svg draws an empty network as an empty picture and an empty
      chain as no polyline
    - only network.py reads the network's storage: an ast scan of the other
      modules and of every test finds no attribute named after one of its
      containers, except on `self`; the tests above watch the closure
      through spies on `_closure`, `_spread`, `_view` and `_is_cross`
      (conftest's `spying`) and bound the work inside one call by the
      source lines it runs (conftest's `lines_run`); the rule for the edges
      that are not chain links lives in `InfluenceNetwork._non_links` alone
"""

from __future__ import annotations

import ast
import math
import random
import re
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
import xml.dom.minidom
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infnet import (
    CycleError,
    DegreeViolationError,
    DuplicateEdgeError,
    FinalizedError,
    InfluenceNetwork,
    NetworkError,
    NotFinalizedError,
    UnknownChainError,
    UnknownEventError,
)
from infnet import netformat
from infnet.svg import hasse_svg

from conftest import (
    adjacency,
    bfs_descendants,
    bfs_reaches,
    lines_run,
    network_parts,
    restricted_file_parts,
    restricted_parts,
    spying,
)

DATA = Path(__file__).parent / "data"


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
        assert net.chains_of(event) == ()

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

    def test_errors_come_in_the_documented_order(self):
        # Each call breaks two rules and gets the error of the one README
        # lists first: finalized, unknown event, self-influence, duplicate,
        # cycle, second cross edge.  a0 -> b1 makes both ends busy.
        net = InfluenceNetwork("restricted")
        net.add_chain("A")
        net.add_chain("B")
        a0 = net.add_event("A")
        _, b1, b2 = (net.add_event("B") for _ in range(3))
        net.add_influence(a0, b1)
        with pytest.raises(UnknownEventError):
            net.add_influence(99, 99)
        with pytest.raises(CycleError, match="self influence"):
            net.add_influence(a0, a0)
        with pytest.raises(DuplicateEdgeError):
            net.add_influence(a0, b1)
        with pytest.raises(CycleError, match="already influences"):
            net.add_influence(b2, a0)
        # Only a load can hold a self-loop or a cycle to insert again.
        loaded = InfluenceNetwork.from_parts("general", {"P": [0, 1]}, [(1, 0), (0, 0)])
        with pytest.raises(CycleError, match="self influence"):
            loaded.add_influence(0, 0)
        with pytest.raises(DuplicateEdgeError):
            loaded.add_influence(0, 1)
        net.finalize()
        with pytest.raises(FinalizedError):
            net.add_influence(99, 99)


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
            if (source, target) not in net.edges():
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
        with spying("_closure") as closures, spying("_spread") as walks:
            # Before the first read an insert only records its edge.
            net.add_influence(10, 60)
            net.add_influence(20, 50)
            assert closures == [] and walks == []
            # The first read closes the whole network in one pass, in index
            # order, with no per-edge walk.
            assert net.influences(20, 50) and net._upward
            assert len(closures) == 1 and walks == []
            # After it, an insert walks from its target; ids are indices here.
            net.add_influence(50, 99)
            assert [(isrc, target) for _, _, isrc, target in walks] == [(50, 99)]
        closure = net._closure()
        assert closure == bfs_bitsets(net)
        # A later read hands out the same bitsets and changes none.
        assert net.influences(20, 99) and net._closure() is closure and closure == bfs_bitsets(net)

    @staticmethod
    def _line_counts(sizes, call) -> list[int]:
        """Lines `call(net)` runs on fresh general networks of `sizes` events.

        Each network holds the two edges 10 -> 60 and 20 -> 50, recorded
        before the count.
        """
        counts = []
        for size in sizes:
            net = InfluenceNetwork()
            for _ in range(size):
                net.add_event()
            net.add_influence(10, 60)
            net.add_influence(20, 50)
            counts.append(lines_run(lambda: call(net)))
        return counts

    def test_inserts_before_the_first_read_touch_only_their_edge(self):
        # An insert runs the same lines at 100 and at 4000 events: it reads
        # no other event's edges.
        small, large = self._line_counts([100, 4000], lambda net: net.add_influence(30, 40))
        assert small == large

    def test_the_first_read_is_one_pass_of_three_lines_per_event(self):
        # Each 100 events more add the same lines, at most three for each
        # event with no successor: the pass reads its successors and goes on.
        counts = self._line_counts([100, 200, 300], lambda net: net.influences(20, 50))
        assert counts[2] - counts[1] == counts[1] - counts[0] <= 3 * 100

    def test_finalize_freezes_and_the_first_read_closes_once(self):
        net = InfluenceNetwork()
        a, b, c = (net.add_event() for _ in range(3))
        net.add_influence(a, b)
        net.add_influence(b, c)
        with spying("_closure") as closures:
            net.finalize()
        assert closures == []
        assert net.influences(a, c)
        closure = net._closure()
        assert closure == [0, 0b1, 0b11]
        with spying("_spread") as walks:
            assert net.influences(a, c) and not net.influences(c, a) and net._cyclic() == ()
        assert walks == [] and net._closure() is closure and closure == [0, 0b1, 0b11]

    def test_validate_and_dumps_of_an_upward_network_build_no_bitsets(self):
        text = (DATA / "restricted.net").read_text()
        chains, cross, homes = restricted_parts(random.Random(500), 600, 8, 0.5)
        with spying("_closure") as closures:
            loaded = netformat.loads(text)
            assert loaded._upward and loaded.validate() == [] and netformat.dumps(loaded) == text
            # A build shaped as the network-build benchmark's: inserts, finalize, dumps.
            built = InfluenceNetwork("restricted")
            for name in sorted(chains):
                built.add_chain(name)
            for home in homes:
                built.add_event(home)
            for source, target in cross:
                built.add_influence(source, target)
            netformat.dumps(built.finalize())
        assert closures == []


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


def bfs_bitsets(net: InfluenceNetwork) -> list[int]:
    """Each event's ancestor bitset over event indices, by BFS over edges()."""
    adj = adjacency(net)
    index = {e: i for i, e in enumerate(net.event_ids())}
    below: list[set[int]] = [set() for _ in index]
    for a, i in index.items():
        for b in bfs_descendants(adj, a):
            below[index[b]].add(i)
    return [sum(1 << i for i in ancestors) for ancestors in below]


class TestBulkLoad:
    """from_parts builds the adjacency whole; the first read closes it in index or Kahn order."""

    @pytest.mark.parametrize("n", [300, 2000])
    @pytest.mark.parametrize("shape", ["permuted", "reversed", "cyclic", "self-loop", "repeated-member"])
    def test_closure_matches_bfs_at_bulk_sizes(self, shape, n):
        chains, edges = large_parts(shape, n, seed=n)
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        assert net._closure() == bfs_bitsets(net)
        assert bool(net._cyclic()) == (shape not in ("permuted", "reversed"))

    @settings(max_examples=150, deadline=None)
    @given(network_parts(), st.sampled_from(["general", "restricted"]))
    def test_bulk_tables_match_per_event_references(self, parts, mode):
        # Shared events, repeated members, self-loops and duplicate
        # influences included.
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts(mode, chains, edges, events=range(n))
        assert net._upward == all(s < t for s, t in net.edges())
        homes: dict[int, tuple[str, ...]] = {}
        for name, members in chains.items():
            for event in members:
                if name not in homes.get(event, ()):
                    homes[event] = homes.get(event, ()) + (name,)
        assert [net.chains_of(e) for e in range(n)] == [homes.get(e, ()) for e in range(n)]

    def test_repeated_member_file_loads_upward(self):
        # chain P: 0 1 1 2 links 0 -> 1 -> 2; its equal neighbours make no edge.
        net = netformat.loads((DATA / "repeated.net").read_text())
        assert net._upward and net.chain("P").events == (0, 1, 1, 2)

    def test_upward_insert_after_a_downward_load_still_tests_for_cycles(self):
        # 3 -> 1 -> 2 loads with one downward edge; 2 -> 3 runs upward and
        # would close the cycle.
        net = InfluenceNetwork.from_parts("general", {"P": [1, 2]}, [(3, 1)], events=range(4))
        assert not net._upward
        with pytest.raises(CycleError):
            net.add_influence(2, 3)
        assert not net.influences(2, 3)

    @pytest.mark.parametrize("shape", ["permuted", "reversed", "cyclic", "self-loop", "repeated-member"])
    def test_threads_racing_first_reads_get_the_bfs_answers(self, shape):
        # Eight threads start together on a finalized network that no read
        # has closed; half ask for the chains first, half for reachability.
        chains, edges = large_parts(shape, 300, seed=7)
        with spying("_closure") as closures:
            net = InfluenceNetwork.from_parts("general", chains, edges, events=range(300)).finalize()
        snapshot, expected, ids = net.edges(), bfs_bitsets(net), net.event_ids()
        assert closures == []
        start = threading.Barrier(8)

        def race(k: int) -> tuple[list[int], dict]:
            start.wait()
            refs = {name: net.chain(name) for name in chains} if k % 2 else {}
            bits = [sum(net.influences(a, b) << i for i, a in enumerate(ids)) for b in ids]
            return bits, refs or {name: net.chain(name) for name in chains}

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often, so first reads interleave
        try:
            with ThreadPoolExecutor(8) as pool:
                answers = list(pool.map(race, range(8)))
        finally:
            sys.setswitchinterval(interval)
        reflexive = [bits | 1 << i for i, bits in enumerate(expected)]
        for bits, refs in answers:
            assert bits == reflexive
            assert all(refs[name] is answers[0][1][name] for name in chains)
            assert {name: ref.events for name, ref in refs.items()} == {
                name: tuple(members) for name, members in chains.items()
            }
        assert net._closure() == expected and net.edges() == snapshot

    def test_falling_ids_load_in_near_linear_time(self):
        # A 4000-event chain costs at most about 2.5 times a 2000-event
        # one.  Before the bulk load, falling ids took the walk on every
        # edge and the ratio was about 4.5.  Each round times both sizes
        # best of 3, interleaved, and the median round drops a round that a
        # pause on a shared machine hit.
        def load(n: int) -> float:
            start = time.perf_counter()
            net = InfluenceNetwork.from_parts("general", {"P": falling[n]}, []).finalize()
            assert net.influences(n - 1, 0)  # the first read closes the chain
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
        # in at most 1.5 times the time of its rising twin (about 200 before
        # the bulk load).  The bound is tight: falling ids close in Kahn
        # order, and each event's ancestors sit above it, so the bitsets
        # hold the same bits in twice the bytes.  Each round times both
        # orders best of 3, interleaved; the median of 7 rounds drops a
        # round that a pause on a shared machine hit.
        #
        # A falling chain's bitsets are ints past pymalloc's 512-byte limit,
        # so they come from the C heap, which may hand them back to the OS
        # when they are freed; in a fresh process every falling load then
        # pays about 170 page faults that a rising one does not.  So one
        # untimed falling load comes first, and while it is alive a few
        # objects of that size are made on top of it: its memory, once
        # freed, stays below them, and every timed load reuses it, whatever
        # ran earlier in the process.
        def build(members: list[int]) -> InfluenceNetwork:
            net = InfluenceNetwork.from_parts("general", {"P": members}, []).finalize()
            assert net.influences(members[0], members[-1])  # the first read closes the chain
            return net

        def load(members: list[int]) -> float:
            start = time.perf_counter()
            net = build(members)  # freed once the clock has stopped
            return time.perf_counter() - start

        rising, falling = list(range(4000)), list(range(3999, -1, -1))
        first = build(falling)
        heap_top = [bytes(600) for _ in range(4)]  # alive until the test returns
        del first
        ratios = []
        for _ in range(7):
            up = down = math.inf
            for _ in range(3):
                up, down = min(up, load(rising)), min(down, load(falling))
            ratios.append(down / up)
        assert statistics.median(ratios) <= 1.5, sorted(ratios)

    def test_falling_ids_load_runs_no_walk(self):
        # The work the timings above bound, counted: a falling chain closes
        # in the one pass, and no edge takes the per-edge walk (before the
        # bulk load, each of its 3999 links did).
        falling = list(range(3999, -1, -1))
        with spying("_spread") as walks:
            net = InfluenceNetwork.from_parts("general", {"P": falling}, []).finalize()
            assert net.influences(3999, 0) and not net.influences(0, 3999)
        assert walks == []


@st.composite
def upward_parts(draw):
    """`network_parts` with every chain sorted and every edge turned to run upward.

    Chains may still share events and repeat members; self-loops are
    dropped.  Returns (chains, edges, n).
    """
    chains, edges, n = draw(network_parts(max_events=16))
    chains = {name: sorted(members) for name, members in chains.items()}
    return chains, [(min(edge), max(edge)) for edge in edges if edge[0] != edge[1]], n


class TestClosurePasses:
    """An upward network closes in index order, any other in Kahn order; both give the BFS closure."""

    @settings(max_examples=100, deadline=None)
    @given(upward_parts())
    def test_index_order_and_kahn_order_give_the_same_bitsets(self, parts):
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        assert net._upward
        # Relabelled by e -> n - 1 - e every edge runs downward, so the load
        # takes the Kahn pass; index i becomes n - 1 - i.
        falling = InfluenceNetwork.from_parts(
            "general",
            {name: [n - 1 - e for e in members] for name, members in chains.items()},
            [(n - 1 - s, n - 1 - t) for s, t in edges],
            events=range(n),
        )
        assert falling._upward == (not net.edges())
        # Neither pass leaves an event unplaced: none takes the per-edge walk.
        with spying("_spread") as walks:
            assert net._closure() == bfs_bitsets(net)
            flipped = [sum(1 << (n - 1 - i) for i in range(n) if bits >> i & 1) for bits in net._closure()]
            assert falling._closure() == flipped[::-1]
        assert walks == []

    @settings(max_examples=60, deadline=None)
    @given(upward_parts(), st.randoms(use_true_random=False))
    def test_inserts_after_an_upward_load_keep_every_bitset_exact(self, parts, rng):
        # The first read hands an event's first incoming bitset over as its
        # source's own int; the walks of later inserts rebind, never share.
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        assert net._closure() == bfs_bitsets(net)
        for _ in range(2 * n):
            source, target = rng.randrange(n), rng.randrange(n)
            try:
                net.add_influence(source, target)
            except (CycleError, DuplicateEdgeError):
                continue
            assert net._closure() == bfs_bitsets(net), (source, target)


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


def drawn_arrows(net: InfluenceNetwork) -> set[tuple[int, int]]:
    """The arrows of net's Hasse drawing, read back from the SVG text.

    Each event is found by its circle's position, which its label names;
    no two events of an acyclic network share one.
    """
    text = hasse_svg(net)
    at = {
        (x, y): int(event)
        for x, y, event in re.findall(
            r'<circle cx="(\d+)" cy="(\d+)"[^\n]*\n<text [^>]*>(\d+)</text>', text
        )
    }
    assert sorted(at.values()) == sorted(net.event_ids())
    lines = re.findall(r'<line x1="(\d+)" y1="(\d+)" x2="(\d+)" y2="(\d+)"', text)
    return {(at[x1, y1], at[x2, y2]) for x1, y1, x2, y2 in lines}


def bfs_arrows(net: InfluenceNetwork, chains: dict) -> set[tuple[int, int]]:
    """Covering edges by BFS, without the chain links, which the drawing shows as lines."""
    adj = adjacency(net)
    links = {(a, b) for members in chains.values() for a, b in zip(members, members[1:])}
    return {
        (s, t)
        for s, targets in adj.items()
        for t in targets
        if (s, t) not in links and not any(bfs_reaches(adj, mid, t) for mid in targets - {t})
    }


class TestHasseDrawing:
    def test_empty_network_draws_an_empty_picture(self):
        net = InfluenceNetwork()
        net.finalize()
        root = xml.dom.minidom.parseString(hasse_svg(net)).documentElement
        assert [node for node in root.childNodes if node.nodeType == node.ELEMENT_NODE] == []

    def test_empty_chain_draws_no_polyline(self):
        net = InfluenceNetwork.from_parts("general", {"E": [], "P": [0, 1]}, [])
        drawing = hasse_svg(net)
        assert drawing.count("<polyline") == 1
        assert 'points=""' not in drawing


class TestDrawnArrows:
    """hasse_svg's arrows are the BFS covering edges minus the chain links."""

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_random_acyclic_parts(self, data):
        # network_parts made acyclic: its edges and chains run up a hidden
        # rank order, and a drawn permutation names the ranks, so ids may
        # run against influence.  Shared events stay.
        chains, edges, n = data.draw(network_parts(), label="parts")
        ids = data.draw(st.permutations(range(n)), label="ids")
        chains = {name: [ids[r] for r in sorted(members)] for name, members in chains.items()}
        edges = [(ids[min(a, b)], ids[max(a, b)]) for a, b in edges if a != b]
        mode = data.draw(st.sampled_from(["general", "restricted"]), label="mode")
        net = InfluenceNetwork.from_parts(mode, chains, edges, events=range(n))
        assert drawn_arrows(net) == bfs_arrows(net, chains)

    def test_restricted_file(self):
        chains, cross = restricted_file_parts()
        net = InfluenceNetwork.from_parts("restricted", chains, cross)
        arrows = drawn_arrows(net)
        assert arrows == bfs_arrows(net, chains)
        assert len(arrows) < len(cross)  # its redundant cross edges are not drawn


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
        breaches = [str(v) for v in net.validate() if "cross-chain" in v.detail]
        assert breaches == [
            f"postulate-3: event {e} takes part in {count} cross-chain influences; "
            "restricted mode allows one"
            for e, count in recount.items()
            if count > 1 and mode == "restricted"
        ]
        # An event with a cross edge refuses another: probe each with an
        # edge to a fresh event, which is cross and closes no cycle.
        net.add_chain("fresh")
        refused = []
        for event in range(n):
            try:
                net.add_influence(event, net.add_event("fresh"))
            except DegreeViolationError:
                refused.append(event)
        assert refused == [e for e in range(n) if mode == "restricted" and recount[e]]

    @settings(max_examples=100, deadline=None)
    @given(network_parts())
    def test_restricted_load_tests_each_distinct_influence_once(self, parts):
        # Links are never cross, so a load tests only its distinct
        # influences, here repeated and mixed with some chain links.
        chains, edges, n = parts
        links = [(a, b) for members in chains.values() for a, b in zip(members, members[1:])]
        influences = edges + links[::2] + edges
        with spying("_is_cross") as calls:
            InfluenceNetwork.from_parts("restricted", chains, influences, events=range(n))
        assert len(calls) <= len(set(influences))

    @settings(max_examples=150, deadline=None)
    @given(
        network_parts(),
        st.booleans(),
        st.lists(st.tuples(st.sampled_from(["event", "influence", "read"]), st.integers(0, 40),
                           st.integers(0, 40)), max_size=16),
    )
    def test_closure_finds_cycles_and_depths(self, parts, loaded, edits):
        # A from_parts load (cycles included) or an empty network, then
        # add_event and add_influence calls with reads in between: the first
        # read closes what is recorded in one pass (index order while every
        # edge rises, else Kahn) and later inserts walk.  At every read the
        # events on cycles are BFS's.
        chains, edges, n = parts
        if loaded:
            net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n))
        else:
            net = InfluenceNetwork("general")
            for name in chains:
                net.add_chain(name)

        def assert_cycles_match_bfs() -> tuple[int, ...]:
            adj = adjacency(net)
            cyclic = tuple(e for e in net.event_ids() if e in bfs_descendants(adj, e))
            assert net._cyclic() == cyclic
            return cyclic

        names = [None, *chains]
        for kind, a, b in edits:
            ids = net.event_ids()
            if kind == "event" or not ids:
                net.add_event(names[a % len(names)])
            elif kind == "influence":
                try:
                    net.add_influence(ids[a % len(ids)], ids[b % len(ids)])
                except (CycleError, DuplicateEdgeError):
                    pass
            else:
                assert_cycles_match_bfs()
        if assert_cycles_match_bfs():
            return
        preds = {e: [s for s, t in net.edges() if t == e] for e in net.event_ids()}

        def longest(e: int) -> int:
            return max((longest(p) + 1 for p in preds[e]), default=0)

        assert net._depths() == {e: longest(e) for e in net.event_ids()}


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


def add_chain_twice():
    net = InfluenceNetwork()
    net.add_chain("P")
    net.add_chain("P")


@pytest.mark.parametrize(
    "build, error, match",
    [
        (lambda: InfluenceNetwork("bogus"), ValueError, "mode must be one of"),
        (add_chain_twice, NetworkError, "chain 'P' already exists"),
        (lambda: InfluenceNetwork.from_parts("general", {"P": [-1, 0]}, []), NetworkError,
         "event ids are non-negative, got -1"),
    ],
    ids=["unknown-mode", "duplicate-chain", "negative-id"],
)
def test_bad_construction_is_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


def test_queries_require_finalized_network():
    from infnet import forward_project

    net = InfluenceNetwork()
    net.add_chain("P")
    net.add_event("P")
    with pytest.raises(NotFinalizedError):
        forward_project(net, 0, "P")


# == 8. One module reads the network's storage ===============================

STORAGE = {"_succ", "_anc", "_unplaced", "_views", "_cross", "_chains_of", "_chains", "_index", "_ids"}


def test_only_network_py_reads_the_storage():
    # Every other module and every test goes through the network's queries,
    # so the storage can change behind them.
    root = Path(__file__).parents[1]
    paths = [path for path in sorted(root.glob("src/infnet/*.py")) if path.name != "network.py"]
    paths += sorted(root.glob("tests/*.py"))
    reads = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in paths
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute)
        and node.attr in STORAGE
        and not (isinstance(node.value, ast.Name) and node.value.id == "self")
    ]
    assert reads == []
