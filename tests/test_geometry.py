"""Coordination, distance, betweenness, and the Minkowski-analogue scalar.

Covered claims:
    - the separation-2 ladder is coordinated; tampered copies are not
    - is_coordinated agrees with the all-pairs reference on random chain pairs
    - is_coordinated and is_between agree with BFS oracles of their
      definitions on raw (cyclic, repeated-member, any id order) parts and
      on benchmark-shaped ladders up to L = 256
    - distance is 2 on the ladder and independent of the endpoints chosen
    - intervals quantify as quadruple/pair/scalar, all Fraction-exact
    - decompose splits into symmetric + antisymmetric parts that re-sum
    - dp*dq == dt**2 - dx**2 bit-exactly for random rationals
    - antisymmetric pairs have non-positive scalar, symmetric non-negative
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infnet import (
    InfluenceNetwork,
    MissingProjectionError,
    NotBetweenError,
    PairQuantification,
    UncoordinatedChainsError,
    decompose,
    distance,
    is_between,
    is_coordinated,
    minkowski_scalar,
    quantify_interval,
)

from conftest import bfs_between, bfs_labels, network_parts, pairwise_consistent, seeded_ladder_parts

rationals = st.fractions(
    min_value=Fraction(-1000), max_value=Fraction(1000), max_denominator=99
)


# == 1. Coordination ==========================================================


class TestCoordination:
    def test_ladder_is_coordinated(self, ladder):
        assert is_coordinated(ladder, "P", "Q")

    def test_self_pairing_is_coordinated(self, ladder):
        assert is_coordinated(ladder, "P", "P")

    def test_length_mismatch_breaks_coordination(self):
        net = InfluenceNetwork("general")
        net.add_chain("P")
        net.add_chain("Q")
        p = [net.add_event("P") for _ in range(4)]
        q = [net.add_event("Q") for _ in range(5)]
        net.add_influence(p[0], q[0])
        net.add_influence(p[2], q[3])  # length 2 maps to length 3
        net.finalize()
        assert not is_coordinated(net, "P", "Q")

    def test_between_events_do_not_disturb_it(self, ladder_between):
        net, _, _ = ladder_between
        assert is_coordinated(net, "P", "Q")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_pairwise_reference(self, data):
        n_p = data.draw(st.integers(1, 9), label="P length")
        p = list(range(n_p))
        if data.draw(st.booleans(), label="ladder"):
            q = list(range(n_p, 2 * n_p))
            sep = data.draw(st.integers(0, n_p - 1), label="separation")
            cross = [(p[i], q[i + sep]) for i in range(n_p - sep)]
            cross += [(q[i], p[i + sep]) for i in range(n_p - sep)]
            k = data.draw(st.integers(0, len(cross) - 1), label="shifted edge")
            source, target = cross[k]
            chain = p if target in p else q
            moved = chain.index(target) + data.draw(st.sampled_from([-1, 1]), label="shift")
            cross[k] = (source, chain[min(max(moved, 0), n_p - 1)])
        else:
            n_q = data.draw(st.integers(1, 9), label="Q length")
            q = list(range(n_p, n_p + n_q))
            ends = st.sampled_from(p + q)
            cross = data.draw(st.lists(st.tuples(ends, ends), max_size=8), label="edges")
        net = InfluenceNetwork.from_parts("general", {"P": p, "Q": q}, cross).finalize()
        expected = pairwise_consistent(net, "P", "Q") and pairwise_consistent(net, "Q", "P")
        assert is_coordinated(net, "P", "Q") == expected


# == 2. Distance ==============================================================


class TestDistance:
    def test_value_from_aligned_endpoints(self, ladder):
        assert distance(ladder, "P", "Q", 3, 3) == 2

    def test_value_from_offset_endpoints(self, ladder):
        assert distance(ladder, "P", "Q", 3, 4) == 2

    def test_independent_of_endpoints(self, ladder):
        values = {
            distance(ladder, "P", "Q", i, j)
            for i in range(1, 7)
            for j in range(1, 7)
        }
        assert values == {Fraction(2)}

    def test_self_distance_is_zero(self, ladder):
        assert distance(ladder, "P", "P", 2, 5) == 0

    def test_uncoordinated_pair_reported(self):
        net = InfluenceNetwork("general")
        net.add_chain("P")
        net.add_chain("Q")
        p = [net.add_event("P") for _ in range(4)]
        q = [net.add_event("Q") for _ in range(4)]
        net.add_influence(p[0], q[0])
        net.add_influence(p[1], q[3])
        net.finalize()
        with pytest.raises(UncoordinatedChainsError):
            distance(net, "P", "Q", 1, 1)

    def test_missing_projection_reported(self, ladder):
        with pytest.raises(MissingProjectionError):
            distance(ladder, "P", "Q", 8, 1)


# == 3. Betweenness ===========================================================


class TestBetweenness:
    def test_midway_events_are_between(self, ladder_between):
        net, a, c = ladder_between
        assert is_between(net, a, "P", "Q")
        assert is_between(net, c, "P", "Q")

    def test_interior_chain_events_are_between(self, ladder_between):
        net, _, _ = ladder_between
        for label in range(3, 7):
            assert is_between(net, net.chain("P").event_at(label), "P", "Q")
            assert is_between(net, net.chain("Q").event_at(label), "P", "Q")

    def test_upstream_event_is_not_between(self, ladder):
        net = ladder
        # p_1 has no backward projection onto Q at all
        assert not is_between(net, net.chain("P").event_at(1), "P", "Q")

    def test_detached_event_is_not_between(self, ladder_between):
        net, a, _ = ladder_between
        detached = InfluenceNetwork("general")
        detached.add_chain("P")
        detached.add_chain("Q")
        detached.add_event("P")
        detached.add_event("Q")
        loose = detached.add_event()
        detached.finalize()
        assert not is_between(detached, loose, "P", "Q")


# == 4. Interval quantification ===============================================


class TestQuantifyInterval:
    def test_antisymmetric_chain_pair(self, ladder):
        p3 = ladder.chain("P").event_at(3)
        q3 = ladder.chain("Q").event_at(3)
        result = quantify_interval(ladder, p3, q3, "P", "Q")
        assert result.quadruple == (3, 5, 5, 3)
        assert tuple(result.pair) == (2, -2)
        assert result.scalar == -4

    def test_midway_to_chain_interval(self, ladder_between):
        net, a, _ = ladder_between
        q6 = net.chain("Q").event_at(6)
        result = quantify_interval(net, a, q6, "P", "Q")
        assert result.quadruple == (4, 4, 8, 6)
        assert tuple(result.pair) == (4, 2)
        assert result.scalar == 8

    def test_degenerate_interval(self, ladder_between):
        net, a, _ = ladder_between
        result = quantify_interval(net, a, a, "P", "Q")
        assert tuple(result.pair) == (0, 0)
        assert result.scalar == 0

    def test_symmetric_midway_pair(self, ladder_between):
        net, a, c = ladder_between
        result = quantify_interval(net, a, c, "P", "Q")
        assert tuple(result.pair) == (3, 3)
        assert result.scalar == 9

    def test_missing_projection_named(self, ladder):
        p8 = ladder.chain("P").event_at(8)
        q1 = ladder.chain("Q").event_at(1)
        with pytest.raises(MissingProjectionError):
            quantify_interval(ladder, p8, q1, "P", "Q")

    def test_not_between_named(self, ladder):
        p1 = ladder.chain("P").event_at(1)
        p4 = ladder.chain("P").event_at(4)
        with pytest.raises(NotBetweenError):
            quantify_interval(ladder, p1, p4, "P", "Q")

    def test_betweenness_check_can_be_waived(self, ladder):
        p1 = ladder.chain("P").event_at(1)
        p4 = ladder.chain("P").event_at(4)
        result = quantify_interval(ladder, p1, p4, "P", "Q", require_between=False)
        assert tuple(result.pair) == (3, 3)


# == 5. Decomposition and the scalar identity =================================


class TestDecomposition:
    def test_worked_example(self):
        split = decompose(PairQuantification(4, 2))
        assert tuple(split.symmetric) == (3, 3)
        assert tuple(split.antisymmetric) == (1, -1)
        assert split.dt == 3
        assert split.dx == 1

    def test_pure_symmetric(self):
        split = decompose(PairQuantification(7, 7))
        assert tuple(split.symmetric) == (7, 7)
        assert tuple(split.antisymmetric) == (0, 0)

    def test_pure_antisymmetric(self):
        split = decompose(PairQuantification(2, -2))
        assert tuple(split.symmetric) == (0, 0)
        assert tuple(split.antisymmetric) == (2, -2)

    @settings(max_examples=200)
    @given(rationals, rationals)
    def test_round_trip(self, dp, dq):
        pair = PairQuantification(dp, dq)
        split = decompose(pair)
        assert split.symmetric + split.antisymmetric == pair

    @settings(max_examples=200)
    @given(rationals, rationals)
    def test_scalar_signature(self, dp, dq):
        split = decompose(PairQuantification(dp, dq))
        assert split.symmetric.scalar >= 0
        assert split.antisymmetric.scalar <= 0


class TestMinkowskiScalar:
    def test_worked_example(self):
        scalar, dt, dx = minkowski_scalar(PairQuantification(4, 2))
        assert (scalar, dt, dx) == (8, 3, 1)
        assert dt * dt - dx * dx == scalar

    def test_antisymmetric_example(self):
        scalar, dt, dx = minkowski_scalar(PairQuantification(2, -2))
        assert (scalar, dt, dx) == (-4, 0, 2)

    def test_zero(self):
        assert minkowski_scalar(PairQuantification(0, 0)) == (0, 0, 0)

    @settings(max_examples=300)
    @given(rationals, rationals)
    def test_identity_bit_exact(self, dp, dq):
        scalar, dt, dx = minkowski_scalar(PairQuantification(dp, dq))
        assert scalar == dt * dt - dx * dx
        assert isinstance(scalar, Fraction)


# == 6. BFS oracles for coordination and betweenness ==========================


def oracle_verdicts(net: InfluenceNetwork) -> dict:
    """(coordinated, events between) for every ordered chain pair, from BFS only."""
    labels = bfs_labels(net)
    return {
        (p, q): (
            pairwise_consistent(net, p, q, labels) and pairwise_consistent(net, q, p, labels),
            [e for e in net.event_ids() if bfs_between(net, labels, e, p, q)],
        )
        for p in net.chain_names()
        for q in net.chain_names()
    }


def library_verdicts(net: InfluenceNetwork) -> dict:
    return {
        (p, q): (
            is_coordinated(net, p, q),
            [e for e in net.event_ids() if is_between(net, e, p, q)],
        )
        for p in net.chain_names()
        for q in net.chain_names()
    }


class TestOracles:
    @settings(max_examples=300, deadline=None)
    @given(network_parts(max_events=12))
    def test_raw_parts_match_bfs(self, parts):
        # Ids in any order, cycles, self-loops and repeated members: what a
        # --force load can hand the geometry.
        chains, edges, n = parts
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n)).finalize()
        assert library_verdicts(net) == oracle_verdicts(net)

    @pytest.mark.parametrize("length", [8, 33, 100, 256])
    @pytest.mark.parametrize("moved", [False, True], ids=["ladder", "moved-edge"])
    def test_ladders_with_midway_events_match_bfs(self, length, moved):
        chains, edges, n = seeded_ladder_parts(length, moved)
        net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n)).finalize()
        expected = oracle_verdicts(net)
        coordinated, between = expected["P", "Q"]
        assert coordinated is not moved
        assert moved or set(range(2 * length, n)) <= set(between)  # every midway event
        assert library_verdicts(net) == expected
