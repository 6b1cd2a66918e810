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
    - bad calls to distance, quantify_interval, project_interval and the
      projections raise pinned errors in a pinned order: unknown events,
      chains and labels, an unfinalized network, missing projections,
      uncoordinated chains and endpoints not between the chains
    - every chain query reports an unfinalized network before an unknown
      chain, and on a finalized one names the first unknown chain
    - distance and quantify_interval equal references built from per-event
      forward_project and is_between calls on random ladders, errors included
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infnet import (
    ChainInterval,
    ChainRef,
    InfluenceNetwork,
    IntervalQuantification,
    MissingProjectionError,
    NotBetweenError,
    NotFinalizedError,
    PairQuantification,
    UncoordinatedChainsError,
    UnknownChainError,
    backward_project,
    decompose,
    distance,
    forward_project,
    is_between,
    is_coordinated,
    minkowski_scalar,
    project_interval,
    quantify_event,
    quantify_interval,
    zigzag_interval_pairs,
)

from conftest import (
    bfs_between,
    bfs_labels,
    build_ladder,
    build_ladder_with_between,
    ladder_parts,
    network_parts,
    pairwise_consistent,
    seeded_ladder_parts,
)

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


# == 7. Bad calls and the table-driven reads ==================================


def skewed_chains() -> InfluenceNetwork:
    """Two four-event chains that quantify each other's intervals differently."""
    net = InfluenceNetwork("general")
    net.add_chain("P")
    net.add_chain("Q")
    p = [net.add_event("P") for _ in range(4)]
    q = [net.add_event("Q") for _ in range(4)]
    net.add_influence(p[0], q[0])
    net.add_influence(p[1], q[3])
    return net


def outcome(call, *args):
    """What a call gives: ("ok", repr of the value), or the exception's type name and text."""
    try:
        return "ok", repr(call(*args))
    except Exception as exc:
        return type(exc).__name__, str(exc)


P8 = ChainRef("P", tuple(range(8)))  # chain P of the ladder fixture, built apart from it
FOREIGN = ChainRef("Z", (99, 100))  # a chain no test network has

# (id, network, call, arguments, outcome).  "open" is the ladder before
# finalize(); its events are P = 0..7 and Q = 8..15, "between" adds the
# midway events 16 and 17.  The outcomes pin the type, the text and the
# order of the errors, so any change in them fails here.  The rule: every
# query reaches its chains through InfluenceNetwork._view, which reports an
# unfinalized network before an unknown chain, and an unknown chain comes
# before an unknown event or label.
NOT_FINAL = ("NotFinalizedError", "network must be finalized before this query")
BAD_CALLS = [
    ("distance-open", "open", distance, ("P", "Q", 1, 1), NOT_FINAL),
    ("distance-open-unknown-p", "open", distance, ("X", "Q", 1, 1), NOT_FINAL),
    ("distance-open-unknown-q", "open", distance, ("P", "Y", 1, 1), NOT_FINAL),
    ("distance-open-unknown-both", "open", distance, ("X", "Y", 1, 1), NOT_FINAL),
    ("distance-unknown-p", "ladder", distance, ("X", "Q", 1, 1),
     ("UnknownChainError", "unknown chain 'X'")),
    ("distance-unknown-q", "ladder", distance, ("P", "Y", 1, 1),
     ("UnknownChainError", "unknown chain 'Y'")),
    ("distance-unknown-both", "ladder", distance, ("X", "Y", 1, 1),
     ("UnknownChainError", "unknown chain 'X'")),
    ("distance-unknown-chainref", "ladder", distance, ("P", FOREIGN, 1, 1),
     ("UnknownChainError", "unknown chain 'Z'")),
    ("distance-label-p", "ladder", distance, ("P", "Q", 0, 1),
     ("UnknownEventError", "chain 'P' has no label 0")),
    ("distance-label-q", "ladder", distance, ("P", "Q", 1, 9),
     ("UnknownEventError", "chain 'Q' has no label 9")),
    ("distance-labels-both", "ladder", distance, ("P", "Q", 9, 0),
     ("UnknownEventError", "chain 'P' has no label 9")),
    ("distance-uncoordinated", "skewed", distance, ("P", "Q", 9, 9),
     ("UncoordinatedChainsError", "chains 'P' and 'Q' are not coordinated")),
    ("distance-missing-q-on-p", "ladder", distance, ("P", "Q", 1, 7),
     ("MissingProjectionError", "event 14 has no forward projection onto 'P'")),
    ("distance-missing-p-on-q", "ladder", distance, ("P", "Q", 7, 1),
     ("MissingProjectionError", "event 6 has no forward projection onto 'Q'")),
    ("distance-missing-both", "ladder", distance, ("P", "Q", 8, 8),
     ("MissingProjectionError", "event 15 has no forward projection onto 'P'")),
    ("distance-ok", "between", distance, ("P", "Q", 3, 4), ("ok", "Fraction(2, 1)")),
    ("distance-chainrefs", "ladder", distance, (P8, "Q", 2, 5), ("ok", "Fraction(2, 1)")),
    ("interval-open", "open", quantify_interval, (0, 8, "P", "Q"), NOT_FINAL),
    ("interval-open-unknown", "open", quantify_interval, (99, 8, "X", "Y"), NOT_FINAL),
    ("interval-unknown-p", "ladder", quantify_interval, (2, 10, "X", "Q"),
     ("UnknownChainError", "unknown chain 'X'")),
    ("interval-unknown-q", "ladder", quantify_interval, (2, 10, "P", "Y"),
     ("UnknownChainError", "unknown chain 'Y'")),
    ("interval-unknown-chain-and-event", "ladder", quantify_interval, (99, 10, "P", "Y"),
     ("UnknownChainError", "unknown chain 'Y'")),
    ("interval-unknown-a", "ladder", quantify_interval, (99, 10, "P", "Q"),
     ("UnknownEventError", "unknown event 99")),
    ("interval-unknown-b", "ladder", quantify_interval, (2, 99, "P", "Q"),
     ("UnknownEventError", "unknown event 99")),
    ("interval-missing-a-before-unknown-b", "ladder", quantify_interval, (6, 99, "P", "Q"),
     ("MissingProjectionError", "event 6 has no forward projection onto 'Q'")),
    ("interval-missing-b", "ladder", quantify_interval, (2, 14, "P", "Q"),
     ("MissingProjectionError", "event 14 has no forward projection onto 'P'")),
    ("interval-missing-second-chain", "ladder", quantify_interval, (14, 2, "Q", "P"),
     ("MissingProjectionError", "event 14 has no forward projection onto 'P'")),
    ("interval-not-between-a", "ladder", quantify_interval, (0, 3, "P", "Q"),
     ("NotBetweenError", "event 0 is not between chains 'P' and 'Q'")),
    ("interval-not-between-b", "between", quantify_interval, (16, 0, "P", "Q"),
     ("NotBetweenError", "event 0 is not between chains 'P' and 'Q'")),
    ("interval-not-between-waived", "ladder", quantify_interval, (0, 3, "P", "Q", False),
     ("ok", "IntervalQuantification(quadruple=(1, 3, 4, 6), pair=PairQuantification("
            "dp=Fraction(3, 1), dq=Fraction(3, 1)), scalar=Fraction(9, 1))")),
    ("interval-ok", "between", quantify_interval, (16, 17, "P", "Q"),
     ("ok", "IntervalQuantification(quadruple=(4, 4, 7, 7), pair=PairQuantification("
            "dp=Fraction(3, 1), dq=Fraction(3, 1)), scalar=Fraction(9, 1))")),
    ("interval-chainrefs", "ladder", quantify_interval, (2, 10, P8, "Q"),
     ("ok", "IntervalQuantification(quadruple=(3, 5, 5, 3), pair=PairQuantification("
            "dp=Fraction(2, 1), dq=Fraction(-2, 1)), scalar=Fraction(-4, 1))")),
    ("project-open-bad-direction", "open", project_interval,
     (ChainInterval(P8, 2, 5), "X", "up"),
     ("ValueError", "direction must be 'forward' or 'backward', got 'up'")),
    ("project-open-unknown", "open", project_interval, (ChainInterval(P8, 2, 5), "X"),
     NOT_FINAL),
    ("project-open", "open", project_interval, (ChainInterval(P8, 2, 5), "Q"), NOT_FINAL),
    ("project-unknown", "ladder", project_interval, (ChainInterval(P8, 2, 5), "X"),
     ("UnknownChainError", "unknown chain 'X'")),
    ("project-foreign", "ladder", project_interval, (ChainInterval(FOREIGN, 1, 2), "Q"),
     ("UnknownEventError", "unknown event 99")),
    ("project-missing", "ladder", project_interval, (ChainInterval(P8, 2, 8), "Q"),
     ("ok", "None")),
    ("project-forward", "ladder", project_interval, (ChainInterval(P8, 2, 5), "Q"),
     ("ok", "ChainInterval(chain=ChainRef(name='Q', events=(8, 9, 10, 11, 12, 13, 14, 15)), "
            "lo=4, hi=7)")),
    ("project-backward", "ladder", project_interval,
     (ChainInterval(P8, 3, 6), "Q", "backward"),
     ("ok", "ChainInterval(chain=ChainRef(name='Q', events=(8, 9, 10, 11, 12, 13, 14, 15)), "
            "lo=1, hi=4)")),
    ("forward-open-unknown", "open", forward_project, (99, "X"), NOT_FINAL),
    ("forward-unknown", "ladder", forward_project, (99, "X"),
     ("UnknownChainError", "unknown chain 'X'")),
    ("backward-open-unknown", "open", backward_project, (99, "X"), NOT_FINAL),
    ("backward-unknown-event", "ladder", backward_project, (99, "Q"),
     ("UnknownEventError", "unknown event 99")),
    ("coordinated-open-unknown", "open", is_coordinated, ("X", "Y"), NOT_FINAL),
    ("between-open-unknown", "open", is_between, (99, "X", "Y"), NOT_FINAL),
    ("between-unknown", "ladder", is_between, (99, "X", "Y"),
     ("UnknownChainError", "unknown chain 'X'")),
]


def bad_call_network(name: str) -> InfluenceNetwork:
    if name == "open":
        return build_ladder()
    if name == "between":
        return build_ladder_with_between()[0].finalize()
    return (build_ladder() if name == "ladder" else skewed_chains()).finalize()


@pytest.mark.parametrize(
    "network, call, args, expected", [case[1:] for case in BAD_CALLS], ids=[c[0] for c in BAD_CALLS]
)
def test_bad_calls_raise_as_pinned(network, call, args, expected):
    assert outcome(call, bad_call_network(network), *args) == expected


# (call, arguments, the first unknown chain among them) on the ladder: every
# chain query, with the unknown chain in each place it can take.
CHAIN_QUERIES = [
    (forward_project, (0, "X"), "X"),
    (backward_project, (0, "X"), "X"),
    (quantify_event, (0, "X"), "X"),
    (project_interval, (ChainInterval(P8, 2, 5), "X"), "X"),
    (is_coordinated, ("P", "Y"), "Y"),
    (is_coordinated, ("X", "Y"), "X"),
    (is_between, (0, "P", "Y"), "Y"),
    (is_between, (0, "X", "Y"), "X"),
    (distance, ("P", "Y", 1, 1), "Y"),
    (distance, ("X", "Y", 1, 1), "X"),
    (distance, ("P", FOREIGN, 1, 1), "Z"),
    (quantify_interval, (0, 8, "P", "Y"), "Y"),
    (quantify_interval, (0, 8, "X", "Y"), "X"),
    (zigzag_interval_pairs, ("P", "Q", "Y"), "Y"),
    (zigzag_interval_pairs, ("P", "X", "Y"), "X"),
    (zigzag_interval_pairs, ("X", "P", "Q"), "X"),
]


@pytest.mark.parametrize(
    "call, args, unknown",
    CHAIN_QUERIES,
    ids=[f"{call.__name__}-{i}" for i, (call, _, _) in enumerate(CHAIN_QUERIES)],
)
def test_every_chain_query_reports_unfinalized_before_unknown_chain(call, args, unknown):
    net = build_ladder()
    with pytest.raises(NotFinalizedError):
        call(net, *args)
    with pytest.raises(UnknownChainError) as caught:
        call(net.finalize(), *args)
    assert str(caught.value) == f"unknown chain {unknown!r}"


def reference_distance(net, p, q, p_label, q_label):
    """distance from net.chain, is_coordinated and forward_project alone."""
    ref_p, ref_q = net.chain(p), net.chain(q)
    if not is_coordinated(net, p, q):
        raise UncoordinatedChainsError(f"chains {p!r} and {q!r} are not coordinated")
    p_event, q_event = ref_p.event_at(p_label), ref_q.event_at(q_label)
    q_on_p, p_on_q = forward_project(net, q_event, p), forward_project(net, p_event, q)
    for event, chain, label in ((q_event, p, q_on_p), (p_event, q, p_on_q)):
        if label is None:
            raise MissingProjectionError(f"event {event} has no forward projection onto {chain!r}")
    return Fraction((q_on_p - p_label) - (q_label - p_on_q), 2)


def reference_interval(net, a, b, p, q, require_between):
    """quantify_interval from per-event forward_project and is_between calls."""
    net.require_finalized()
    for chain in (p, q):
        net.chain(chain)  # an unknown chain is named before any event
    labels = []
    for event in (a, b):
        for chain in (p, q):
            label = forward_project(net, event, chain)
            if label is None:
                raise MissingProjectionError(
                    f"event {event} has no forward projection onto {chain!r}"
                )
            labels.append(label)
    for event in (a, b) if require_between else ():
        if not is_between(net, event, p, q):
            raise NotBetweenError(f"event {event} is not between chains {p!r} and {q!r}")
    pair = PairQuantification(labels[2] - labels[0], labels[3] - labels[1])
    return IntervalQuantification(quadruple=tuple(labels), pair=pair, scalar=pair.scalar)


@st.composite
def ladder_calls(draw):
    """A finalized random ladder, one edge possibly dropped, and call arguments on it.

    Events, chains and labels include unknown ones; returns (net, events,
    chains, labels) as strategies over the arguments.
    """
    length = draw(st.integers(2, 12))
    separation = draw(st.integers(1, length - 1))
    slots = draw(st.lists(st.integers(0, length - separation - 1), unique=True, max_size=3))
    chains, edges, n = ladder_parts(length, separation, sorted(slots))
    if edges and draw(st.booleans()):
        del edges[draw(st.integers(0, len(edges) - 1))]
    net = InfluenceNetwork.from_parts("general", chains, edges, events=range(n)).finalize()
    return net, st.integers(0, n), st.sampled_from("PQPQX"), st.integers(0, length + 1)


class TestTableReads:
    @settings(max_examples=300, deadline=None)
    @given(ladder_calls(), st.data())
    def test_match_per_event_reference(self, drawn, data):
        net, events, chains, labels = drawn
        p, q = data.draw(chains), data.draw(chains)
        p_label, q_label = data.draw(labels), data.draw(labels)
        assert outcome(distance, net, p, q, p_label, q_label) == outcome(
            reference_distance, net, p, q, p_label, q_label
        )
        a, b, require = data.draw(events), data.draw(events), data.draw(st.booleans())
        assert outcome(quantify_interval, net, a, b, p, q, require) == outcome(
            reference_interval, net, a, b, p, q, require
        )
