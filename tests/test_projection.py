"""Forward/backward projection and chain coordinates.

Covered claims:
    - chain members project onto themselves (symmetric pair)
    - forward takes the least reachable label, backward the greatest reaching
    - absent projections come back as None, never sentinels
    - projections agree with a BFS brute-force oracle on random networks,
      including from_parts networks with cycles and repeated chain members,
      and on ladders with midway events up to the benchmark's L = 256, in
      both id orders
    - a finalized network builds a chain's whole view on the first query
      that needs it, and later queries get that same view; that first use
      runs as many lines with five more empty chains, so it builds no other
      chain's view; loading, validate, transitive_reduction, dumps and
      hasse call no `_view` and build no view: the first chain() after
      them runs more lines than the second
    - projections are monotone along influence, and forward >= backward
    - interval projection preserves length on coordinated chains
"""

from __future__ import annotations

import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infnet import (
    ChainInterval,
    FinalizedError,
    InfluenceNetwork,
    UnknownEventError,
    backward_project,
    chain_interval_length,
    forward_project,
    project_interval,
    quantify_event,
)
from infnet.netformat import dumps, loads
from infnet.svg import hasse_svg

from conftest import (
    bfs_labels,
    brute_backward,
    brute_forward,
    ladder_parts,
    lines_run,
    network_parts,
    spying,
)


# == 1. Worked single-chain fixture ==========================================


class TestChainCloud:
    def test_sandwiched_event_is_5_2(self, chain_cloud):
        net, ids = chain_cloud
        coord = quantify_event(net, ids["x"], "P")
        assert (coord.forward, coord.backward) == (5, 2)
        assert coord.forward == brute_forward(net, ids["x"], "P")
        assert coord.backward == brute_backward(net, ids["x"], "P")

    def test_chain_member_symmetric(self, chain_cloud):
        net, _ = chain_cloud
        member = net.chain("P").event_at(3)
        coord = quantify_event(net, member, "P")
        assert (coord.forward, coord.backward) == (3, 3)

    def test_upstream_event_has_no_backward(self, chain_cloud):
        net, ids = chain_cloud
        coord = quantify_event(net, ids["up"], "P")
        assert (coord.forward, coord.backward) == (1, None)

    def test_downstream_event_has_no_forward(self, chain_cloud):
        net, ids = chain_cloud
        coord = quantify_event(net, ids["down"], "P")
        assert (coord.forward, coord.backward) == (None, 6)

    def test_loose_event_unquantified(self, chain_cloud):
        net, ids = chain_cloud
        coord = quantify_event(net, ids["loose"], "P")
        assert (coord.forward, coord.backward) == (None, None)


def test_forward_picks_least_target():
    net = InfluenceNetwork()
    net.add_chain("P")
    p = [net.add_event("P") for _ in range(6)]
    x = net.add_event()
    net.add_influence(x, p[3])
    net.add_influence(x, p[5])
    net.finalize()
    assert forward_project(net, x, "P") == 4


def test_backward_picks_greatest_source():
    net = InfluenceNetwork()
    net.add_chain("P")
    p = [net.add_event("P") for _ in range(4)]
    x = net.add_event()
    net.add_influence(p[0], x)
    net.add_influence(p[1], x)
    net.finalize()
    assert backward_project(net, x, "P") == 2


# == 2. Intervals =============================================================


class TestIntervals:
    @pytest.mark.parametrize("lo, hi, length", [(3, 5, 2), (4, 4, 0), (1, 7, 6)])
    def test_interval_length(self, ladder, lo, hi, length):
        interval = ChainInterval(ladder.chain("P"), lo, hi)
        assert chain_interval_length(interval) == length

    def test_bounds_checked(self, ladder):
        with pytest.raises(ValueError):
            ChainInterval(ladder.chain("P"), 5, 3)
        with pytest.raises(ValueError):
            ChainInterval(ladder.chain("P"), 0, 3)

    def test_projection_preserves_length(self, ladder):
        interval = ChainInterval(ladder.chain("P"), 3, 6)
        image = project_interval(ladder, interval, "Q")
        assert image is not None
        assert chain_interval_length(image) == 3
        back = project_interval(ladder, interval, "Q", direction="backward")
        assert back is not None
        assert chain_interval_length(back) == 3

    def test_length_four_interval_forward(self, ladder):
        interval = ChainInterval(ladder.chain("P"), 1, 5)
        image = project_interval(ladder, interval, "Q")
        assert chain_interval_length(image) == 4
        assert (image.lo, image.hi) == (3, 7)

    def test_zero_length_interval_projects_to_point(self, ladder):
        interval = ChainInterval(ladder.chain("P"), 3, 3)
        image = project_interval(ladder, interval, "Q")
        assert (image.lo, image.hi) == (5, 5)

    def test_unprojectable_endpoint_gives_none(self, ladder):
        interval = ChainInterval(ladder.chain("P"), 2, 8)
        assert project_interval(ladder, interval, "Q") is None


# == 3. Oracle and monotonicity over random networks ==========================


@st.composite
def random_chain_nets(draw):
    """A small DAG with one chain, edges only id-upward so it stays acyclic."""
    n = draw(st.integers(2, 14))
    net = InfluenceNetwork("general")
    net.add_chain("P")
    size = draw(st.integers(1, n))
    on_chain = sorted(draw(st.permutations(range(n)))[:size])
    chain_set = set(on_chain)
    order = []
    for event in range(n):
        order.append(net.add_event("P" if event in chain_set else None))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for src, dst in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)):
        if (src, dst) not in net.edges():
            net.add_influence(src, dst)
    return net.finalize()


def forced_part_nets():
    """Networks the loader builds from any file, --force included."""
    return network_parts().map(
        lambda parts: InfluenceNetwork.from_parts(
            "general", parts[0], parts[1], events=range(parts[2])
        ).finalize()
    )


@settings(max_examples=120, deadline=None)
@given(st.one_of(random_chain_nets(), forced_part_nets()))
def test_projections_match_bfs_oracle(net):
    for name in net.chain_names():
        for event in net.event_ids():
            assert forward_project(net, event, name) == brute_forward(net, event, name)
            assert backward_project(net, event, name) == brute_backward(net, event, name)


@settings(max_examples=60, deadline=None)
@given(random_chain_nets())
def test_projection_monotone_and_ordered(net):
    coords = {event: quantify_event(net, event, "P") for event in net.event_ids()}
    for x in net.event_ids():
        cx = coords[x]
        if cx.forward is not None and cx.backward is not None:
            assert cx.backward <= cx.forward
        for y in net.event_ids():
            if not net.influences(x, y):
                continue
            cy = coords[y]
            if cx.forward is not None and cy.forward is not None:
                assert cx.forward <= cy.forward
            if cx.backward is not None and cy.backward is not None:
                assert cx.backward <= cy.backward


# == 4. Oracle at benchmark sizes ============================================


@pytest.mark.parametrize("length, separation", [(32, 1), (100, 3), (256, 2)])
@pytest.mark.parametrize("reverse", [False, True], ids=["id-order", "reverse-ids"])
def test_ladder_projections_match_bfs_at_benchmark_sizes(length, separation, reverse):
    chains, edges, n = ladder_parts(length, separation, range(1, length - separation, 8))
    if reverse:
        chains = {name: [n - 1 - e for e in members] for name, members in chains.items()}
        edges = [(n - 1 - s, n - 1 - t) for s, t in edges]
    net = InfluenceNetwork.from_parts("general", chains, edges).finalize()
    for name, expected in bfs_labels(net).items():
        got = {
            x: (forward_project(net, x, name), backward_project(net, x, name))
            for x in net.event_ids()
        }
        assert got == expected


# == 5. Chain views ===========================================================


def ladder_file() -> str:
    chains, edges, _ = ladder_parts(16, 2, [3, 9])
    return dumps(InfluenceNetwork.from_parts("general", chains, edges).finalize())


def test_reading_whole_networks_builds_no_view():
    with spying("_view") as views:
        net = loads(ladder_file())
        with pytest.raises(FinalizedError):
            net.add_event()
        net.validate()
        net.transitive_reduction()
        dumps(net)
        hasse_svg(net)
    assert views == []
    # Nor does any of them build a view without that call: a first chain()
    # after them runs more lines than a second, which reuses the view.
    for name in ("P", "Q"):
        first, again = (lines_run(lambda: net.chain(name)) for _ in range(2))
        assert first > again


def test_views_are_built_on_first_need_and_reused():
    with spying("_view") as views:
        net = loads(ladder_file())
    assert views == []
    with spying("_view") as views:
        ref = net.chain("Q")
    # The first use asks for that chain's view and no other chain's.
    assert views == [("Q",)]
    assert net.chain("Q") is ref
    # The first use builds that chain's whole view; later uses, by name or
    # by ChainRef, get the same one.
    view = net._view("Q")
    assert view.ref is ref
    assert len(view.forward) == len(view.backward) == len(net.event_ids())
    forward_project(net, 0, "Q")
    backward_project(net, 0, ref)
    assert net._view(ref) is view
    # A projection as the first use builds the whole view too.
    forward_project(net, 0, "P")
    assert net._view("P") is not view
    assert len(net._view("P").backward) == len(net.event_ids())
    # Five more chains, all empty, leave the lines of Q's first use as they
    # are: it builds Q's view and no other.
    chains, edges, _ = ladder_parts(16, 2, [3, 9])
    counts = []
    for extra in ({}, {f"R{k}": [] for k in range(5)}):
        net = InfluenceNetwork.from_parts("general", chains | extra, edges).finalize()
        net._closure()
        counts.append(lines_run(lambda: net.chain("Q")))
    assert counts[0] == counts[1]


def test_unknown_event_is_rejected_even_on_an_empty_chain():
    net = InfluenceNetwork.from_parts("general", {"P": [0], "E": []}, []).finalize()
    for project in (forward_project, backward_project):
        for name in ("P", "E"):
            with pytest.raises(UnknownEventError):
                project(net, 7, name)


def test_threads_racing_on_first_queries_share_one_view():
    net = loads(ladder_file())
    expected = bfs_labels(net)
    seen, errors = [], []

    def work():
        try:
            for name in ("P", "Q"):
                got = {
                    x: (forward_project(net, x, name), backward_project(net, x, name))
                    for x in net.event_ids()
                }
                assert got == expected[name]
            seen.append((net.chain("P"), net.chain("Q")))
        except AssertionError as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == [] and len(seen) == 8
    assert all(refs[0] is seen[0][0] and refs[1] is seen[0][1] for refs in seen)
