"""Projection of events onto observer chains and chain-based coordinates.

An event x *forward projects* onto a chain P at the least chain event that
x influences, and *backward projects* at the greatest chain event that
influences x.  Because influence is reflexive, chain members project onto
themselves, so a chain event with label k is quantified by the symmetric
pair (k, k).  Events unrelated to the chain in one or both directions have
the corresponding projection absent; absence is a first-class outcome
(None), never a sentinel label.

Each projection is one lookup in a per-chain label table that a finalized
network builds on first use (see the network module).  Every network links
consecutive chain members by an edge, so the chain events x influences form
a suffix and those influencing x form a prefix, even on networks with
cycles or repeated chain members; the tables rest on that.  Every query
reads them through `InfluenceNetwork._view`, which takes a chain name or a
`ChainRef` and reports an unfinalized network before an unknown chain;
callers that ask about every event read a chain's view once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .network import ChainRef, InfluenceNetwork

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class EventCoordinate:
    """Forward/backward label pair assigned to an event by one chain."""

    forward: Optional[int]
    backward: Optional[int]

    @property
    def is_symmetric(self) -> bool:
        return self.forward is not None and self.forward == self.backward


@dataclass(frozen=True)
class ChainInterval:
    """The chain events with labels in [lo, hi] on one chain."""

    chain: ChainRef
    lo: int
    hi: int

    def __post_init__(self):
        if not (self.lo in self.chain.labels() and self.hi in self.chain.labels()):
            raise ValueError(
                f"labels [{self.lo}, {self.hi}] out of range for chain {self.chain.name!r}"
            )
        if self.lo > self.hi:
            raise ValueError(f"interval bounds out of order: [{self.lo}, {self.hi}]")


def forward_project(
    net: InfluenceNetwork, x: int, chain: Union[str, ChainRef]
) -> Optional[int]:
    """Label of the least event on the chain that x influences, if any."""
    return net._view(chain).forward[net._require_event(x)]


def backward_project(
    net: InfluenceNetwork, x: int, chain: Union[str, ChainRef]
) -> Optional[int]:
    """Label of the greatest event on the chain that influences x, if any."""
    return net._view(chain).backward[net._require_event(x)]


def quantify_event(
    net: InfluenceNetwork, x: int, chain: Union[str, ChainRef]
) -> EventCoordinate:
    """The (forward, backward) coordinate of x relative to a chain.

    Either component may be absent; an event unrelated to the chain gets
    (None, None).
    """
    return EventCoordinate(
        forward=forward_project(net, x, chain),
        backward=backward_project(net, x, chain),
    )


def chain_interval_length(interval: ChainInterval) -> int:
    return interval.hi - interval.lo


def project_interval(
    net: InfluenceNetwork,
    interval: ChainInterval,
    target: Union[str, ChainRef],
    direction: str = FORWARD,
) -> Optional[ChainInterval]:
    """Project an interval endpoint-wise onto another chain.

    Returns None when either endpoint fails to project.
    """
    if direction not in (FORWARD, BACKWARD):
        raise ValueError(f"direction must be {FORWARD!r} or {BACKWARD!r}, got {direction!r}")
    project = forward_project if direction == FORWARD else backward_project
    ref = net._view(target).ref
    lo = project(net, interval.chain.event_at(interval.lo), ref)
    hi = project(net, interval.chain.event_at(interval.hi), ref)
    if lo is None or hi is None:
        return None
    return ChainInterval(ref, min(lo, hi), max(lo, hi))
