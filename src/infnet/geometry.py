"""Interval geometry between coordinated chains, in exact rational arithmetic.

Two chains are *coordinated* when each quantifies the other's intervals at
their own length: every interval on P whose endpoints project onto Q (both
forward and backward) lands on an interval of equal length, and vice versa.
Coordinated chains carve a flat 1+1-dimensional subspace out of the order.

A generalized interval [a, b] is quantified three ways:

    quadruple  (p_a, q_a, p_b, q_b)      the four forward projections
    pair       (dp, dq) = (p_b - p_a, q_b - q_a)
    scalar     dp * dq

The pair splits into a symmetric part (dt, dt) ordered along the chains and
an antisymmetric part (dx, -dx) ordered across them:

    (dp, dq) = (dt, dt) + (dx, -dx),   dt = (dp + dq) / 2,  dx = (dp - dq) / 2

and the scalar is additive over the split:

    dp * dq = dt**2 - dx**2

the signature falling out of the opposite signs of the antisymmetric pair.
Everything here is Fraction-exact; floats only enter via the transforms
module.  The coordination and betweenness tests and quantify_interval read
each chain's label tables once per call and index them by event.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .network import ChainRef, InfluenceNetwork, _View
from .projection import forward_project

Number = Union[int, Fraction, float]


class UncoordinatedChainsError(ValueError):
    """Raised when an operation requires coordinated chains but they disagree."""


class MissingProjectionError(ValueError):
    """Raised when a required projection of an event onto a chain is absent."""


class NotBetweenError(ValueError):
    """Raised when an interval endpoint is not between the two chains."""


def _exact(value: Number) -> Union[Fraction, float]:
    """Keep ints exact as Fractions; pass floats through unchanged."""
    if isinstance(value, bool):
        raise TypeError("booleans are not quantities")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, (Fraction, float)):
        return value
    raise TypeError(f"expected a number, got {type(value).__name__}")


def _finite(value: Union[Fraction, float]) -> bool:
    """Whether a component is finite; only a float can be infinite or nan."""
    return not isinstance(value, float) or math.isfinite(value)


@dataclass(frozen=True)
class PairQuantification:
    """An interval's projected lengths (dp, dq) onto a chain pair; both finite."""

    dp: Union[Fraction, float]
    dq: Union[Fraction, float]

    def __init__(self, dp: Number, dq: Number):
        dp, dq = _exact(dp), _exact(dq)
        if not (_finite(dp) and _finite(dq)):
            raise ValueError(f"pair components must be finite, got ({dp}, {dq})")
        object.__setattr__(self, "dp", dp)
        object.__setattr__(self, "dq", dq)

    @property
    def scalar(self) -> Union[Fraction, float]:
        return self.dp * self.dq

    def scaled(self, z: Number) -> "PairQuantification":
        z = _exact(z)
        return PairQuantification(z * self.dp, z * self.dq)

    def __add__(self, other: "PairQuantification") -> "PairQuantification":
        return PairQuantification(self.dp + other.dp, self.dq + other.dq)

    def __iter__(self):
        yield self.dp
        yield self.dq


@dataclass(frozen=True)
class Decomposition:
    """Symmetric (along-chain) and antisymmetric (cross-chain) parts of a pair."""

    symmetric: PairQuantification
    antisymmetric: PairQuantification

    @property
    def dt(self) -> Union[Fraction, float]:
        return self.symmetric.dp

    @property
    def dx(self) -> Union[Fraction, float]:
        return self.antisymmetric.dp


@dataclass(frozen=True)
class IntervalQuantification:
    """Quadruple, pair, and scalar views of one generalized interval."""

    quadruple: tuple[int, int, int, int]
    pair: PairQuantification
    scalar: Union[Fraction, float]


def is_coordinated(
    net: InfluenceNetwork, p: Union[str, ChainRef], q: Union[str, ChainRef]
) -> bool:
    """Whether two chains agree on the lengths of each other's intervals.

    That holds exactly when label minus position takes one value over the
    events of each chain that project onto the other, forward and backward
    alike, so one pass over each chain's members decides it, with no
    comparison of label pairs.  Endpoints lacking the relevant projection
    are skipped, so short chains are judged only on the part they can see
    of each other.
    """
    view_p, view_q = net._view(p), net._view(q)
    return all(
        len({labels[i] - k for k, i in enumerate(source.at) if labels[i] is not None}) < 2
        for source, target in ((view_p, view_q), (view_q, view_p))
        for labels in (target.forward, target.backward)
    )


def distance(
    net: InfluenceNetwork,
    p: Union[str, ChainRef],
    q: Union[str, ChainRef],
    p_label: int,
    q_label: int,
) -> Fraction:
    """Separation of two coordinated chains: (dp - dq) / 2 for any event pair.

    dp runs from the P event to the forward projection of the Q event onto
    P; dq runs from the forward projection of the P event onto Q to the Q
    event.  Coordination is checked eagerly because the value is only
    endpoint-independent when it holds.
    """
    ref_p, ref_q = net._view(p).ref, net._view(q).ref
    if not is_coordinated(net, ref_p, ref_q):
        raise UncoordinatedChainsError(
            f"chains {ref_p.name!r} and {ref_q.name!r} are not coordinated"
        )
    p_event = ref_p.event_at(p_label)
    q_event = ref_q.event_at(q_label)
    q_on_p = forward_project(net, q_event, ref_p)
    p_on_q = forward_project(net, p_event, ref_q)
    if q_on_p is None:
        raise MissingProjectionError(
            f"event {q_event} has no forward projection onto {ref_p.name!r}"
        )
    if p_on_q is None:
        raise MissingProjectionError(
            f"event {p_event} has no forward projection onto {ref_q.name!r}"
        )
    dp = q_on_p - p_label
    dq = q_label - p_on_q
    return Fraction(dp - dq, 2)


def is_between(
    net: InfluenceNetwork, x: int, p: Union[str, ChainRef], q: Union[str, ChainRef]
) -> bool:
    """Whether x lies between two chains, by projection composition.

    The four relations checked are: projecting x onto P directly agrees
    with going through its backward projection on Q first (and the forward
    dual), plus both relations with the chains swapped.  Any absent
    projection along the way makes the answer False.
    """
    view_p, view_q = net._view(p), net._view(q)
    return _between(net._require_event(x), view_p, view_q)


def _between(i: int, p: _View, q: _View) -> bool:
    """is_between for the event at index i, given both chains' label tables."""
    fp, bp, fq, bq = p.forward[i], p.backward[i], q.forward[i], q.backward[i]
    if fp is None or bp is None or fq is None or bq is None:
        return False
    return (
        p.forward[q.at[bq - 1]] == fp
        and p.backward[q.at[fq - 1]] == bp
        and q.forward[p.at[bp - 1]] == fq
        and q.backward[p.at[fp - 1]] == bq
    )


def quantify_interval(
    net: InfluenceNetwork,
    a: int,
    b: int,
    p: Union[str, ChainRef],
    q: Union[str, ChainRef],
    require_between: bool = True,
) -> IntervalQuantification:
    """Quantify the generalized interval [a, b] against a chain pair.

    Both endpoints must forward-project onto both chains.  By default both
    must also lie between the chains; pass require_between=False for
    intervals along an uninfluenced source chain, whose events have no
    backward projections and so can never test as between.
    """
    view_p, view_q = net._view(p), net._view(q)
    labels = []
    for event in (a, b):
        i = net._require_event(event)
        for view in (view_p, view_q):
            if view.forward[i] is None:
                raise MissingProjectionError(
                    f"event {event} has no forward projection onto {view.ref.name!r}"
                )
            labels.append(view.forward[i])
    if require_between:
        for event in (a, b):
            if not _between(net._require_event(event), view_p, view_q):
                raise NotBetweenError(
                    f"event {event} is not between chains {view_p.ref.name!r} and {view_q.ref.name!r}"
                )
    pair = PairQuantification(labels[2] - labels[0], labels[3] - labels[1])
    return IntervalQuantification(quadruple=tuple(labels), pair=pair, scalar=pair.scalar)


def decompose(pair: PairQuantification) -> Decomposition:
    """Split a pair into symmetric + antisymmetric parts; the sum restores it."""
    half_sum = (pair.dp + pair.dq) / 2
    half_diff = (pair.dp - pair.dq) / 2
    return Decomposition(
        symmetric=PairQuantification(half_sum, half_sum),
        antisymmetric=PairQuantification(half_diff, -half_diff),
    )


def minkowski_scalar(pair: PairQuantification):
    """The invariant scalar with its time/space split: (dp*dq, dt, dx).

    dt and dx come from `decompose`, and dp*dq == dt**2 - dx**2 holds
    exactly for rational input.
    """
    split = decompose(pair)
    return pair.scalar, split.dt, split.dx
