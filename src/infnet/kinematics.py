"""Rates of influence and the mass/energy/momentum analogues they define.

A particle detected # times over observer spans dp and dq influences at
rates r_p = #/dp and r_q = #/dq.  The rate product is frame-invariant
(it scales as 1/(dp*dq)), and splits as

    r_p * r_q = ((r_p + r_q)/2)**2 - ((r_p - r_q)/2)**2

which is the mass-energy-momentum relation m**2 = E**2 - p**2 with

    mass     = sqrt(r_p * r_q)      (geometric mean)
    energy   = (r_p + r_q) / 2      (arithmetic mean)
    momentum = (r_q - r_p) / 2      (half-difference, sign chosen so that
                                     net rightward motion has momentum > 0)

and speed beta = momentum/energy = (dp - dq)/(dp + dq) = dx/dt.

Under a frame rescaling counts are invariant while intervals rescale, so
rates transform oppositely to pairs; mass is invariant and (E, p) moves
exactly like (dt, dx) under the equivalent boost.

The half-step units have a physical anchor for the electron at the Compton
scale; the constants below record it for documentation only, no unit
system is modelled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .geometry import Number
from .transforms import FrameRelation, _scaled, _sqrt

# Compton-scale size of one half-step for an electron: documentation values.
COMPTON_TICK_SECONDS = 8e-21
COMPTON_STEP_METERS = 2.4e-12


@dataclass(frozen=True)
class RatePair:
    """Influence rates toward the left (r_p) and right (r_q) observers."""

    r_p: float
    r_q: float

    def __post_init__(self):
        if not (abs(self.r_p) < math.inf and abs(self.r_q) < math.inf):
            raise ValueError(f"rates must be finite, got ({self.r_p}, {self.r_q})")
        if self.r_p < 0 or self.r_q < 0:
            raise ValueError(f"rates must be non-negative, got ({self.r_p}, {self.r_q})")
        if self.r_p == 0 and self.r_q == 0:
            raise ValueError("a particle that influences has at least one non-zero rate")


@dataclass(frozen=True)
class Kinematics:
    mass: float
    energy: float
    momentum: float
    beta: float


def rates_from_counts(count: float, dp: Number, dq: Number) -> RatePair:
    """Rates (count/dp, count/dq) for one batch of detections."""
    # abs(v) < inf is False for nan and the infinities, True for any int or Fraction.
    if not all(abs(value) < math.inf for value in (count, dp, dq)):
        raise ValueError(f"count and spans must be finite, got count={count}, dp={dp}, dq={dq}")
    if dp <= 0 or dq <= 0:
        raise ValueError(f"observer spans must be positive, got dp={dp}, dq={dq}")
    if count <= 0:
        raise ValueError(f"detection count must be positive, got {count}")
    return RatePair(count / dp, count / dq)


def kinematics_from_rates(rates: RatePair) -> Kinematics:
    """Mass, energy, momentum, and speed of a rate pair.

    The mass is the root of the exact rational r_p*r_q, rounded once.
    """
    mass = _sqrt(Fraction(rates.r_p) * Fraction(rates.r_q), "mass")
    energy = (rates.r_p + rates.r_q) / 2
    momentum = (rates.r_q - rates.r_p) / 2
    return Kinematics(mass=mass, energy=energy, momentum=momentum, beta=momentum / energy)


def transform_rates(rel: FrameRelation, rates: RatePair) -> RatePair:
    """Re-express rates in another frame: counts fixed, spans rescaled.

    Spans transform like pair components, so rates pick up the inverse
    factors: r_p * sqrt(n/m) and r_q * sqrt(m/n).  The product, hence the
    mass, is untouched.  Every rate is a float: the root of the exact
    rational r_p**2 * n/m (r_q**2 * m/n) rounded once, so a rate that fits
    in a float is returned even where its factor does not, and a rate
    beyond float range is a ValueError.
    """
    ratio = Fraction(rel.n) / Fraction(rel.m)
    return RatePair(
        _scaled(rates.r_p, ratio, False, "r_p * sqrt(n/m)"),
        _scaled(rates.r_q, 1 / ratio, False, "r_q * sqrt(m/n)"),
    )


def beta_consistency(dp: Number, dq: Number) -> float:
    """Speed straight from spans: (dp - dq)/(dp + dq).

    Equals momentum/energy of rates_from_counts(c, dp, dq) for any shared
    count c, and dx/dt of the corresponding interval.
    """
    if not (abs(dp) < math.inf and abs(dq) < math.inf):
        raise ValueError(f"spans must be finite, got dp={dp}, dq={dq}")
    if dp < 0 or dq < 0:
        raise ValueError(f"spans must be non-negative, got dp={dp}, dq={dq}")
    if dp + dq == 0:
        raise ValueError("dp + dq must be positive")
    return float((dp - dq) / (dp + dq))
