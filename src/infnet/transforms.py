"""Frame changes between chain pairs: pair rescaling, boosts, interval length.

A chain that projects consistently onto another pair of chains turns a unit
interval into forward length m and backward length n; the unit itself has
k = sqrt(m*n).  Re-quantifying any pair in the new frame multiplies the
components oppositely,

    (dp, dq)  ->  (dp * sqrt(m/n), dq * sqrt(n/m)),

which preserves the scalar dp*dq.  In (dt, dx) variables this is a boost:
the rescaling by (m, n) moves coordinates exactly as the standard

    dt' = g*dt - b*g*dx,   dx' = -b*g*dt + g*dx

with b = (n - m)/(m + n) and g = (1 - b*b)**-0.5.  Note the sign: the
quantity (m - n)/(m + n) is the speed the new frame *attributes to* an
interval at rest in the old one, so the coordinate boost runs with the
opposite sign.  FrameRelation.as_boost() encodes the correspondence.

Every root follows one rule: each transformed component and the length
sqrt(dp*dq) are exact (Fraction) where the input and the root are rational,
else rounded once from their exact rational, which may lie past float range;
k and gamma are always floats rounded once, gamma inf past float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .geometry import Number, PairQuantification


class LightlikeBoostError(ValueError):
    """Raised when a boost at |beta| = 1 is applied to coordinates."""


class SpacelikeIntervalError(ValueError):
    """Raised when a length is requested for a pair with negative scalar."""


def _sqrt(value: Fraction, name: str) -> float:
    """The square root of a non-negative rational, rounded once to a float.

    The value is not turned into a float first, so a root that fits in a
    float is found even where the value itself would overflow or
    underflow.  The root is taken in integers, scaled by 4**shift so that
    it has at least 64 bits; when it is inexact its last bit is set, which
    places it strictly between the two integers around the true root and
    so rounds like it.  A root beyond float range is refused as a
    ValueError naming `name`.
    """
    num, den = value.numerator, value.denominator
    shift = max(0, 65 - (num.bit_length() - den.bit_length()) // 2)
    scaled, rest = divmod(num << 2 * shift, den)
    root = math.isqrt(scaled)
    if rest or root * root != scaled:
        root |= 1
    try:
        return root / (1 << shift)
    except OverflowError:
        raise ValueError(f"{name} is too large for a float") from None


def _scaled(value: Number, ratio: Fraction, exact: bool, name: str) -> Union[Fraction, float]:
    """value * sqrt(ratio): the root of the exact rational value**2 * ratio, with value's sign.

    A Fraction when `exact` holds and that rational is a square, else rounded once by _sqrt.
    """
    square = Fraction(value) ** 2 * ratio
    num, den = math.isqrt(square.numerator), math.isqrt(square.denominator)
    exact = exact and num * num == square.numerator and den * den == square.denominator
    root = Fraction(num, den) if exact else _sqrt(square, name)
    return root if value >= 0 else -root


@dataclass(frozen=True)
class FrameRelation:
    """A consistent projection of one frame onto another: unit -> (m, n)."""

    m: Number
    n: Number

    def __post_init__(self):
        if not (0 < self.m < math.inf and 0 < self.n < math.inf):
            raise ValueError(
                f"frame projections must be positive and finite, got m={self.m}, n={self.n}"
            )

    @property
    def k(self) -> float:
        """Length of the unit interval in the original frame: sqrt(m*n)."""
        return _sqrt(Fraction(self.m) * Fraction(self.n), "m*n")

    def as_boost(self) -> "Boost":
        """The boost acting on (dt, dx) exactly as this rescaling does."""
        return beta_gamma(self.n, self.m)


@dataclass(frozen=True)
class Boost:
    """A velocity parameter with its dilation factor; gamma is inf past float range."""

    beta: float
    gamma: float

    @property
    def is_lightlike(self) -> bool:
        """|beta| = 1 in the float beta, which rounds there even where gamma is finite."""
        return abs(self.beta) == 1.0


def pair_transform(rel: FrameRelation, pair: PairQuantification) -> PairQuantification:
    """Re-quantify a pair in the frame given by rel; the scalar is preserved."""
    exact = all(isinstance(x, (int, Fraction)) for x in (rel.m, rel.n, *pair))
    ratio = Fraction(rel.m) / Fraction(rel.n)
    return PairQuantification(_scaled(pair.dp, ratio, exact, "dp * sqrt(m/n)"),
                              _scaled(pair.dq, 1 / ratio, exact, "dq * sqrt(n/m)"))


def beta_gamma(m: Number, n: Number) -> Boost:
    """The speed (m - n)/(m + n) a frame pair assigns, with its gamma factor.

    Both come from the exact m and n, gamma as the root of
    (m+n)**2/(4*m*n).  |beta| = 1 exactly when m or n is zero -- the
    light-like case, flagged with infinite gamma.
    """
    if not (0 <= m < math.inf and 0 <= n < math.inf):
        raise ValueError(f"projections must be non-negative and finite, got m={m}, n={n}")
    if m == 0 and n == 0:
        raise ValueError("m and n cannot both be zero")
    m, n = Fraction(m), Fraction(n)
    beta = float((m - n) / (m + n))
    if m == 0 or n == 0:
        return Boost(beta=beta, gamma=math.inf)
    try:
        gamma = _sqrt((m + n) ** 2 / (4 * m * n), "gamma")
    except ValueError:  # beyond float range, where IEEE rounding gives inf
        gamma = math.inf
    return Boost(beta=beta, gamma=gamma)


def lorentz_boost(boost: Boost, dt: Number, dx: Number) -> tuple[float, float]:
    """Boost (dt, dx); preserves dt**2 - dx**2.  Rejects |beta| = 1.

    The test reads the float beta, which rounds to +-1.0 even where gamma is
    finite: a boost there maps (1, 0) to (g, -+g), with dt**2 - dx**2 = 0.
    """
    if boost.is_lightlike or not math.isfinite(boost.gamma):
        raise LightlikeBoostError("cannot boost coordinates at |beta| = 1")
    g = boost.gamma
    bg = boost.beta * g
    dt = float(dt)
    dx = float(dx)
    return g * dt - bg * dx, -bg * dt + g * dx


def interval_length(pair: PairQuantification) -> Union[Fraction, float]:
    """Length sqrt(dp*dq) of a time-like or null pair.

    Exact when dp and dq are rational and so is the root of dp*dq, else
    rounded once from that exact product.  A negative product has no
    length; it is reported as the space-like case it is.
    """
    dp, dq = pair
    scalar = Fraction(dp) * Fraction(dq)
    if scalar < 0:
        raise SpacelikeIntervalError(
            f"pair ({dp}, {dq}) has a negative scalar; "
            "space-like separations have a distance, not a length"
        )
    exact = isinstance(dp, Fraction) and isinstance(dq, Fraction)
    return _scaled(1, scalar, exact, "interval length")
