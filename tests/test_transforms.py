"""Pair rescalings, boosts, and the route equivalence between them.

Covered claims:
    - pair_transform scales components oppositely and preserves the scalar
    - the rescaling of a rational pair is exact when m/n is a perfect-square
      rational
    - beta_gamma hits |beta| = 1 exactly when m or n vanishes
    - lorentz_boost preserves dt**2 - dx**2 and rejects light-like boosts,
      including those whose float beta rounds to +-1 at a finite gamma
    - rescaling by (m, n) moves (dt, dx) exactly like the boost with
      beta = (n - m)/(m + n)  (FrameRelation.as_boost)
    - composing two rescalings multiplies their factors
    - interval_length is homogeneous of degree one
    - one rounding rule for every root: k, gamma, the mass, the interval
      length and each component of pair_transform are each the exact
      Fraction (the length and the components, of rational input, when the
      root is rational), else the float nearest the root of the exact
      rational, with the component's sign; beyond float range gamma is inf
      and the others a ValueError naming the quantity.  Checked in
      Fractions on 1000 seeded draws from 1e-400 to 1e400, with a unit, a
      rational and a float pair each, and on float rates
    - FrameRelation, beta_gamma, pair_transform and interval_length refuse
      nan and infinities
    - a root just above a float tie rounds up, a zero float component comes
      back as +0.0, and a pair of a rational and a float has a float length
"""

from __future__ import annotations

import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from infnet import (
    Boost,
    FrameRelation,
    LightlikeBoostError,
    PairQuantification,
    RatePair,
    SpacelikeIntervalError,
    beta_gamma,
    interval_length,
    kinematics_from_rates,
    lorentz_boost,
    minkowski_scalar,
    pair_transform,
)

REL_TOL = 1e-12


# The least root that rounds past the largest float (a tie rounds up there,
# since the largest float's last bit is odd).
PAST_FLOATS = Fraction(sys.float_info.max) + Fraction(math.ulp(sys.float_info.max)) / 2


def is_nearest_float(root: float, square: Fraction) -> bool:
    """Whether root is the float nearest sqrt(square): the square lies strictly
    between the squares of the midpoints to its neighbours."""
    below = (Fraction(root) + Fraction(math.nextafter(root, 0))) / 2
    above = Fraction(root) + Fraction(math.ulp(root)) / 2
    return below * below < square < above * above


def boosted_via_pairs(rel: FrameRelation, dt: float, dx: float) -> tuple[float, float]:
    """Route a (dt, dx) displacement through the pair picture and back."""
    pair = PairQuantification(dt + dx, dt - dx)
    moved = pair_transform(rel, pair)
    _, dt2, dx2 = minkowski_scalar(moved)
    return float(dt2), float(dx2)


# == 1. Pair transform ========================================================


class TestPairTransform:
    def test_worked_example_exact(self):
        moved = pair_transform(FrameRelation(4, 1), PairQuantification(2, 2))
        assert tuple(moved) == (4, 1)
        assert moved.scalar == 4
        assert isinstance(moved.dp, Fraction)

    def test_inverse_frame(self):
        moved = pair_transform(FrameRelation(1, 4), PairQuantification(4, 1))
        assert tuple(moved) == (2, 2)

    def test_symmetric_frame_is_identity(self):
        pair = PairQuantification(5, -3)
        assert tuple(pair_transform(FrameRelation(7, 7), pair)) == (5, -3)

    def test_scalar_preserved_float(self):
        rng = random.Random(20240817)
        for _ in range(500):
            pair = PairQuantification(rng.uniform(-50, 50), rng.uniform(-50, 50))
            rel = FrameRelation(math.exp(rng.uniform(-4, 4)), math.exp(rng.uniform(-4, 4)))
            moved = pair_transform(rel, pair)
            assert moved.scalar == pytest.approx(pair.scalar, rel=REL_TOL, abs=1e-15)

    def test_k_is_geometric_mean(self):
        rel = FrameRelation(4, 1)
        assert rel.k == pytest.approx(2.0, rel=REL_TOL)
        assert rel.k**2 == pytest.approx(rel.m * rel.n, rel=REL_TOL)

    @pytest.mark.parametrize(
        "m, n",
        [
            (Fraction(1, 10**400), 1),
            (Fraction(2, 10**400), 1),
            (3 * 10**400, 1),
            (Fraction(1, 10**400), 10**400),
            (7, Fraction(1, 10**330)),
        ],
        ids=["1e-400,1", "2e-400,1", "3e400,1", "1e-400,1e400", "7,1e-330"],
    )
    def test_roots_come_from_the_exact_rational(self, m, n):
        # m, n or their ratio lies beyond float range, but k, sqrt(m/n) and
        # sqrt(n/m) do not.  Squared exactly, each is its rational to within
        # 2e-12, a relative error within 1e-12.
        rel = FrameRelation(m, n)
        moved = pair_transform(rel, PairQuantification(1, 1))
        assert isinstance(rel.k, float)
        for root, square in [
            (rel.k, Fraction(m) * n),
            (moved.dp, Fraction(m) / n),
            (moved.dq, Fraction(n) / m),
        ]:
            assert abs(Fraction(root) ** 2 / square - 1) < 2e-12

    @pytest.mark.parametrize(
        "m, pair, moved",
        [
            (10**800, (1e-300, 1e300), (1e100, 1e-100)),
            (Fraction(1, 10**800), (1e300, 1e-300), (1e-100, 1e100)),
        ],
        ids=["m-overflows", "m-underflows"],
    )
    def test_components_in_float_range_survive_factors_beyond_it(self, m, pair, moved):
        # sqrt(m/n) is 1e400 or 1e-400, which no float holds; the components do fit.
        assert tuple(pair_transform(FrameRelation(m, 1), PairQuantification(*pair))) == moved

    def test_zero_component_of_a_rational_pair_is_exact(self):
        # 0 * sqrt(2) is the rational 0, while 5 * sqrt(1/2) is rounded once.
        moved = pair_transform(FrameRelation(2, 1), PairQuantification(0, 5))
        assert isinstance(moved.dp, Fraction) and moved.dp == 0
        assert moved.dq == 3.5355339059327378

    @pytest.mark.parametrize("dp, dq", [(math.inf, 1.0), (1.0, math.nan)])
    def test_non_finite_pair_rejected(self, dp, dq):
        with pytest.raises(ValueError, match="finite"):
            pair_transform(FrameRelation(2, 1), PairQuantification(dp, dq))

    def test_zero_float_component_is_positive_zero(self):
        # A float zero is scaled like any non-negative value: it comes back
        # as +0.0, never -0.0.
        for pair in [(0.0, 5.0), (5.0, 0.0)]:
            moved = pair_transform(FrameRelation(2, 1), PairQuantification(*pair))
            zero = moved.dp if pair[0] == 0 else moved.dq
            assert zero == 0 and math.copysign(1.0, zero) == 1.0

    def test_k_of_a_square_is_a_float(self):
        assert FrameRelation(4, 1).k == 2.0 and isinstance(FrameRelation(4, 1).k, float)

    def test_nonpositive_frame_rejected(self):
        with pytest.raises(ValueError):
            FrameRelation(0, 1)
        with pytest.raises(ValueError):
            FrameRelation(3, -2)

    @pytest.mark.parametrize("m, n", [(math.inf, 1), (1, math.nan), (math.nan, math.inf)])
    def test_non_finite_frame_rejected(self, m, n):
        with pytest.raises(ValueError, match="finite"):
            FrameRelation(m, n)

    def test_composition_multiplies_factors(self):
        rng = random.Random(11)
        for _ in range(200):
            first = FrameRelation(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
            second = FrameRelation(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
            unit = PairQuantification(1, 1)
            factor = pair_transform(first, unit).dp * pair_transform(second, unit).dp
            combined = FrameRelation(factor**2, 1)
            pair = PairQuantification(rng.uniform(-10, 10), rng.uniform(-10, 10))
            via_two = pair_transform(second, pair_transform(first, pair))
            via_one = pair_transform(combined, pair)
            assert float(via_two.dp) == pytest.approx(float(via_one.dp), rel=1e-11, abs=1e-13)
            assert float(via_two.dq) == pytest.approx(float(via_one.dq), rel=1e-11, abs=1e-13)


# == 2. beta and gamma ========================================================


class TestBetaGamma:
    def test_worked_example(self):
        boost = beta_gamma(4, 1)
        assert boost.beta == pytest.approx(0.6, rel=REL_TOL)
        assert boost.gamma == pytest.approx(1.25, rel=REL_TOL)

    def test_equal_frames_at_rest(self):
        boost = beta_gamma(3, 3)
        assert boost == Boost(beta=0.0, gamma=1.0)

    def test_null_projection_is_lightlike(self):
        boost = beta_gamma(5, 0)
        assert boost.beta == 1.0
        assert math.isinf(boost.gamma)
        assert boost.is_lightlike
        assert beta_gamma(0, 5).beta == -1.0

    def test_double_zero_rejected(self):
        with pytest.raises(ValueError):
            beta_gamma(0, 0)

    @pytest.mark.parametrize("m, n", [(math.inf, 1), (1, math.nan), (math.inf, 0)])
    def test_non_finite_projections_rejected(self, m, n):
        with pytest.raises(ValueError, match="finite"):
            beta_gamma(m, n)

    def test_gamma_is_finite_where_beta_rounds_to_one(self):
        # beta = (1 - 1e-20)/(1 + 1e-20) rounds to 1.0; gamma is 5e9 exactly.
        assert beta_gamma(1, Fraction(1, 10**20)) == Boost(beta=1.0, gamma=5e9)

    def test_gamma_identity(self):
        rng = random.Random(5)
        for _ in range(300):
            m, n = rng.uniform(0.01, 20), rng.uniform(0.01, 20)
            boost = beta_gamma(m, n)
            assert boost.gamma == pytest.approx(
                (1 - boost.beta**2) ** -0.5, rel=REL_TOL
            )
            assert abs(boost.beta) <= 1


# == 3. Boosts ================================================================


class TestLorentzBoost:
    def test_worked_example(self):
        boost = beta_gamma(4, 1)
        dt, dx = lorentz_boost(boost, 5, 3)
        assert dt == pytest.approx(4.0, rel=REL_TOL)
        assert dx == pytest.approx(0.0, abs=1e-12)

    def test_zero_beta_is_identity(self):
        assert lorentz_boost(Boost(0.0, 1.0), 2.5, -1.5) == (2.5, -1.5)

    def test_lightlike_rejected(self):
        with pytest.raises(LightlikeBoostError):
            lorentz_boost(beta_gamma(1, 0), 1.0, 0.0)

    def test_beta_that_rounds_to_one_is_lightlike(self):
        # gamma is 5e9, but the float beta is -1.0: a boost with it would map
        # (1, 0) to (gamma, gamma), whose dt**2 - dx**2 is 0, not 1.
        boost = FrameRelation(1, Fraction(1, 10**20)).as_boost()
        assert boost == Boost(beta=-1.0, gamma=5e9) and boost.is_lightlike
        with pytest.raises(LightlikeBoostError):
            lorentz_boost(boost, 1.0, 0.0)

    def test_interval_preserved(self):
        rng = random.Random(99)
        for _ in range(300):
            beta = rng.uniform(-0.99, 0.99)
            boost = beta_gamma(1 + beta, 1 - beta)
            dt, dx = rng.uniform(-20, 20), rng.uniform(-20, 20)
            dt2, dx2 = lorentz_boost(boost, dt, dx)
            assert dt2 * dt2 - dx2 * dx2 == pytest.approx(
                dt * dt - dx * dx, rel=1e-11, abs=1e-11
            )


class TestRouteEquivalence:
    def test_frame_maps_to_opposite_sign_boost(self):
        boost = FrameRelation(4, 1).as_boost()
        assert boost.beta == pytest.approx(-0.6, rel=REL_TOL)

    def test_worked_case(self):
        # the boost at beta = 0.6 and the frame it is equivalent to
        rel = FrameRelation(1 - 0.6, 1 + 0.6)
        assert rel.as_boost().beta == pytest.approx(0.6, rel=REL_TOL)
        assert boosted_via_pairs(rel, 5, 3) == pytest.approx((4.0, 0.0), abs=1e-12)

    def test_4_1_frame_on_displacement(self):
        rel = FrameRelation(4, 1)
        via_pairs = boosted_via_pairs(rel, 3, 1)
        via_boost = lorentz_boost(rel.as_boost(), 3, 1)
        assert via_pairs == pytest.approx(via_boost, rel=REL_TOL)
        assert via_pairs == pytest.approx((4.5, 3.5), rel=REL_TOL)

    def test_random_frames(self):
        rng = random.Random(20240818)
        for _ in range(1000):
            beta = rng.uniform(-0.99, 0.99)
            rel = FrameRelation(1 - beta, 1 + beta)
            dt, dx = rng.uniform(-10, 10), rng.uniform(-10, 10)
            expect = lorentz_boost(rel.as_boost(), dt, dx)
            actual = boosted_via_pairs(rel, dt, dx)
            assert actual[0] == pytest.approx(expect[0], rel=1e-11, abs=1e-11)
            assert actual[1] == pytest.approx(expect[1], rel=1e-11, abs=1e-11)


# == 4. Interval length =======================================================


class TestIntervalLength:
    def test_symmetric_pair_exact(self):
        length = interval_length(PairQuantification(3, 3))
        assert length == 3
        assert isinstance(length, Fraction)

    def test_null_pair(self):
        assert interval_length(PairQuantification(0, 17)) == 0

    def test_irrational_length(self):
        assert interval_length(PairQuantification(4, 2)) == pytest.approx(
            math.sqrt(8), rel=REL_TOL
        )

    def test_root_just_above_a_float_tie_rounds_up(self):
        # The truncated quotient is the square of 2**66 + 2**13, exactly
        # halfway between the floats 2**66 and 2**66 + 2**14, and the
        # remainder is 1: the true root lies above the tie, so it rounds up,
        # not to the even 2**66.
        root = 2**66 + 2**13
        length = interval_length(PairQuantification(Fraction(3 * root * root + 1, 3), Fraction(1)))
        assert length == float(2**66 + 2**14)

    @pytest.mark.parametrize("dp, dq", [(Fraction(4), 1.0), (1.0, Fraction(4))])
    def test_mixed_pair_has_a_float_length(self, dp, dq):
        # Only a pair of two rationals has an exact length.
        length = interval_length(PairQuantification(dp, dq))
        assert length == 2 and isinstance(length, float)

    def test_spacelike_reported(self):
        with pytest.raises(SpacelikeIntervalError):
            interval_length(PairQuantification(2, -2))
        # -1e-200 * 1e-200 underflows to -0.0; the exact product is negative.
        with pytest.raises(SpacelikeIntervalError):
            interval_length(PairQuantification(-1e-200, 1e-200))

    @pytest.mark.parametrize("dp, dq", [(math.inf, 1.0), (1.0, math.nan), (math.inf, math.inf)])
    def test_non_finite_pair_rejected(self, dp, dq):
        with pytest.raises(ValueError, match="finite"):
            interval_length(PairQuantification(dp, dq))

    @pytest.mark.parametrize(
        "dp, dq",
        [(Fraction(2, 10**300), Fraction(1, 10**300)), (Fraction(2 * 10**300), 10**300), (1e200, 1e200)],
        ids=["2e-300,1e-300", "2e300,1e300", "1e200,1e200"],
    )
    def test_length_whose_scalar_leaves_float_range(self, dp, dq):
        # The scalar dp*dq underflows or overflows a float; its root does not.
        length = interval_length(PairQuantification(dp, dq))
        assert isinstance(length, float) and is_nearest_float(length, Fraction(dp) * Fraction(dq))

    def test_homogeneous_exact(self):
        pair = PairQuantification(Fraction(4), Fraction(9))
        assert interval_length(pair.scaled(Fraction(25))) == 25 * interval_length(pair)

    def test_homogeneous_float(self):
        rng = random.Random(7)
        for _ in range(500):
            dp = rng.uniform(0.01, 40)
            dq = rng.uniform(0.01, 40)
            z = math.exp(rng.uniform(-3, 3))
            pair = PairQuantification(dp, dq)
            assert interval_length(pair.scaled(z)) == pytest.approx(
                z * interval_length(pair), rel=REL_TOL
            )


# == 5. One rounding rule =====================================================

def is_square(value: Fraction) -> bool:
    num, den = math.isqrt(value.numerator), math.isqrt(value.denominator)
    return num * num == value.numerator and den * den == value.denominator


def check_root(compute, square: Fraction, name: str, exact: bool, sign: int = 1) -> str:
    """Assert that compute() is sign times the root of square by the one rule;
    name the branch taken."""
    if exact and is_square(square):
        got = compute()
        root = Fraction(math.isqrt(square.numerator), math.isqrt(square.denominator))
        assert isinstance(got, Fraction) and got == sign * root, (name, square)
        return "exact"
    if square >= PAST_FLOATS**2:
        if name == "gamma":
            assert compute() == math.inf
        else:
            with pytest.raises(ValueError, match=f"^{re.escape(name)} is too large for a float$"):
                compute()
        return "beyond"
    got = compute()
    assert isinstance(got, float) and is_nearest_float(sign * got, square), (name, square, got)
    return "rounded"


def draw_rational(rng: random.Random) -> Fraction:
    """A positive rational from about 1e-400 to 1e400; one in four a perfect square."""
    if rng.random() < 0.25:
        root = Fraction(rng.randint(1, 999), rng.randint(1, 999)) * Fraction(10) ** rng.randint(-200, 200)
        return root * root
    return Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6)) * Fraction(10) ** rng.randint(-400, 400)


def draw_float(rng: random.Random) -> float:
    """A positive float from 1e-300 to 1e301."""
    return rng.uniform(1, 10) * 10.0 ** rng.randint(-300, 300)


def check_components(rel: FrameRelation, pair: PairQuantification, exact: bool) -> list[str]:
    """Check pair_transform(rel, pair) by the one rule, one component at a time; the branches
    taken.  A rounded component past float range refuses the pair, naming the first such one."""
    ratio = Fraction(rel.m) / Fraction(rel.n)
    parts = [(pair.dp, ratio, "dp * sqrt(m/n)"), (pair.dq, 1 / ratio, "dq * sqrt(n/m)")]
    squares = [Fraction(value) ** 2 * factor for value, factor, _ in parts]
    beyond = [name for (_, _, name), square in zip(parts, squares)
              if square >= PAST_FLOATS**2 and not (exact and is_square(square))]
    if beyond:
        with pytest.raises(ValueError, match=f"^{re.escape(beyond[0])} is too large for a float$"):
            pair_transform(rel, pair)
        return ["beyond"]
    moved = pair_transform(rel, pair)
    return [check_root(lambda: got, square, name, exact, 1 if value > 0 else -1)
            for got, square, (value, _, name) in zip(moved, squares, parts)]


def test_every_root_is_exact_or_the_nearest_float():
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(1000):
        m, n = draw_rational(rng), draw_rational(rng)
        rel, pair = FrameRelation(m, n), PairQuantification(m, n)
        for compute, square, name, exact in [
            (lambda: rel.k, m * n, "m*n", False),
            (lambda: beta_gamma(m, n).gamma, (m + n) ** 2 / (4 * m * n), "gamma", False),
            (lambda: interval_length(pair), m * n, "interval length", True),
        ]:
            seen[name, check_root(compute, square, name, exact)] += 1
        # The unit pair, whose components are the factors sqrt(m/n) and
        # sqrt(n/m), and pairs of either sign: a rational one, whose
        # components may be exact, and a float one, always rounded.
        rational = PairQuantification(*(rng.choice((1, -1)) * draw_rational(rng) for _ in range(2)))
        floats = PairQuantification(*(rng.choice((1.0, -1.0)) * draw_float(rng) for _ in range(2)))
        for tag, moving, exact in [
            ("unit pair", PairQuantification(1, 1), True),
            ("rational pair", rational, True),
            ("float pair", floats, False),
        ]:
            for branch in check_components(rel, moving, exact):
                seen[tag, branch] += 1
    for _ in range(1000):
        r_p, r_q = draw_float(rng), draw_float(rng)
        square = Fraction(r_p) * Fraction(r_q)
        seen["mass", check_root(lambda: kinematics_from_rates(RatePair(r_p, r_q)).mass,
                                square, "mass", False)] += 1
        pair = PairQuantification(r_p, r_q)
        seen["float length", check_root(lambda: interval_length(pair), square,
                                        "interval length", False)] += 1
    # Every branch of the rule was taken, so none of the checks is vacuous.
    assert set(seen) == {
        ("m*n", "rounded"), ("m*n", "beyond"),
        ("unit pair", "exact"), ("unit pair", "rounded"), ("unit pair", "beyond"),
        ("rational pair", "exact"), ("rational pair", "rounded"), ("rational pair", "beyond"),
        ("float pair", "rounded"), ("float pair", "beyond"),
        ("gamma", "rounded"), ("gamma", "beyond"),
        ("interval length", "exact"), ("interval length", "rounded"), ("interval length", "beyond"),
        ("mass", "rounded"), ("float length", "rounded"),
    }, seen
