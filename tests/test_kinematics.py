"""Rates of influence and the mass/energy/momentum analogues.

Covered claims:
    - rates come out as count/span, rejecting empty spans and counts that
      are not positive; rate pairs and beta_consistency reject nan,
      infinite and negative inputs
    - mass/energy/momentum satisfy m**2 = E**2 - p**2 identically
    - the worked rate pair (0.5, 2) gives (m, E, p, beta) = (1, 1.25, 0.75, 0.6),
      the mass exactly 1.0
    - frame changes leave the mass alone and boost (E, p) like (dt, dx),
      also for frames whose m underflows a float but whose root does not;
      every new rate is a float rounded once from the exact rational, so it
      is found even where its factor sqrt(n/m) or sqrt(m/n) is beyond float
      range, and a rate beyond that range is a ValueError; rates move bit
      for bit as a pair does in the inverse frame
    - beta from spans equals beta from rates, for any shared count
    - sampled words reproduce the expected beta within binomial error
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from infnet import (
    FrameRelation,
    PairQuantification,
    RatePair,
    beta_consistency,
    kinematics_from_rates,
    lorentz_boost,
    pair_transform,
    rates_from_counts,
    sample_sequences,
    transform_rates,
)

REL_TOL = 1e-12


class TestRatesFromCounts:
    def test_worked_example(self):
        rates = rates_from_counts(4, 8, 2)
        assert (rates.r_p, rates.r_q) == (0.5, 2.0)

    def test_equal_spans_unit_rates(self):
        rates = rates_from_counts(6, 6, 6)
        assert (rates.r_p, rates.r_q) == (1.0, 1.0)

    @pytest.mark.parametrize(
        "count, dp, dq",
        [
            (4, 0, 2),
            (math.nan, 1, 1),
            (4, math.nan, 1),
            (4, 1, math.nan),
            (math.inf, 1, 1),
            (4, math.inf, 1),
            (4, 1, math.inf),
        ],
    )
    def test_zero_span_rejected(self, count, dp, dq):
        with pytest.raises(ValueError):
            rates_from_counts(count, dp, dq)

    def test_both_rates_zero_rejected(self):
        with pytest.raises(ValueError):
            RatePair(0.0, 0.0)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_not_positive_rejected(self, count):
        with pytest.raises(ValueError, match="detection count must be positive"):
            rates_from_counts(count, 1, 1)

    @pytest.mark.parametrize("r_p, r_q", [(math.inf, 1.0), (1.0, math.nan), (math.nan, math.nan)])
    def test_non_finite_rates_rejected(self, r_p, r_q):
        with pytest.raises(ValueError, match="finite"):
            RatePair(r_p, r_q)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            RatePair(-1.0, 1.0)


class TestKinematicsFromRates:
    def test_worked_example(self):
        state = kinematics_from_rates(RatePair(0.5, 2.0))
        assert state.mass == 1.0  # sqrt(0.5) * sqrt(2.0) would be 1.0000000000000002
        assert state.energy == pytest.approx(1.25, rel=REL_TOL)
        assert state.momentum == pytest.approx(0.75, rel=REL_TOL)
        assert state.beta == pytest.approx(0.6, rel=REL_TOL)

    def test_rest_frame(self):
        state = kinematics_from_rates(RatePair(3.0, 3.0))
        assert state.mass == pytest.approx(3.0, rel=REL_TOL)
        assert (state.energy, state.momentum, state.beta) == (3.0, 0.0, 0.0)

    def test_lightlike(self):
        state = kinematics_from_rates(RatePair(0.0, 2.0))
        assert state.mass == 0.0
        assert state.beta == 1.0

    def test_mass_energy_momentum_identity(self):
        # rate ratios up to e**8; beyond that the E**2 - p**2 subtraction
        # itself cancels past 1e-12 relative
        rng = random.Random(31)
        for _ in range(2000):
            rates = RatePair(math.exp(rng.uniform(-4, 4)), math.exp(rng.uniform(-4, 4)))
            state = kinematics_from_rates(rates)
            assert state.mass**2 == pytest.approx(
                state.energy**2 - state.momentum**2, rel=REL_TOL
            )
            assert abs(state.beta) <= 1
            assert state.beta == pytest.approx(state.momentum / state.energy, rel=REL_TOL)

    def test_rate_product_identity_is_algebraic(self):
        rng = random.Random(32)
        for _ in range(500):
            r_p, r_q = rng.uniform(0.01, 50), rng.uniform(0.01, 50)
            mean_sq = ((r_p + r_q) / 2) ** 2 - ((r_p - r_q) / 2) ** 2
            assert mean_sq == pytest.approx(r_p * r_q, rel=REL_TOL)


class TestTransformRates:
    def test_worked_example(self):
        moved = transform_rates(FrameRelation(4, 1), RatePair(0.5, 2.0))
        assert moved.r_p == pytest.approx(0.25, rel=REL_TOL)
        assert moved.r_q == pytest.approx(4.0, rel=REL_TOL)
        state = kinematics_from_rates(moved)
        assert state.energy == pytest.approx(2.125, rel=REL_TOL)
        assert state.momentum == pytest.approx(1.875, rel=REL_TOL)
        assert state.energy**2 - state.momentum**2 == pytest.approx(1.0, rel=REL_TOL)

    def test_identity_frame(self):
        rates = RatePair(0.7, 1.3)
        assert transform_rates(FrameRelation(5, 5), rates) == rates

    @pytest.mark.parametrize(
        "m, root",
        [(Fraction(1, 10**400), 1e-200), (Fraction(2, 10**400), 2**0.5 * 1e-200)],
        ids=["square", "not-a-square"],
    )
    def test_frames_beyond_float_range_take_the_exact_root(self, m, root):
        # m itself underflows a float; its root sqrt(m/n) does not.
        rates = RatePair(1.0, 1.0)
        moved = transform_rates(FrameRelation(m, 1), rates)
        assert moved.r_p == pytest.approx(1 / root, rel=REL_TOL)
        assert moved.r_q == pytest.approx(root, rel=REL_TOL)
        assert kinematics_from_rates(moved).mass == pytest.approx(
            kinematics_from_rates(rates).mass, rel=REL_TOL
        )

    @pytest.mark.parametrize(
        "m, rates, moved",
        [
            (Fraction(1, 10**800), RatePair(1e-300, 1.0), RatePair(1e100, 0.0)),
            (10**800, RatePair(1.0, 1e-300), RatePair(0.0, 1e100)),
        ],
        ids=["m-underflows", "m-overflows"],
    )
    def test_rates_in_float_range_survive_factors_beyond_it(self, m, rates, moved):
        # sqrt(n/m) is 1e400 or 1e-400, which no float holds; the rates
        # 1e-300 * 1e400 and 1e-300 / 1e-400 do fit, and the other one
        # underflows to 0.
        assert transform_rates(FrameRelation(m, 1), rates) == moved

    def test_rates_move_as_a_pair_in_the_inverse_frame(self):
        # Rates pick up the factors a pair does in the frame (n, m), rounded
        # the same way, so the two agree bit for bit.
        rng = random.Random(35)
        for _ in range(1000):
            r_p, r_q = (rng.uniform(1, 10) * 10.0 ** rng.randint(-100, 100) for _ in range(2))
            rel = FrameRelation(math.exp(rng.uniform(-40, 40)), math.exp(rng.uniform(-40, 40)))
            moved = transform_rates(rel, RatePair(r_p, r_q))
            pair = pair_transform(FrameRelation(rel.n, rel.m), PairQuantification(r_p, r_q))
            assert (moved.r_p.hex(), moved.r_q.hex()) == (pair.dp.hex(), pair.dq.hex())

    def test_every_rate_is_a_float(self):
        moved = transform_rates(FrameRelation(2, 1), RatePair(0, 5))
        assert moved == RatePair(0.0, 7.0710678118654755) and isinstance(moved.r_p, float)

    def test_rate_beyond_float_range_is_refused(self):
        with pytest.raises(ValueError, match=r"^r_q \* sqrt\(m/n\) is too large for a float$"):
            transform_rates(FrameRelation(10**800, 1), RatePair(1.0, 1.0))

    def test_mass_and_rate_product_invariant(self):
        rng = random.Random(33)
        for _ in range(1000):
            rates = RatePair(math.exp(rng.uniform(-4, 4)), math.exp(rng.uniform(-4, 4)))
            rel = FrameRelation(math.exp(rng.uniform(-4, 4)), math.exp(rng.uniform(-4, 4)))
            moved = transform_rates(rel, rates)
            assert moved.r_p * moved.r_q == pytest.approx(
                rates.r_p * rates.r_q, rel=REL_TOL
            )
            before = kinematics_from_rates(rates).mass
            after = kinematics_from_rates(moved).mass
            assert after == pytest.approx(before, rel=REL_TOL)

    def test_energy_momentum_boost_covariant(self):
        rng = random.Random(34)
        for _ in range(500):
            rates = RatePair(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
            rel = FrameRelation(math.exp(rng.uniform(-2, 2)), math.exp(rng.uniform(-2, 2)))
            state = kinematics_from_rates(rates)
            moved = kinematics_from_rates(transform_rates(rel, rates))
            energy, momentum = lorentz_boost(rel.as_boost(), state.energy, state.momentum)
            assert moved.energy == pytest.approx(energy, rel=1e-11)
            assert moved.momentum == pytest.approx(momentum, rel=1e-11, abs=1e-12)


class TestBetaConsistency:
    def test_worked_example(self):
        assert beta_consistency(8, 2) == pytest.approx(0.6, rel=REL_TOL)

    def test_equal_spans(self):
        assert beta_consistency(5, 5) == 0.0

    def test_lightlike_span(self):
        assert beta_consistency(8, 0) == 1.0

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            beta_consistency(0, 0)

    @pytest.mark.parametrize("dp, dq", [(math.nan, 1), (math.inf, 1), (1, -math.inf)])
    def test_non_finite_spans_rejected(self, dp, dq):
        with pytest.raises(ValueError, match="finite"):
            beta_consistency(dp, dq)

    def test_negative_span_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            beta_consistency(-1, 2)

    def test_equals_momentum_over_energy(self):
        rng = random.Random(35)
        for _ in range(500):
            dp, dq = rng.uniform(0.1, 30), rng.uniform(0.1, 30)
            count = rng.uniform(1, 100)
            state = kinematics_from_rates(rates_from_counts(count, dp, dq))
            assert beta_consistency(dp, dq) == pytest.approx(state.beta, rel=1e-11)


def test_monte_carlo_beta_converges():
    prob_p = 0.3
    words = sample_sequences(200, prob_p, seed=202408, count=2000)
    total = 200 * 2000
    total_p = sum(word.count("P") for word in words)
    dp, dq = total - total_p, total_p
    beta_hat = beta_consistency(dp, dq)
    expected = 1 - 2 * prob_p
    sigma_beta = 2 * math.sqrt(prob_p * (1 - prob_p) / total)
    assert abs(beta_hat - expected) <= 4 * sigma_beta
