"""End-to-end acceptance gate: one test per shipping criterion.

Each test prints a single line

    ACCEPTANCE nn PASS|FAIL -- summary

(run with `pytest -s tests/test_acceptance.py` to see the lines live) and
fails loudly if its criterion is not met, including the stated runtime
budgets where one applies.
"""

from __future__ import annotations

import functools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import infnet
from infnet import (
    FrameRelation,
    PairQuantification,
    RatePair,
    Spinor,
    SpinorField,
    TransferMatrices,
    backward_project,
    beta_consistency,
    build_free_particle_fixture,
    decompose,
    distance,
    enumerate_sequences,
    forward_project,
    interval_length,
    is_between,
    is_coordinated,
    kinematics_from_rates,
    lorentz_boost,
    minkowski_scalar,
    one_step_probability_total,
    pair_transform,
    path_sum_kernel,
    propagate,
    quantify_interval,
    rates_from_counts,
    sample_sequences,
    sequence_to_path,
    step_field,
    transform_rates,
    zigzag_interval_pairs,
    zitterbewegung_trace,
)
from infnet.cli import main

from conftest import build_ladder, lattice_lines, lattice_network

REL_TOL = 1e-12


def report(number: int, summary: str):
    """Print the criterion verdict even when the body throws."""

    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {number:02d} FAIL -- {summary}")
                raise
            print(f"ACCEPTANCE {number:02d} PASS -- {summary}")
            return result

        return wrapper

    return decorator


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 999))


@report(1, "enumerate --p 4 --q 3 lists the 35 orderings in order, under 1 s")
def test_criterion_01_enumeration(capsys):
    started = time.perf_counter()
    code = main(["enumerate", "--p", "4", "--q", "3"])
    elapsed = time.perf_counter() - started
    words = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    assert len(words) == 35
    assert words[0] == "PPPPQQQ"
    assert words[-1] == "QQQPPPP"
    assert len(set(words)) == 35
    assert elapsed < 1.0


@report(2, "coordinated fixture: distance 2 from both endpoint choices, pair (2,-2) scalar -4, exact")
def test_criterion_02_distance_fixture():
    net = build_ladder().finalize()
    # endpoint choice quantified by (2, -2)
    assert distance(net, "P", "Q", 3, 3) == Fraction(2)
    # endpoint choice quantified by (3, -1)
    assert distance(net, "P", "Q", 3, 4) == Fraction(2)
    p3 = net.chain("P").event_at(3)
    q3 = net.chain("Q").event_at(3)
    quantified = quantify_interval(net, p3, q3, "P", "Q")
    assert tuple(quantified.pair) == (Fraction(2), Fraction(-2))
    assert quantified.scalar == Fraction(-4)
    q4 = net.chain("Q").event_at(4)
    offset = quantify_interval(net, p3, q4, "P", "Q")
    assert tuple(offset.pair) == (Fraction(3), Fraction(-1))


@report(3, "decompose((4,2)) = (3,3) + (1,-1) and scalar 8 = 3**2 - 1**2, exact")
def test_criterion_03_decomposition_fixture():
    split = decompose(PairQuantification(4, 2))
    assert tuple(split.symmetric) == (Fraction(3), Fraction(3))
    assert tuple(split.antisymmetric) == (Fraction(1), Fraction(-1))
    assert split.symmetric + split.antisymmetric == PairQuantification(4, 2)
    scalar, dt, dx = minkowski_scalar(PairQuantification(4, 2))
    assert (scalar, dt, dx) == (8, 3, 1)
    assert scalar == dt**2 - dx**2


@report(4, "dp*dq == dt**2 - dx**2 bit-exactly on 10^4 random rational pairs, under 1 s")
def test_criterion_04_metric_identity():
    rng = random.Random(40)
    started = time.perf_counter()
    for _ in range(10_000):
        pair = PairQuantification(random_fraction(rng), random_fraction(rng))
        scalar, dt, dx = minkowski_scalar(pair)
        assert scalar == dt * dt - dx * dx
    assert time.perf_counter() - started < 1.0


@report(5, "pair transform preserves the scalar on 10^4 random cases, 1e-12 relative, under 1 s")
def test_criterion_05_scalar_invariance():
    rng = random.Random(50)
    started = time.perf_counter()
    for _ in range(10_000):
        pair = PairQuantification(rng.uniform(-100, 100), rng.uniform(-100, 100))
        rel = FrameRelation(math.exp(rng.uniform(-5, 5)), math.exp(rng.uniform(-5, 5)))
        moved = pair_transform(rel, pair)
        assert moved.scalar == pytest.approx(pair.scalar, rel=REL_TOL, abs=1e-15)
    assert time.perf_counter() - started < 1.0


@report(6, "pair route equals lorentz_boost on 10^4 cases |beta| <= 0.99, incl. (5,3) -> (4,0)")
def test_criterion_06_route_equivalence():
    boost = infnet.beta_gamma(4, 1)
    assert boost.beta == pytest.approx(0.6, rel=REL_TOL)
    dt, dx = lorentz_boost(boost, 5, 3)
    assert dt == pytest.approx(4.0, rel=REL_TOL)
    assert dx == pytest.approx(0.0, abs=1e-12)
    # the frame whose rescaling acts like that boost
    rel = FrameRelation(1 - 0.6, 1 + 0.6)
    moved = pair_transform(rel, PairQuantification(5 + 3, 5 - 3))
    _, dt_pair, dx_pair = minkowski_scalar(moved)
    assert float(dt_pair) == pytest.approx(4.0, rel=REL_TOL)
    assert float(dx_pair) == pytest.approx(0.0, abs=1e-12)

    rng = random.Random(60)
    for _ in range(10_000):
        beta = rng.uniform(-0.99, 0.99)
        rel = FrameRelation(1 - beta, 1 + beta)
        dt, dx = rng.uniform(-10, 10), rng.uniform(-10, 10)
        pair = PairQuantification(dt + dx, dt - dx)
        _, dt_pair, dx_pair = minkowski_scalar(pair_transform(rel, pair))
        dt_boost, dx_boost = lorentz_boost(rel.as_boost(), dt, dx)
        assert float(dt_pair) == pytest.approx(dt_boost, rel=1e-11, abs=1e-11)
        assert float(dx_pair) == pytest.approx(dx_boost, rel=1e-11, abs=1e-11)


@report(7, "interval_length is homogeneous over 10^3 random scalings, 1e-12 relative")
def test_criterion_07_homogeneity():
    rng = random.Random(70)
    for _ in range(1_000):
        pair = PairQuantification(rng.uniform(0.001, 50), rng.uniform(0.001, 50))
        z = math.exp(rng.uniform(-4, 4))
        scaled = interval_length(pair.scaled(z))
        assert scaled == pytest.approx(z * interval_length(pair), rel=REL_TOL)


@report(8, "mass**2 = E**2 - p**2 on 10^4 rate pairs; (0.5, 2) -> (1, 1.25, 0.75, 0.6)")
def test_criterion_08_kinematics_identity():
    state = kinematics_from_rates(RatePair(0.5, 2.0))
    assert state.mass == pytest.approx(1.0, rel=REL_TOL)
    assert state.energy == pytest.approx(1.25, rel=REL_TOL)
    assert state.momentum == pytest.approx(0.75, rel=REL_TOL)
    assert state.beta == pytest.approx(0.6, rel=REL_TOL)
    # the same speed straight from the spans that produced those rates
    assert beta_consistency(8, 2) == pytest.approx(state.beta, rel=REL_TOL)
    assert kinematics_from_rates(rates_from_counts(4, 8, 2)) == state

    rng = random.Random(80)
    for _ in range(10_000):
        rates = RatePair(math.exp(rng.uniform(-4, 4)), math.exp(rng.uniform(-4, 4)))
        k = kinematics_from_rates(rates)
        assert k.mass**2 == pytest.approx(k.energy**2 - k.momentum**2, rel=REL_TOL)


@report(9, "mass invariant and (E, p) boost-covariant under 10^3 frame changes, 1e-12")
def test_criterion_09_frame_covariance():
    rng = random.Random(90)
    for _ in range(1_000):
        rates = RatePair(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
        rel = FrameRelation(math.exp(rng.uniform(-3, 3)), math.exp(rng.uniform(-3, 3)))
        before = kinematics_from_rates(rates)
        after = kinematics_from_rates(transform_rates(rel, rates))
        assert after.mass == pytest.approx(before.mass, rel=REL_TOL)
        energy, momentum = lorentz_boost(rel.as_boost(), before.energy, before.momentum)
        assert after.energy == pytest.approx(energy, rel=1e-11)
        assert after.momentum == pytest.approx(momentum, rel=1e-11, abs=1e-12)


@report(10, "continuation probability 1 for 10^3 spinors at three angles; norm 1 over 100 steps")
def test_criterion_10_propagator_normalization():
    rng = random.Random(100)
    for theta in (math.pi / 6, math.pi / 4, math.pi / 3):
        for _ in range(1_000):
            parts = [rng.gauss(0, 1) for _ in range(4)]
            scale = math.sqrt(sum(p * p for p in parts))
            spinor = Spinor(
                complex(parts[0], parts[1]) / scale, complex(parts[2], parts[3]) / scale
            )
            assert one_step_probability_total(spinor, theta) == pytest.approx(
                1.0, rel=REL_TOL
            )
    steps = 100
    field = SpinorField.delta("P")
    tm = TransferMatrices()
    for n in range(1, steps + 1):
        field = step_field(field, tm)
        assert abs(field.norm() - 1.0) <= 1e-12 * n


@report(11, "propagate equals the 2**N path sum at every site and helicity, N <= 12, 3 angles, under 30 s")
def test_criterion_11_oracle_equivalence():
    started = time.perf_counter()
    for theta in (math.pi / 4, math.pi / 6, math.pi / 3):
        tm = TransferMatrices(theta)
        for steps in range(13):
            field = propagate(SpinorField.delta("P"), steps, tm)
            assert all((2 * x - steps) % 2 == 0 for x, _ in field.sites())
            for x2 in range(-steps, steps + 1, 2):
                x = Fraction(x2, 2)
                spinor = field.spinor_at(x)
                assert abs(
                    spinor.phi_p - path_sum_kernel("P", 0, "P", x, steps, theta)
                ) <= 1e-12
                assert abs(
                    spinor.phi_q - path_sum_kernel("P", 0, "Q", x, steps, theta)
                ) <= 1e-12
    assert time.perf_counter() - started < 30.0


@report(12, "every path runs at |dx/dt| = 1 and field support stays inside |x| <= N/2, exact")
def test_criterion_12_light_cone():
    for word in enumerate_sequences(4, 3):
        path = sequence_to_path(word)
        for dt, dx in path.steps:
            assert abs(dx) == dt == Fraction(1, 2)
        x0, t0 = path.points()[0]
        for x, t in path.points()[1:]:
            assert abs(x - x0) <= t - t0
    steps = 40
    field = propagate(SpinorField.delta("P"), steps, TransferMatrices())
    assert all(abs(2 * x) <= steps for x, _ in field.sites())


@report(13, "free-particle fixture validates; every consecutive interval has dp = 0 or dq = 0, exact")
def test_criterion_13_free_particle_fixture():
    net = build_free_particle_fixture(4, 3, "PQPPQPQ")
    assert net.validate() == []
    particle = net.chain("Pi").events
    assert len(particle) == 7
    for a, b in zip(particle, particle[1:]):
        quantified = quantify_interval(net, a, b, "P", "Q", require_between=False)
        dp, dq = quantified.pair
        assert dp == 0 or dq == 0
        assert quantified.scalar == 0
    assert all(0 in pair for pair in zigzag_interval_pairs(net))


@report(14, "10^5 sampled 1000-step words at prob_p = 0.3 give beta within 4 sigma of 0.4, under 10 s")
def test_criterion_14_monte_carlo():
    prob_p, steps, count = 0.3, 1000, 100_000
    started = time.perf_counter()
    words = sample_sequences(steps, prob_p, seed=1414, count=count)
    total = steps * count
    total_p = sum(word.count("P") for word in words)
    elapsed = time.perf_counter() - started
    dp, dq = total - total_p, total_p
    beta_hat = beta_consistency(dp, dq)
    expected = 1 - 2 * prob_p
    sigma = 2 * math.sqrt(prob_p * (1 - prob_p) / total)
    assert abs(beta_hat - expected) <= 4 * sigma
    assert elapsed < 10.0


@report(15, "the trembling of <x> from a point source peaks at 2*theta per step within 2*pi/N, N = 2000, 3 angles, under 20 s")
def test_criterion_15_zitterbewegung_frequency():
    # The lattice mass shell cos(omega) = cos(theta) * cos(k) gives omega(0) =
    # theta, so <x> trembles at twice that.
    steps = 2000
    started = time.perf_counter()
    for theta in (0.05, 0.3, 0.75):
        rows = zitterbewegung_trace(SpinorField.delta("P"), steps, TransferMatrices(theta))
        t = np.array([row[0] for row in rows], float)
        mean_x = np.array([row[1] for row in rows])
        detrended = mean_x - np.polyval(np.polyfit(t, mean_x, 1), t)
        spectrum = np.abs(np.fft.rfft(detrended * np.hanning(len(t))))
        peak = 5 + int(np.argmax(spectrum[5:]))  # past the leakage of the removed trend
        omega = 2 * math.pi * peak / len(t)
        assert abs(omega - 2 * theta) <= 2 * math.pi / steps
    assert time.perf_counter() - started < 20.0


@report(16, "the lattice mass shell at k != 0: phi(k, t+1) + phi(k, t-1) = 2 cos(theta) cos(k/2) phi(k, t), 1e-10, N = 1000, under 10 s")
def test_criterion_16_mass_shell_off_zero_momentum():
    # One step acts on the spatial transform as U(k) = diag(e^{ik/2},
    # e^{-ik/2}) [[cos t, i sin t], [i sin t, cos t]], whose determinant is 1,
    # so by Cayley-Hamilton every helicity column obeys the three-term
    # recurrence with trace 2 cos(theta) cos(k/2): cos(omega) = cos(theta)
    # cos(k/2), the mass shell per doubled site.
    steps = 1000
    ks = np.array([0.1, 0.7, 1.9, 3.0])
    started = time.perf_counter()
    for theta in (0.05, 0.3, math.pi / 4, 1.2):
        tm = TransferMatrices(theta)
        trace = 2 * math.cos(theta) * np.cos(ks / 2)
        for helicity in ("P", "Q"):
            field = SpinorField.delta(helicity)
            spectra = []
            for _ in range(steps + 1):
                x = np.arange(len(field.phi_p)) + field.x2_lo / 2
                phase = np.exp(-1j * np.outer(ks, x))
                spectra.append(np.stack([phase @ field.phi_p, phase @ field.phi_q], axis=1))
                field = step_field(field, tm)
            spectra = np.array(spectra)  # (t, k, helicity column)
            residual = spectra[2:] + spectra[:-2] - trace[:, None] * spectra[1:-1]
            assert np.max(np.abs(residual)) <= 1e-10
    assert time.perf_counter() - started < 10.0


def bessel_j(n: int, z: np.ndarray) -> np.ndarray:
    """J_n(z) = (1/pi) * integral over [0, pi] of cos(n tau - z sin tau), by the 256-node midpoint rule.

    The integrand is periodic and smooth, so the rule converges
    exponentially: it matches J0 and J1 to about 1e-16 for z up to 5.
    """
    tau = (np.arange(256) + 0.5) * math.pi / 256
    return np.cos(n * tau - np.multiply.outer(z, np.sin(tau))).mean(axis=-1)


@report(17, "the propagator tends to the 1+1 Dirac kernel as eps -> 0 at fixed mass m = theta/eps: errors of order 2 and 1 from N = 1000 to 4000, both source helicities, under 5 s")
def test_criterion_17_continuum_dirac_kernel():
    # T = 1, eps = T/N, theta = m eps.  At X = x2 eps inside |X| < 0.9 and
    # s = sqrt(1 - X^2), a P source's amplitudes times N/2 tend to the
    # retarded kernel: same helicity -(m/2) sqrt((1-X)/(1+X)) J1(m s),
    # cross helicity i (m/2) J0(m s).  A Q source mirrors X -> -X.

    # The quadrature against tabulated J0(1), J1(1), J0(5), J1(5).
    tabulated = [0.7651976865579666, 0.4400505857449335, -0.1775967713143383, -0.3275791375914652]
    quadrature = [bessel_j(n, np.array(z)) for z in (1.0, 5.0) for n in (0, 1)]
    assert np.allclose(quadrature, tabulated, rtol=0, atol=1e-14)
    mass = 5.0
    bounds = {1000: (3e-4, 2e-2), 4000: (2e-5, 5e-3)}
    started = time.perf_counter()
    for helicity in ("P", "Q"):
        errors = {}
        for steps in bounds:
            eps = 1.0 / steps
            field = propagate(SpinorField.delta(helicity), steps, TransferMatrices(mass * eps))
            x = (field.x2_lo + 2 * np.arange(len(field.phi_p))) * eps
            inside = np.abs(x) < 0.9
            x = x[inside] if helicity == "P" else -x[inside]
            s = np.sqrt(1 - x**2)
            same_kernel = -(mass / 2) * np.sqrt((1 - x) / (1 + x)) * bessel_j(1, mass * s)
            cross_kernel = 1j * (mass / 2) * bessel_j(0, mass * s)
            same, cross = (field.phi_p, field.phi_q) if helicity == "P" else (field.phi_q, field.phi_p)
            errors[steps] = (
                np.max(np.abs(same[inside] * steps / 2 - same_kernel)),
                np.max(np.abs(cross[inside] * steps / 2 - cross_kernel)),
            )
            assert errors[steps][0] <= bounds[steps][0], (helicity, steps, errors[steps])
            assert errors[steps][1] <= bounds[steps][1], (helicity, steps, errors[steps])
        same_order, cross_order = (math.log(a / b, 4) for a, b in zip(errors[1000], errors[4000]))
        assert same_order >= 1.8 and cross_order >= 0.9, (helicity, same_order, cross_order)
    assert time.perf_counter() - started < 5.0


@report(18, "a boost read off a network: on lattice networks at k = 2 and 3, sampled endpoint pairs quantified by the moving pair equal pair_transform of the rest pair exactly on the sublattice, with equal scalars and (dt, dx) within 1e-12 of lorentz_boost, and within 1 off it; under 3 s")
def test_criterion_18_boost_from_a_network():
    # conftest.lattice_network: the rest pair P, Q ticks k along both light
    # cones u = t + x and v = t - x; the moving pair P', Q' ticks k^2 along
    # u and 1 along v, so it runs at beta = (k^2 - 1)/(k^2 + 1) and stands
    # to the rest pair as FrameRelation(1, k^2).  Endpoints lie on the rest
    # pair's lattice.  On the sublattice u = -A (mod k^2) every projection
    # lands on a tick of both pairs, so the moving quantification is exact;
    # off it, the moving labels round up to the next tick.
    rng = random.Random(180)
    started = time.perf_counter()
    for k, D, A, R in ((2, 7, 9, 34), (3, 7, 10, 29)):
        J = R + A + 1  # every endpoint projects onto every chain
        net, points, ends = lattice_network(k, D, A, J, R)
        assert net.validate() == []
        assert is_coordinated(net, "P", "Q") and is_coordinated(net, "P'", "Q'")
        # Every projection is the lattice's, in closed form: the members at
        # or above (u, v) start at ceil, those at or below end at floor.
        for name, (a, alpha, b, beta) in lattice_lines(k, D, A).items():
            for event, (u, v) in enumerate(points):
                after = max(-((alpha - u) // a), -((beta - v) // b))
                before = min((u - alpha) // a, (v - beta) // b)
                assert forward_project(net, event, name) == (max(after, -J) + J + 1 if after <= J else None)
                assert backward_project(net, event, name) == (min(before, J) + J + 1 if before >= -J else None)
        assert all(is_between(net, e, "P", "Q") and is_between(net, e, "P'", "Q'") for e in ends)
        rel = FrameRelation(1, k * k)
        boost = rel.as_boost()
        on = {e for e in ends if (points[e][0] + A) % (k * k) == 0}
        pairs = [(a, b) for a in ends for b in ends if a != b]
        exact = [(a, b) for a, b in pairs if a in on and b in on]
        rounded = [(a, b) for a, b in pairs if not (a in on and b in on)]
        assert len(on) >= 20, len(on)
        for a, b in rng.sample(exact, min(len(exact), 600)):
            rest = quantify_interval(net, a, b, "P", "Q").pair
            moving = quantify_interval(net, a, b, "P'", "Q'").pair
            predicted = pair_transform(rel, rest)
            assert moving == predicted and isinstance(predicted.dp, Fraction), (k, a, b)
            scalar, dt, dx = minkowski_scalar(rest)
            moving_scalar, moving_dt, moving_dx = minkowski_scalar(moving)
            assert moving_scalar == scalar
            boosted_dt, boosted_dx = lorentz_boost(boost, dt, dx)
            assert abs(boosted_dt - moving_dt) <= 1e-12 and abs(boosted_dx - moving_dx) <= 1e-12
        for a, b in rng.sample(rounded, 600):
            moving = quantify_interval(net, a, b, "P'", "Q'").pair
            predicted = pair_transform(rel, quantify_interval(net, a, b, "P", "Q").pair)
            assert abs(moving.dp - predicted.dp) <= 1 and abs(moving.dq - predicted.dq) <= 1, (k, a, b)
    assert time.perf_counter() - started < 3.0
