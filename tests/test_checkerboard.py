"""Spinor propagation, path amplitudes, and the brute-force oracle.

Covered claims:
    - the default transfer matrices carry 1/sqrt(2) and i/sqrt(2) entries
    - their sum is unitary for every angle, so stepping preserves the norm
    - path amplitudes factor as cos(theta)**stays * (i sin(theta))**reversals
    - N-fold stepping equals the 2**N-word path sum at every site and
      helicity (the module's core dual route)
    - the run-counting closed form in conftest agrees with the path sum at
      N <= 12 and with stepping at N = 256 and, exactly, at N = 1000
    - stepping matches conftest's Fourier-symbol field on every site at
      N = 1000 and 3000, theta = 0.05, 0.3 and 1.2, both helicities
    - the one-step continuation probability of a normalized spinor is 1
    - field support stays inside the light cone; <x> traces come out sane
    - norms and <x> add left to right, so every Python prints the same digits,
      equal to plain loops over (x, p, q) rows, the empty field included
    - a bad helicity, an off-lattice position, unequal component arrays,
      negative kernel steps and an unnormalized trace source are refused
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import density_rows, fourier_kernel, mean_position_of, norm_of, run_count_kernel
from infnet import (
    Spinor,
    SpinorField,
    TransferMatrices,
    one_step_probability_total,
    path_amplitude,
    path_sum_kernel,
    propagate,
    step_field,
    zitterbewegung_trace,
)
from infnet.checkerboard import evolve, norm_and_mean

ROOT_HALF = math.sqrt(0.5)
THETAS = (math.pi / 6, math.pi / 4, math.pi / 3)


def random_spinor(rng: random.Random) -> Spinor:
    parts = [rng.gauss(0, 1) for _ in range(4)]
    norm = math.sqrt(sum(p * p for p in parts))
    return Spinor(
        phi_p=complex(parts[0], parts[1]) / norm,
        phi_q=complex(parts[2], parts[3]) / norm,
    )


BASIS = (Spinor(phi_p=1), Spinor(phi_q=1))


def transfer_rows(tm: TransferMatrices) -> tuple[tuple[complex, ...], ...]:
    """The rows of P(theta) and Q(theta) that may be nonzero, by basis spinor."""
    return tuple(tuple(row(b) for b in BASIS) for row in (tm.continue_p, tm.continue_q))


def count_reversals(word: str, initial: str) -> int:
    previous = initial
    reversals = 0
    for symbol in word:
        if symbol != previous:
            reversals += 1
        previous = symbol
    return reversals


# == 1. Transfer matrices =====================================================


class TestTransferMatrices:
    def test_default_entries(self):
        row_p, row_q = transfer_rows(TransferMatrices())
        assert row_p == (ROOT_HALF, 1j * ROOT_HALF)
        assert row_q == (1j * ROOT_HALF, ROOT_HALF)

    @pytest.mark.parametrize("theta", THETAS + (0.1, 1.2))
    def test_sum_is_unitary(self, theta):
        # P(theta) + Q(theta) stacks the two nonzero rows (one channel each)
        total = transfer_rows(TransferMatrices(theta))
        for i in range(2):
            for j in range(2):
                gram = sum(total[k][i].conjugate() * total[k][j] for k in range(2))
                assert gram == pytest.approx(1.0 if i == j else 0.0, abs=1e-15)

    @pytest.mark.parametrize("theta", THETAS)
    def test_one_arrival_channel_per_matrix(self, theta):
        tm = TransferMatrices(theta)
        for b in BASIS:
            stepped = step_field(SpinorField(phi_p=[b.phi_p], phi_q=[b.phi_q]), tm)
            # sites x = -1/2 and x = 1/2: P arrives only on the left, Q only on the right
            assert stepped.x2_lo == -1
            assert stepped.phi_p.tolist() == [tm.continue_p(b), 0]
            assert stepped.phi_q.tolist() == [0, tm.continue_q(b)]

    def test_angle_range_enforced(self):
        with pytest.raises(ValueError):
            TransferMatrices(-0.1)
        with pytest.raises(ValueError):
            TransferMatrices(math.pi)


# == 2. Path amplitudes =======================================================


class TestPathAmplitude:
    def test_two_stays(self):
        assert path_amplitude("PP", "P") == pytest.approx(0.5, rel=1e-12)

    def test_one_reversal(self):
        assert path_amplitude("PQ", "P") == pytest.approx(0.5j, rel=1e-12)

    def test_empty_word(self):
        assert path_amplitude("", "P") == 1

    def test_initial_comparison_counts(self):
        # first symbol Q after initial helicity P is already a reversal
        assert path_amplitude("Q", "P") == pytest.approx(1j * ROOT_HALF, rel=1e-12)
        assert path_amplitude("Q", "Q") == pytest.approx(ROOT_HALF, rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_reversal_counting_formula(self, theta):
        rng = random.Random(404)
        for _ in range(200):
            word = "".join(rng.choice("PQ") for _ in range(rng.randint(0, 12)))
            initial = rng.choice("PQ")
            reversals = count_reversals(word, initial)
            stays = len(word) - reversals
            expected = (math.cos(theta) ** stays) * (1j * math.sin(theta)) ** reversals
            assert cmath.isclose(
                path_amplitude(word, initial, theta), expected, rel_tol=1e-12, abs_tol=1e-15
            )

    def test_bad_word_rejected(self):
        with pytest.raises(ValueError):
            path_amplitude("PX", "P")


# == 3. Stepping ==============================================================


class TestStepField:
    def test_delta_splits_left_right(self):
        stepped = step_field(SpinorField.delta("P"), TransferMatrices())
        assert stepped.x2_lo == -1  # sites x = -1/2 (left) and x = 1/2 (right)
        (left_p, right_p), (left_q, right_q) = stepped.phi_p.tolist(), stepped.phi_q.tolist()
        assert left_p == pytest.approx(ROOT_HALF, rel=1e-12)
        assert left_q == 0
        assert right_q == pytest.approx(1j * ROOT_HALF, rel=1e-12)
        assert right_p == 0
        assert stepped.norm() == pytest.approx(1.0, rel=1e-12)

    def test_zero_field_stays_zero(self):
        stepped = step_field(SpinorField(t=0), TransferMatrices())
        assert len(stepped.phi_p) == len(stepped.phi_q) == 0
        assert stepped.t == 1

    def test_theta_zero_is_pure_transport(self):
        field = propagate(SpinorField.delta("P"), 5, TransferMatrices(0.0))
        probs_p, probs_q = field.probabilities()
        sites = [k for k, (p, q) in enumerate(zip(probs_p, probs_q)) if p + q > 0]
        assert len(sites) == 1
        k = sites[0]
        assert Fraction(field.x2_lo + 2 * k, 2) == Fraction(-5, 2)
        assert field.phi_p[k] == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("theta", THETAS)
    def test_unitary_on_random_fields(self, theta):
        rng = random.Random(77)
        phi_p, phi_q = [], []
        for x2 in range(-6, 7, 2):
            phi_p.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            phi_q.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)))
        field = SpinorField(t=0, x2_lo=-6, phi_p=phi_p, phi_q=phi_q)
        before = field.norm()
        after = step_field(field, TransferMatrices(theta)).norm()
        assert after == pytest.approx(before, rel=1e-12)

    def test_support_stays_in_light_cone(self):
        steps = 30
        field = propagate(SpinorField.delta("P"), steps, TransferMatrices())
        assert -steps <= field.x2_lo
        assert field.x2_lo + 2 * (len(field.phi_p) - 1) <= steps


# == 4. Oracle equivalence ====================================================


class TestOracleEquivalence:
    def test_one_step_kernels(self):
        assert path_sum_kernel("P", 0, "P", Fraction(-1, 2), 1) == pytest.approx(
            ROOT_HALF, rel=1e-12
        )
        assert path_sum_kernel("P", 0, "Q", Fraction(1, 2), 1) == pytest.approx(
            1j * ROOT_HALF, rel=1e-12
        )

    def test_outside_light_cone_is_zero(self):
        assert path_sum_kernel("P", 0, "P", 5, 1) == 0

    def test_two_step_return(self):
        assert path_sum_kernel("P", 0, "P", 0, 2) == pytest.approx(-0.5, rel=1e-12)
        assert path_sum_kernel("P", 0, "Q", 0, 2) == pytest.approx(0.5j, rel=1e-12)

    def test_zero_steps(self):
        assert path_sum_kernel("P", 0, "P", 0, 0) == 1
        assert path_sum_kernel("P", 0, "Q", 0, 0) == 0
        assert path_sum_kernel("P", 0, "P", 1, 0) == 0

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            path_sum_kernel("P", 0, "P", 0, 30)

    @pytest.mark.parametrize(
        "call, match",
        [
            (lambda: path_sum_kernel("X", 0, "P", 0, 0), "helicity must be 'P' or 'Q'"),
            (lambda: SpinorField.delta("P", Fraction(1, 3)), "not on the half-step lattice"),
            (lambda: SpinorField(t=0, x2_lo=0, phi_p=[1], phi_q=[1, 0]), "equal length"),
            (lambda: path_sum_kernel("P", 0, "P", 0, -1), "steps must be non-negative"),
            (lambda: zitterbewegung_trace(SpinorField(t=0, x2_lo=0, phi_p=[2], phi_q=[0]), 1,
                                          TransferMatrices()), "must be normalized"),
        ],
        ids=["helicity", "off-lattice", "unequal-arrays", "negative-steps", "unnormalized-trace"],
    )
    def test_bad_arguments_rejected(self, call, match):
        with pytest.raises(ValueError, match=match):
            call()

    @pytest.mark.parametrize("theta", THETAS)
    @pytest.mark.parametrize("initial", ("P", "Q"))
    def test_propagate_matches_path_sum(self, theta, initial):
        steps = 7
        field = propagate(SpinorField.delta(initial), steps, TransferMatrices(theta))
        # The field stores x2 = -N, -N + 2, ..., N; every other site is zero.
        assert (field.x2_lo, len(field.phi_p)) == (-steps, steps + 1)
        x2s = range(-steps, steps + 1)
        for final, amplitudes in (("P", field.phi_p), ("Q", field.phi_q)):
            kernel = np.array(
                [path_sum_kernel(initial, 0, final, Fraction(x2, 2), steps, theta) for x2 in x2s]
            )
            np.testing.assert_allclose(amplitudes, kernel[::2], rtol=0, atol=1e-12)
            np.testing.assert_allclose(kernel[1::2], 0, rtol=0, atol=1e-12)


class TestRunCountOracle:
    """The closed form in conftest against the brute-force path sum and stepping."""

    @pytest.mark.parametrize("theta", THETAS)
    def test_matches_path_sum(self, theta):
        tm = TransferMatrices(theta)
        for steps in (0, 1, 2, 3, 4, 7, 12):
            # every site of the right parity, one beyond each edge of the cone
            for dx2 in range(-steps - 2, steps + 3, 2):
                for initial in "PQ":
                    for final in "PQ":
                        re, im = run_count_kernel(initial, final, dx2, steps, tm.cos, tm.sin)
                        brute = path_sum_kernel(initial, 0, final, Fraction(dx2, 2), steps, theta)
                        # both float sums cancel terms of total size <= 2**(N/2)
                        assert abs(complex(re, im) - brute) <= 1e-14

    # (cos, sin) = (stay, flip) / scale exactly: pi/4 via 2**(-N/2), the
    # rest are Pythagorean angles, so each kernel is an exact rational.
    @pytest.mark.parametrize(
        "stay,flip,hypot,initial", [(1, 1, None, "P"), (3, 4, 5, "Q"), (12, 5, 13, "P")]
    )
    def test_matches_propagate_at_256_steps(self, stay, flip, hypot, initial):
        steps = 256
        theta = math.pi / 4 if hypot is None else math.atan2(flip, stay)
        scale = 2 ** (steps // 2) if hypot is None else hypot**steps
        field = propagate(SpinorField.delta(initial), steps, TransferMatrices(theta))
        assert len(field.phi_p) == steps + 1
        x2s = range(field.x2_lo, field.x2_lo + 2 * len(field.phi_p), 2)
        for final, amplitudes in (("P", field.phi_p), ("Q", field.phi_q)):
            counts = (run_count_kernel(initial, final, x2, steps, stay, flip) for x2 in x2s)
            exact = [complex(re / scale, im / scale) for re, im in counts]
            np.testing.assert_allclose(amplitudes, exact, rtol=0, atol=1e-12)

    def test_exact_at_1000_steps(self):
        steps = 1000
        scale = 2 ** (steps // 2)
        for initial in "PQ":
            field = propagate(SpinorField.delta(initial), steps, TransferMatrices())
            assert field.x2_lo == -steps  # so site k sits at x2 = -N + 2k
            x2s = range(-steps, steps + 1, 100)
            for final, amplitudes in (("P", field.phi_p), ("Q", field.phi_q)):
                counts = (run_count_kernel(initial, final, x2, steps, 1, 1) for x2 in x2s)
                # correctly rounded 2**(-N/2) * (re + i im)
                exact = [complex(re / scale, im / scale) for re, im in counts]
                np.testing.assert_allclose(amplitudes[::50], exact, rtol=0, atol=1e-12)


class TestFourierOracle:
    """Stepping against conftest's per-wave-number step at any angle and N."""

    @pytest.mark.parametrize("steps", (1000, 3000))
    @pytest.mark.parametrize("theta", (0.05, 0.3, 1.2))
    @pytest.mark.parametrize("initial", "PQ")
    def test_matches_propagate_on_every_site(self, steps, theta, initial):
        field = propagate(SpinorField.delta(initial), steps, TransferMatrices(theta))
        phi_p, phi_q = fourier_kernel(initial, theta, steps)
        assert field.x2_lo == -steps
        np.testing.assert_allclose(field.phi_p, phi_p, rtol=0, atol=1e-12)
        np.testing.assert_allclose(field.phi_q, phi_q, rtol=0, atol=1e-12)


# == 5. Probability and traces ================================================


class TestOneStepProbability:
    def test_pure_p_spinor(self):
        assert one_step_probability_total(Spinor(phi_p=1)) == pytest.approx(1.0, rel=1e-12)

    def test_pure_q_spinor(self):
        assert one_step_probability_total(Spinor(phi_q=1)) == pytest.approx(1.0, rel=1e-12)

    def test_balanced_spinor(self):
        s = Spinor(phi_p=ROOT_HALF, phi_q=1j * ROOT_HALF)
        assert one_step_probability_total(s) == pytest.approx(1.0, rel=1e-12)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            one_step_probability_total(Spinor(phi_p=2))

    @pytest.mark.parametrize("theta", THETAS)
    def test_random_spinors(self, theta):
        rng = random.Random(31337)
        for _ in range(300):
            total = one_step_probability_total(random_spinor(rng), theta)
            assert total == pytest.approx(1.0, rel=1e-12)


class TestZitterbewegungTrace:
    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            zitterbewegung_trace(SpinorField.delta("P"), -1, TransferMatrices())

    def test_first_step_is_balanced(self):
        trace = zitterbewegung_trace(SpinorField.delta("P"), 2, TransferMatrices())
        t, mean_x, norm = trace[1]
        assert (t, mean_x) == (1, 0.0)
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_theta_zero_is_ballistic(self):
        trace = zitterbewegung_trace(SpinorField.delta("P"), 6, TransferMatrices(0.0))
        for t, mean_x, _ in trace:
            assert mean_x == pytest.approx(-t / 2, abs=1e-12)

    def test_norm_column_constant(self):
        steps = 50
        trace = zitterbewegung_trace(SpinorField.delta("P"), steps, TransferMatrices())
        assert len(trace) == steps + 1
        for t, _, norm in trace:
            assert abs(norm - 1.0) <= 1e-12 * max(t, 1)

    def test_mean_drifts_subluminally_with_trembling_velocity(self):
        trace = zitterbewegung_trace(SpinorField.delta("P"), 40, TransferMatrices())
        positions = [mean_x for _, mean_x, _ in trace]
        # ballistic motion would reach -20; the drift is far slower
        assert abs(positions[-1]) < 10
        velocities = [b - a for a, b in zip(positions, positions[1:])]
        assert all(abs(v) <= 0.5 + 1e-12 for v in velocities)
        # the velocity trembles instead of settling to a constant
        assert max(velocities) - min(velocities) > 0.05


class TestDensitySums:
    # Ten terms below half an ulp of 1.0 after the first: a plain loop drops
    # each of them, compensated summation (sum() from Python 3.12 on,
    # math.fsum) keeps them.  Sites sit at x = 1, 2, ..., 11.
    X2_LO = 2
    PROBS_P = [1.0] + [1e-16 / x for x in range(2, 12)]
    PROBS_Q = [0.0] * 11

    def test_rows_tell_the_two_summations_apart(self):
        xs = range(1, 12)
        assert math.fsum(self.PROBS_P) != 1.0
        assert math.fsum(x * p for x, p in zip(xs, self.PROBS_P)) != 1.0

    def test_norm_adds_left_to_right(self):
        assert norm_and_mean(self.X2_LO, self.PROBS_P, self.PROBS_Q)[0] == 1.0

    def test_mean_position_adds_left_to_right(self):
        assert norm_and_mean(self.X2_LO, self.PROBS_P, self.PROBS_Q)[1] == 1.0

    def test_empty_field_sums_to_int_zero(self):
        assert norm_and_mean(0, [], []) == (0, 0)
        assert [type(total) for total in norm_and_mean(0, [], [])] == [int, int]
        empty = SpinorField(phi_p=[], phi_q=[])
        totals = (empty.norm(), *norm_and_mean(empty.x2_lo, *empty.probabilities()))
        assert totals == (0, 0, 0)
        assert [type(total) for total in totals] == [int, int, int]

    def test_zero_weights_left_of_the_origin_sum_to_positive_zero(self):
        # x * 0.0 is -0.0 for x < 0, and a loop from int 0 never returns -0.0.
        sums = norm_and_mean(-6, [0.0, 0.0], [0.0, 0.0])
        assert [repr(total) for total in sums] == ["0.0", "0.0"]

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(-10**6, 10**6),
        st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)), max_size=40),
    )
    def test_sums_equal_the_row_loops(self, x2_lo, pairs):
        probs_p, probs_q = [p for p, _ in pairs], [q for _, q in pairs]
        rows = [((x2_lo + 2 * k) / 2, p, q) for k, (p, q) in enumerate(pairs)]
        norm, mean_x = norm_and_mean(x2_lo, probs_p, probs_q)
        assert (repr(norm), repr(mean_x)) == (repr(norm_of(rows)), repr(mean_position_of(rows)))
        assert (type(norm), type(mean_x)) == (type(norm_of(rows)), type(mean_position_of(rows)))

    @pytest.mark.parametrize("theta", [0.0, 0.3, 1.2])
    def test_probabilities_equal_the_row_oracle(self, theta):
        for field in evolve(SpinorField.delta("Q"), 40, TransferMatrices(theta)):
            rows = density_rows(field)
            assert list(field.probabilities()) == [[p for _, p, _ in rows], [q for _, _, q in rows]]
