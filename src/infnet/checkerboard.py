"""Two-component spinor propagation on the half-step lattice.

A particle at a site arrived there one of two ways: from the right after a
P step (helicity P) or from the left after a Q step (helicity Q).  The two
arrival amplitudes form a spinor (phi_p, phi_q).  One time step applies the
transfer matrices

    P(theta) = [[cos t, i sin t],   Q(theta) = [[0,       0    ],
                [0,     0       ]]              [i sin t, cos t]]

sitewise and shifts: the new phi_p at x is P(theta) applied to the spinor
at x + 1/2 (the particle stepped left), the new phi_q at x comes from
x - 1/2.  Staying on the same helicity costs cos(theta); reversing costs
i*sin(theta) -- the factor of i per reversal that makes the four
continuation amplitudes of a normalized spinor sum to unit probability,
since P(theta) + Q(theta) is unitary for every theta.

The default theta = pi/4 weights both continuations equally at 1/sqrt(2).
theta is exposed as a knob: smaller theta means fewer reversals per unit
time, i.e. a lighter particle.

Positions are stored as doubled integers (x2 = 2x) so half-steps stay
exact.  A field is the x2_lo of its first site and one complex array per
helicity (phi_p, phi_q), read through those three, probabilities() and
norm(); a step is two array expressions and a one-slot shift each way.
evolve() is the one stepping loop and norm_and_mean() the one summation of
probabilities(), under the trace and the command line.  numpy is imported
only where arrays are made, so the module, the words' amplitudes, the
kernel and the transfer matrices load without it.
Summing amplitudes over all 2**N words with fixed endpoints
(path_sum_kernel) reproduces N applications of step_field; the kernel is
deliberately brute-force so it can serve as an independent oracle.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from typing import TYPE_CHECKING, Union

if TYPE_CHECKING:
    import numpy as np

HELICITIES = ("P", "Q")
KERNEL_CAP = 24


def _check_helicity(value: str) -> str:
    if value not in HELICITIES:
        raise ValueError(f"helicity must be 'P' or 'Q', got {value!r}")
    return value


def _to_x2(x: Union[int, float, Fraction]) -> int:
    """Convert a position in natural units to a doubled-integer lattice site."""
    doubled = Fraction(x) * 2
    if doubled.denominator != 1:
        raise ValueError(f"position {x} is not on the half-step lattice")
    return int(doubled)


@dataclass(frozen=True)
class Spinor:
    """Arrival amplitudes by helicity: phi_p (came from the right), phi_q (left)."""

    phi_p: complex = 0j
    phi_q: complex = 0j

    def norm_sq(self) -> float:
        return abs(self.phi_p) ** 2 + abs(self.phi_q) ** 2


@dataclass(frozen=True)
class TransferMatrices:
    """The one-step propagator pair P(theta), Q(theta)."""

    theta: float = math.pi / 4

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi / 2:
            raise ValueError(f"theta must lie in [0, pi/2], got {self.theta}")

    @property
    def cos(self) -> float:
        # Pin the default angle to sqrt(1/2) exactly; cos/sin disagree by
        # one ulp there.
        if self.theta == math.pi / 4:
            return math.sqrt(0.5)
        return math.cos(self.theta)

    @property
    def sin(self) -> float:
        if self.theta == math.pi / 4:
            return math.sqrt(0.5)
        return math.sin(self.theta)

    def continue_p(self, s: Union[Spinor, SpinorField]) -> Union[complex, np.ndarray]:
        """Amplitude for the next step to be a P step (the P row applied to s)."""
        return self.cos * s.phi_p + 1j * self.sin * s.phi_q

    def continue_q(self, s: Union[Spinor, SpinorField]) -> Union[complex, np.ndarray]:
        """Amplitude for the next step to be a Q step."""
        return 1j * self.sin * s.phi_p + self.cos * s.phi_q


@dataclass(eq=False)
class SpinorField:
    """Spinor amplitudes over lattice sites at one time step.

    Site k of phi_p and phi_q sits at x2 = x2_lo + 2k (x = x2 / 2); a site
    not stored has amplitude zero.  Sequences given are stored as arrays.
    """

    t: int = 0
    x2_lo: int = 0
    phi_p: np.ndarray = ()
    phi_q: np.ndarray = ()

    def __post_init__(self):
        import numpy as np

        self.phi_p = np.asarray(self.phi_p, np.complex128)
        self.phi_q = np.asarray(self.phi_q, np.complex128)
        if self.phi_p.ndim != 1 or self.phi_p.shape != self.phi_q.shape:
            raise ValueError("phi_p and phi_q must be 1-d arrays of equal length")

    @classmethod
    def delta(cls, helicity: str = "P", x: Union[int, float, Fraction] = 0) -> "SpinorField":
        """A unit point source with the given arrival helicity."""
        phi_p, phi_q = {"P": ([1], [0]), "Q": ([0], [1])}[_check_helicity(helicity)]
        return cls(t=0, x2_lo=_to_x2(x), phi_p=phi_p, phi_q=phi_q)

    def probabilities(self) -> tuple[list[float], list[float]]:
        """|phi_p|**2 and |phi_q|**2 per site, in ascending x: two lists.

        Rounded as abs(z) ** 2 on Python complex (libm hypot, then pow):
        numpy's own complex abs and squaring differ in the last bit.  The
        square stays Python's pow(|z|, 2) on purpose: glibc's pow(x, 2) is
        not always x*x, so numpy's square (or x*x) would change the digits
        that the propagate CSV prints.
        """
        import numpy as np

        abs_p, abs_q = (np.hypot(a.real, a.imag).tolist() for a in (self.phi_p, self.phi_q))
        return list(map(pow, abs_p, repeat(2))), list(map(pow, abs_q, repeat(2)))

    def norm(self) -> float:
        return norm_and_mean(self.x2_lo, *self.probabilities())[0]


def norm_and_mean(
    x2_lo: int, probs_p: list[float], probs_q: list[float]
) -> tuple[float, float]:
    """Total probability and <x> of a field's probabilities(), from site x2_lo.

    Each is 0 + term_0 + term_1 + ... added left to right, the term being
    p + q for the norm and x * (p + q) for <x>: not sum(), which
    compensates from Python 3.12 on, nor np.sum, which adds pairwise, so
    every supported Python prints the same digits.  np.add.accumulate is
    that sequential loop; the 0.0 added at the end turns its one other
    possible result, -0.0 where every term is zero, into the loop's 0.0.
    An empty field sums to int 0, as the loop does.
    """
    if not probs_p:
        return 0, 0
    import numpy as np

    weights = np.add(probs_p, probs_q)
    xs = np.arange(x2_lo, x2_lo + 2 * len(weights), 2) / 2
    norm = np.add.accumulate(weights)[-1].item() + 0.0
    mean_x = np.add.accumulate(xs * weights)[-1].item() + 0.0
    return norm, mean_x


def path_amplitude(word: str, initial_helicity: str, theta: float = math.pi / 4) -> complex:
    """Amplitude of one word: cos(theta) per continuation, i*sin(theta) per reversal.

    The first symbol is compared against the helicity of the previous
    (pre-word) influence.  The empty word has amplitude 1.
    """
    _check_helicity(initial_helicity)
    tm = TransferMatrices(theta)
    amplitude = 1 + 0j
    previous = initial_helicity
    for symbol in word:
        if symbol not in HELICITIES:
            raise ValueError(f"word must use only P and Q, got {word!r}")
        amplitude *= tm.cos if symbol == previous else 1j * tm.sin
        previous = symbol
    return amplitude


def step_field(f: SpinorField, tm: TransferMatrices) -> SpinorField:
    """Advance one time step: mix helicities sitewise, then shift by arrival."""
    import numpy as np

    zero = np.zeros(min(len(f.phi_p), 1), np.complex128)  # an empty field stays empty
    to_p = tm.continue_p(f)  # particle steps left, arrives at x - 1/2
    to_q = tm.continue_q(f)  # particle steps right, arrives at x + 1/2
    return SpinorField(
        t=f.t + 1,
        x2_lo=f.x2_lo - 1,
        phi_p=np.concatenate((to_p, zero)),
        phi_q=np.concatenate((zero, to_q)),
    )


def evolve(initial: SpinorField, steps: int, tm: TransferMatrices) -> Iterator[SpinorField]:
    """Yield the field at each time from the initial field through `steps` steps."""
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    current = initial
    yield current
    for _ in range(steps):
        current = step_field(current, tm)
        yield current


def propagate(initial: SpinorField, steps: int, tm: TransferMatrices) -> SpinorField:
    for current in evolve(initial, steps, tm):
        pass
    return current


def path_sum_kernel(
    initial_helicity: str,
    x0: Union[int, float, Fraction],
    final_helicity: str,
    x1: Union[int, float, Fraction],
    steps: int,
    theta: float = math.pi / 4,
    cap: int = KERNEL_CAP,
) -> complex:
    """Sum of path amplitudes over all words from x0 to x1 ending on final_helicity.

    Brute force over all 2**steps words; this is the independent check for
    propagate() and is capped accordingly.
    """
    _check_helicity(initial_helicity)
    _check_helicity(final_helicity)
    if steps < 0:
        raise ValueError(f"steps must be non-negative, got {steps}")
    if steps > cap:
        raise ValueError(f"{steps} steps exceed the kernel cap of {cap}")
    start2 = _to_x2(x0)
    end2 = _to_x2(x1)
    if steps == 0:
        at_rest = start2 == end2 and initial_helicity == final_helicity
        return 1 + 0j if at_rest else 0j
    tm = TransferMatrices(theta)
    stay, flip = complex(tm.cos), 1j * tm.sin
    total = 0j
    for bits in range(1 << steps):
        x2 = start2
        previous = initial_helicity
        amplitude = 1 + 0j
        for k in range(steps):
            symbol = "Q" if bits >> k & 1 else "P"
            x2 += 1 if symbol == "Q" else -1
            amplitude *= stay if symbol == previous else flip
            previous = symbol
        if x2 == end2 and previous == final_helicity:
            total += amplitude
    return total


def one_step_probability_total(s: Spinor, theta: float = math.pi / 4) -> float:
    """Total probability of the two continuations of a normalized spinor.

    |P(theta) s|**2 + |Q(theta) s|**2, which is 1 for every theta: the
    normalization that pins the reversal factor to be imaginary.
    """
    if abs(s.norm_sq() - 1.0) > 1e-12:
        raise ValueError(f"spinor is not normalized: |s|^2 = {s.norm_sq()}")
    tm = TransferMatrices(theta)
    return abs(tm.continue_p(s)) ** 2 + abs(tm.continue_q(s)) ** 2


def zitterbewegung_trace(
    initial: SpinorField, steps: int, tm: TransferMatrices
) -> list[tuple[int, float, float]]:
    """Rows (t, <x>, norm) for each step from the initial field onward."""
    if abs(initial.norm() - 1.0) > 1e-12:
        raise ValueError("initial field must be normalized")
    rows = []
    for f in evolve(initial, steps, tm):
        norm, mean_x = norm_and_mean(f.x2_lo, *f.probabilities())
        rows.append((f.t, mean_x, norm))
    return rows
