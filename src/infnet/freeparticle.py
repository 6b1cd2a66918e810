"""Free-particle influence sequences and their zig-zag spacetime paths.

A free particle is a chain that influences two observer chains P and Q but
is never influenced itself.  The observers record which of them each
successive influence hit, but cannot order a P detection against a Q
detection, so every interleaving of their detection lists is a possible
history.  A history is a *word* over {P, Q} (plain strings here), and there
are C(nP + nQ, nP) of them for nP hits on P and nQ on Q.

In the emergent spacetime each word is a path of half-steps: time advances
by 1/2 per influence and position moves by -1/2 (P, toward the left-hand
observer) or +1/2 (Q).  Every step runs at the invariant speed, |dx/dt| = 1.

The light-cone bookkeeping for observer intervals is crossed: a step toward
an observer chases the signals already heading that way, so it stalls that
observer's projection and advances the other one.  A word with kP P-steps
and kQ Q-steps therefore spans dp = kQ on P and dq = kP on Q, giving
beta = (dp - dq)/(dp + dq) = (kQ - kP)/(kP + kQ).

Random words come from one seeded stream, True for P, drawn into one
reused buffer of at most CHUNK_SYMBOLS float64 draws (2 MiB) so the draws
stay in cache.  sample_masks() cuts it into boolean chunks of whole words;
decode_words() turns a chunk into strings, and sample_sequences() is that
decoding over every chunk.  Totals need only the count of True entries, so
count_p() counts the same stream in pieces of CHUNK_SYMBOLS that ignore word
boundaries: its memory does not grow with the word length.  These functions
import numpy in their bodies, so importing this module does not load it.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import TYPE_CHECKING, Optional

from .network import RESTRICTED, InfluenceNetwork
from .projection import forward_project

if TYPE_CHECKING:
    import numpy as np

HALF = Fraction(1, 2)
STEP_DX = {"P": -HALF, "Q": HALF}
DEFAULT_CAP = 20
CHUNK_SYMBOLS = 1 << 18  # 2 MiB of float64 draws, a size that stays in cache

PARTICLE_CHAIN = "Pi"
LEFT_CHAIN = "P"
RIGHT_CHAIN = "Q"


@dataclass(frozen=True)
class SpacetimePath:
    """A zig-zag path: a start point plus unit-speed half-steps."""

    start: tuple[Fraction, Fraction]
    steps: tuple[tuple[Fraction, Fraction], ...]

    def points(self) -> list[tuple[Fraction, Fraction]]:
        """All visited (x, t) points, start included."""
        x, t = self.start
        out = [(x, t)]
        for dt, dx in self.steps:
            t += dt
            x += dx
            out.append((x, t))
        return out


def _check_word(word: str) -> str:
    if any(symbol not in "PQ" for symbol in word):
        raise ValueError(f"word must use only P and Q, got {word!r}")
    return word


def enumerate_sequences(n_p: int, n_q: int, cap: int = DEFAULT_CAP) -> list[str]:
    """All words with exactly n_p P's and n_q Q's, lexicographically.

    Lex order over words coincides with lex order over the tuples of P
    positions, so combinations() delivers it directly.
    """
    if n_p < 0 or n_q < 0:
        raise ValueError("symbol counts must be non-negative")
    total = n_p + n_q
    if total > cap:
        raise ValueError(f"enumeration of {total} symbols exceeds the cap of {cap}")
    words = []
    for p_positions in combinations(range(total), n_p):
        letters = ["Q"] * total
        for position in p_positions:
            letters[position] = "P"
        words.append("".join(letters))
    return words


def sequence_to_path(
    word: str, start: tuple[Fraction, Fraction] = (Fraction(0), Fraction(0))
) -> SpacetimePath:
    """The spacetime path of a word: dt = +1/2 always, dx = -1/2 (P) or +1/2 (Q)."""
    _check_word(word)
    x0, t0 = Fraction(start[0]), Fraction(start[1])
    steps = tuple((HALF, STEP_DX[symbol]) for symbol in word)
    return SpacetimePath(start=(x0, t0), steps=steps)


def consistent_orderings(p_events: list[int], q_events: list[int]) -> list[str]:
    """Every interleaving of two detection lists, as words.

    The observers know only their own orderings, so any merge that keeps
    each list in order is consistent with what they saw.  Enumerated by
    direct recursion (P branch first, hence lexicographic), independently
    of enumerate_sequences.
    """
    for name, labels in (("p", p_events), ("q", q_events)):
        if any(a >= b for a, b in zip(labels, labels[1:])):
            raise ValueError(f"{name} detection labels must be strictly increasing: {labels}")
    out: list[str] = []

    def merge(i: int, j: int, prefix: list[str]) -> None:
        if i == len(p_events) and j == len(q_events):
            out.append("".join(prefix))
            return
        if i < len(p_events):
            prefix.append("P")
            merge(i + 1, j, prefix)
            prefix.pop()
        if j < len(q_events):
            prefix.append("Q")
            merge(i, j + 1, prefix)
            prefix.pop()

    merge(0, 0, [])
    return out


def _check_draws(n_steps: int, prob_p: float, count: int) -> None:
    if not 0.0 <= prob_p <= 1.0:
        raise ValueError(f"prob_p must be in [0, 1], got {prob_p}")
    if n_steps < 0 or count < 0:
        raise ValueError("n_steps and count must be non-negative")


def _draws(symbols: int, piece: int, prob_p: float, seed: int) -> Iterator[np.ndarray]:
    """The first `symbols` symbols of the seeded stream as flat boolean masks.

    Each mask holds `piece` symbols (the last one may hold fewer); the draws
    land in one reused float64 buffer, and every mask is a fresh array.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    buffer = np.empty(min(piece, symbols))
    for start in range(0, symbols, piece):
        draws = buffer[: min(piece, symbols - start)]
        rng.random(out=draws)
        yield draws < prob_p


def sample_masks(n_steps: int, prob_p: float, seed: int, count: int) -> Iterator[np.ndarray]:
    """Draw `count` words of i.i.d. symbols as boolean (rows, n_steps) chunks.

    True means P, drawn with probability prob_p.  The chunks are the rows
    of one seed-deterministic stream, in order; each holds about
    CHUNK_SYMBOLS symbols but at least one row.  The draws land in one
    reused float64 buffer that fits in cache, and every chunk is a fresh
    mask, so a caller may keep them all.  The arguments are checked before
    anything is drawn.
    """
    _check_draws(n_steps, prob_p, count)
    if not n_steps:
        if count:  # empty words hold no symbols: one chunk carries them all
            import numpy as np

            yield np.zeros((count, 0), dtype=bool)
        return
    rows = max(1, CHUNK_SYMBOLS // n_steps)
    for mask in _draws(count * n_steps, rows * n_steps, prob_p, seed):
        yield mask.reshape(-1, n_steps)


def count_p(n_steps: int, prob_p: float, seed: int, count: int) -> int:
    """The P's among the words sample_masks() draws, counted without the words.

    A count ignores word boundaries, so the same stream is drawn flat in
    pieces of CHUNK_SYMBOLS: memory stays at one piece however long a word
    is.
    """
    _check_draws(n_steps, prob_p, count)
    import numpy as np

    pieces = _draws(count * n_steps, CHUNK_SYMBOLS, prob_p, seed)
    return sum(int(np.count_nonzero(mask)) for mask in pieces)


def decode_words(mask: np.ndarray) -> list[str]:
    """The words of a boolean (rows, n_steps) chunk, one per row: True is P."""
    import numpy as np

    rows, n_steps = mask.shape
    codes = np.where(mask, np.uint8(ord("P")), np.uint8(ord("Q")))
    text = codes.tobytes().decode("ascii")
    return [text[i * n_steps : (i + 1) * n_steps] for i in range(rows)]


def sample_sequences(n_steps: int, prob_p: float, seed: int, count: int) -> list[str]:
    """Draw words of i.i.d. symbols, P with probability prob_p; seed-deterministic."""
    return [
        word
        for mask in sample_masks(n_steps, prob_p, seed, count)
        for word in decode_words(mask)
    ]


def observer_spans(word: str) -> tuple[int, int]:
    """Projection spans (dp, dq) a word sweeps on the observer chains.

    Crossed bookkeeping: each P step advances the span on Q and vice versa
    (moving toward an observer stalls its projection).
    """
    _check_word(word)
    return word.count("Q"), word.count("P")


def build_free_particle_fixture(
    n_p: int, n_q: int, word: str, bridge: bool = True
) -> InfluenceNetwork:
    """A restricted-mode network realizing a word: chain Pi firing at P and Q.

    One particle event per symbol, each with a single cross edge to a fresh
    response event on the named observer chain; the particle receives no
    influences.  With bridge=True each observer chain gains a tail event
    and one tail-to-tail edge from the last-influenced side, so that late
    particle events still project forward onto both chains and every
    consecutive particle interval is fully quantifiable.
    """
    _check_word(word)
    if word.count("P") != n_p or word.count("Q") != n_q:
        raise ValueError(
            f"word {word!r} has {word.count('P')} P's and {word.count('Q')} Q's, "
            f"expected {n_p} and {n_q}"
        )
    net = InfluenceNetwork(RESTRICTED)
    for name in (PARTICLE_CHAIN, LEFT_CHAIN, RIGHT_CHAIN):
        net.add_chain(name)
    for symbol in word:
        act = net.add_event(PARTICLE_CHAIN)
        response = net.add_event(LEFT_CHAIN if symbol == "P" else RIGHT_CHAIN)
        net.add_influence(act, response)
    if bridge:
        left_tail = net.add_event(LEFT_CHAIN)
        right_tail = net.add_event(RIGHT_CHAIN)
        if word.endswith("P"):
            net.add_influence(left_tail, right_tail)
        else:
            net.add_influence(right_tail, left_tail)
    return net.finalize()


def zigzag_interval_pairs(
    net: InfluenceNetwork,
    particle: str = PARTICLE_CHAIN,
    left: str = LEFT_CHAIN,
    right: str = RIGHT_CHAIN,
) -> list[tuple[Optional[int], Optional[int]]]:
    """Per consecutive particle interval, the (dp, dq) of its forward projections.

    A component is None when either endpoint fails to project onto that
    observer.  On a free-particle fixture every pair contains a zero: each
    step is light-like.
    """
    chain = net._view(particle).ref
    on_left = [forward_project(net, e, left) for e in chain.events]
    on_right = [forward_project(net, e, right) for e in chain.events]
    pairs: list[tuple[Optional[int], Optional[int]]] = []
    for i in range(len(chain.events) - 1):
        dp = None
        if on_left[i] is not None and on_left[i + 1] is not None:
            dp = on_left[i + 1] - on_left[i]
        dq = None
        if on_right[i] is not None and on_right[i + 1] is not None:
            dq = on_right[i + 1] - on_right[i]
        pairs.append((dp, dq))
    return pairs
