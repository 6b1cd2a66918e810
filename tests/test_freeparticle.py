"""Sequence enumeration, zig-zag paths, sampling, and the fixture builder.

Covered claims:
    - enumerate_sequences lists C(n_p + n_q, n_p) words in lex order
    - consistent_orderings agrees with it while being built independently
    - paths run at the invariant speed, half-step by half-step
    - sampling is seed-deterministic with the right marginals; its chunks
      are one flat draw of the stream, each a fresh mask, drawn into one
      cache-sized buffer; count_p counts that stream in pieces that ignore
      word boundaries, so one long word holds one small piece
    - the fixture builder yields a valid restricted network whose
      consecutive particle intervals all carry a zero projection
"""

from __future__ import annotations

import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infnet import (
    build_free_particle_fixture,
    consistent_orderings,
    enumerate_sequences,
    freeparticle,
    observer_spans,
    quantify_interval,
    sample_sequences,
    sequence_to_path,
    zigzag_interval_pairs,
)

HALF = Fraction(1, 2)


# == 1. Enumeration ===========================================================


class TestEnumerateSequences:
    def test_four_three_has_35_orderings(self):
        words = enumerate_sequences(4, 3)
        assert len(words) == 35
        assert words[0] == "PPPPQQQ"
        assert words[1] == "PPPQPQQ"
        assert words[-1] == "QQQPPPP"
        assert "PQPPQPQ" in words
        assert len(set(words)) == 35

    def test_one_one(self):
        assert enumerate_sequences(1, 1) == ["PQ", "QP"]

    def test_single_symbol_runs(self):
        assert enumerate_sequences(0, 3) == ["QQQ"]
        assert enumerate_sequences(3, 0) == ["PPP"]
        assert enumerate_sequences(0, 0) == [""]

    def test_lexicographic(self):
        words = enumerate_sequences(3, 2)
        assert words == sorted(words)

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            enumerate_sequences(11, 10)
        assert len(enumerate_sequences(11, 10, cap=21)) == math.comb(21, 11)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 6), st.integers(0, 6))
    def test_count_law(self, n_p, n_q):
        words = enumerate_sequences(n_p, n_q)
        assert len(words) == math.comb(n_p + n_q, n_p)
        assert all(w.count("P") == n_p and w.count("Q") == n_q for w in words)


# == 2. Paths =================================================================


class TestSequenceToPath:
    def test_all_p_is_ballistic_left(self):
        path = sequence_to_path("PPPP")
        assert path.end == (Fraction(-2), Fraction(2))
        for dt, dx in path.steps:
            assert dx / dt == -1

    def test_pq_cancels_in_x(self):
        points = sequence_to_path("PQ").points()
        assert points == [
            (Fraction(0), Fraction(0)),
            (-HALF, HALF),
            (Fraction(0), Fraction(1)),
        ]

    def test_reference_word_endpoint(self):
        path = sequence_to_path("PQPPQPQ")
        assert len(path.steps) == 7
        assert path.end == (-HALF, Fraction(7, 2))

    def test_custom_start(self):
        path = sequence_to_path("Q", start=(Fraction(3), Fraction(1)))
        assert path.points()[0] == (Fraction(3), Fraction(1))
        assert path.end == (Fraction(7, 2), Fraction(3, 2))

    def test_bad_symbol_rejected(self):
        with pytest.raises(ValueError):
            sequence_to_path("PXQ")

    @settings(max_examples=60)
    @given(st.text(alphabet="PQ", max_size=16))
    def test_light_cone(self, word):
        path = sequence_to_path(word)
        (x0, t0) = path.points()[0]
        for x, t in path.points()[1:]:
            assert abs(x - x0) <= t - t0
        if word:
            x_end, t_end = path.end
            ballistic = abs(x_end - x0) == t_end - t0
            assert ballistic == (len(set(word)) == 1)


# == 3. Consistent orderings ==================================================


class TestConsistentOrderings:
    def test_matches_detection_lists(self):
        words = consistent_orderings([1, 3, 4, 6], [2, 5, 7])
        assert len(words) == 35
        assert "PQPPQPQ" in words

    def test_equals_enumeration(self):
        assert consistent_orderings([1, 3, 4, 6], [2, 5, 7]) == enumerate_sequences(4, 3)

    def test_single_detection(self):
        assert consistent_orderings([1], []) == ["P"]

    def test_empty(self):
        assert consistent_orderings([], []) == [""]

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError):
            consistent_orderings([3, 1], [2])


# == 4. Sampling ==============================================================


class TestSampleSequences:
    def test_deterministic(self):
        first = sample_sequences(50, 0.4, seed=123, count=20)
        second = sample_sequences(50, 0.4, seed=123, count=20)
        assert first == second

    def test_seed_changes_output(self):
        assert sample_sequences(50, 0.4, 1, 5) != sample_sequences(50, 0.4, 2, 5)

    def test_prob_one_is_all_p(self):
        assert sample_sequences(30, 1.0, 7, 4) == ["P" * 30] * 4

    def test_prob_zero_is_all_q(self):
        assert sample_sequences(30, 0.0, 7, 4) == ["Q" * 30] * 4

    def test_balanced_sampling_drifts_to_zero(self):
        words = sample_sequences(400, 0.5, seed=42, count=200)
        total = 400 * 200
        total_p = sum(w.count("P") for w in words)
        dp, dq = total - total_p, total_p
        beta = (dp - dq) / (dp + dq)
        sigma = 2 * math.sqrt(0.25 / total)
        assert abs(beta) <= 4 * sigma

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            sample_sequences(10, 1.5, 0, 1)


CHUNK = freeparticle.CHUNK_SYMBOLS


class TestSampleMasks:
    """The draw loop: chunks of one stream, drawn into one reused buffer."""

    @pytest.mark.parametrize(
        "n_steps, count, prob_p",
        [
            (1, 1000, 0.3),  # one chunk, below its size
            (1, CHUNK, 0.3),  # exactly one full chunk
            (1, CHUNK + 5, 0.3),  # a full chunk and a short one
            (3, 3 * (CHUNK // 3) + 1, 0.6),  # rows that do not fill a chunk exactly
            (1000, 700, 0.45),  # several chunks of 262 rows
            (CHUNK + 3, 3, 0.5),  # words longer than a chunk: a row per chunk
            (9, 0, 0.5),
            (0, 5, 0.5),
            (40, 800, 0.0),
            (40, 800, 1.0),
        ],
    )
    def test_masks_concatenate_to_one_flat_draw(self, n_steps, count, prob_p):
        masks = list(freeparticle.sample_masks(n_steps, prob_p, 11, count))
        draws = np.random.default_rng(11).random(count * n_steps) < prob_p
        expected = draws.reshape(count, n_steps)
        got = np.concatenate(masks) if masks else np.zeros((0, n_steps), bool)
        assert got.shape == expected.shape and np.array_equal(got, expected)
        assert all(1 <= len(mask) and mask.size <= max(CHUNK, n_steps) for mask in masks[:-1])
        assert all(mask.dtype == bool and mask.shape[1] == n_steps for mask in masks)

    def test_kept_masks_stay_intact(self):
        masks = list(freeparticle.sample_masks(1000, 0.5, 4, 1000))
        assert len(masks) == 4
        rows = [0, *np.cumsum([len(mask) for mask in masks])]
        expected = (np.random.default_rng(4).random(1000 * 1000) < 0.5).reshape(1000, 1000)
        for mask, lo, hi in zip(masks, rows, rows[1:]):
            assert np.array_equal(mask, expected[lo:hi])
        for first, second in itertools.combinations(masks, 2):
            assert not np.shares_memory(first, second)

    def test_draining_ten_million_symbols_holds_one_small_chunk(self):
        # 2**18 float64 draws (2 MiB) and a mask or two; 2 000 000-symbol
        # chunks would hold 16 MB of draws.
        tracemalloc.start()
        try:
            for mask in freeparticle.sample_masks(1000, 0.3, 1, 10_000):
                np.count_nonzero(mask)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestCountP:
    """Totals: the sampled stream counted flat, whatever the word length."""

    @pytest.mark.parametrize(
        "n_steps, count, prob_p",
        [
            (1000, 700, 0.45),
            (CHUNK + 3, 3, 0.5),  # words longer than a piece
            (3, 3 * (CHUNK // 3) + 1, 0.6),  # pieces cut words apart
            (2 * CHUNK, 1, 0.3),  # one word of exactly two pieces
            (9, 0, 0.5),
            (0, 5, 0.5),
            (40, 800, 0.0),
            (40, 800, 1.0),
        ],
    )
    def test_counts_the_p_of_the_sampled_words(self, n_steps, count, prob_p):
        expected = np.count_nonzero(np.random.default_rng(11).random(count * n_steps) < prob_p)
        masks = freeparticle.sample_masks(n_steps, prob_p, 11, count)
        assert freeparticle.count_p(n_steps, prob_p, 11, count) == expected
        assert sum(int(np.count_nonzero(mask)) for mask in masks) == expected

    def test_one_word_of_ten_million_symbols_holds_one_small_piece(self):
        # sample_masks holds the whole word: 80 MB of draws and its mask.
        tracemalloc.start()
        try:
            freeparticle.count_p(10_000_000, 0.3, 1, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("n_steps, prob_p, count", [(-1, 0.5, 1), (1, 0.5, -1), (1, 1.5, 1)])
    def test_bad_arguments_rejected(self, n_steps, prob_p, count):
        with pytest.raises(ValueError):
            freeparticle.count_p(n_steps, prob_p, 0, count)


def test_observer_spans_are_crossed():
    assert observer_spans("PPPP") == (0, 4)
    assert observer_spans("QQQ") == (3, 0)
    dp, dq = observer_spans("PQPPQPQ")
    assert (dp, dq) == (3, 4)
    x_end, t_end = sequence_to_path("PQPPQPQ").end
    assert Fraction(dp - dq, dp + dq) == x_end / t_end


# == 5. Fixture builder =======================================================


class TestFreeParticleFixture:
    def test_reference_word_validates(self):
        net = build_free_particle_fixture(4, 3, "PQPPQPQ")
        assert net.validate() == []
        assert net.mode == "restricted"

    def test_particle_receives_nothing(self):
        net = build_free_particle_fixture(4, 3, "PQPPQPQ")
        for event in net.chain("Pi").events:
            external = net.predecessors(event) - set(net.chain("Pi").events)
            assert not external

    def test_every_interval_has_a_zero_side(self):
        net = build_free_particle_fixture(4, 3, "PQPPQPQ")
        for dp, dq in zigzag_interval_pairs(net):
            assert dp == 0 or dq == 0
            assert {dp, dq} == {0, 1}

    def test_intervals_quantify_lightlike(self):
        net = build_free_particle_fixture(4, 3, "PQPPQPQ")
        particle = net.chain("Pi").events
        for a, b in zip(particle, particle[1:]):
            result = quantify_interval(net, a, b, "P", "Q", require_between=False)
            assert result.scalar == 0
            dp, dq = result.pair
            beta = (dp - dq) / (dp + dq)
            assert abs(beta) == 1

    def test_single_influence_word(self):
        net = build_free_particle_fixture(1, 0, "P", bridge=False)
        assert len(net.chain_names()) == 3
        chain_edges = set()
        for name in net.chain_names():
            members = net.chain(name).events
            chain_edges.update(zip(members, members[1:]))
        assert len(net.edges() - chain_edges) == 1
        assert net.validate() == []

    def test_word_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_free_particle_fixture(2, 2, "PQQ")

    @settings(max_examples=40, deadline=None)
    @given(st.text(alphabet="PQ", min_size=1, max_size=10))
    def test_any_word_produces_lightlike_steps(self, word):
        net = build_free_particle_fixture(word.count("P"), word.count("Q"), word)
        assert net.validate() == []
        pairs = zigzag_interval_pairs(net)
        assert len(pairs) == len(word) - 1
        for dp, dq in pairs:
            assert dp is not None and dq is not None
            assert sorted((dp, dq)) == [0, 1]
