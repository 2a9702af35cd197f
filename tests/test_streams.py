"""Keyed streams drawn many keys at a time equal one generator per key."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import qwk.streams as streams
from qwk.streams import counter_rng


def _generator_draws(seed, prefix, keys, bounds, size):
    """Reference: ``integers(b)`` for each b of ``bounds``, then
    ``random(size)``, of one ``counter_rng`` per key."""
    ints, doubles = [], []
    for k in keys:
        rng = counter_rng(seed, *prefix, k)
        ints.append([int(rng.integers(b)) for b in bounds])
        doubles.append(rng.random(size))
    return ints, np.array(doubles).reshape(len(keys), size)


class TestCounterDraws:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from([0, 7, 2 ** 32 - 1, 2 ** 32, 2 ** 40 + 5, 2 ** 64 + 3, 2 ** 130 + 11])
        | st.integers(0, 2 ** 70),
        st.lists(st.integers(0, 2 ** 33) | st.integers(0, 4), max_size=3),
        st.integers(1, 2 ** 24) | st.sampled_from([1, 2, 3, 5]),
        st.integers(0, 13),
        st.integers(0, 2 ** 32 - 20),
        st.integers(1, 9),
    )
    def test_draws_equal_the_keyed_generator(self, seed, prefix, bound, size, start, count):
        keys = np.arange(start, start + count)
        ints, doubles = streams.counter_draws(seed, tuple(prefix), keys[:, None], (bound,), size)
        ref_ints, ref_doubles = _generator_draws(seed, prefix, keys, (bound,), size)
        assert ints.tolist() == ref_ints
        assert np.array_equal(doubles, ref_doubles)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2 ** 66),
        st.lists(st.integers(0, 9), max_size=2),
        st.lists(st.sampled_from([1, 2, 3, 7, 2 ** 31 + 1, 2 ** 32 - 1, 2 ** 32])
                 | st.integers(1, 2 ** 32), max_size=9),
        st.integers(0, 13),
        st.integers(0, 2 ** 32 - 20),
        st.integers(1, 12),
    )
    @example(3, [1], [], 0, 0, 4)
    @example(3, [1], [5, 1, 1, 3, 1, 2], 13, 7, 9)  # 1s read no half: three halves
    @example(8, [], [2 ** 31 + 1, 3], 2, 0, 12)  # rejection in the first half
    @example(8, [], [3, 1, 2 ** 31 + 1, 4], 0, 0, 12)  # rejection in a high half
    @example(8, [], [6, 2 ** 32, 9, 2 ** 32, 2 ** 31 + 1], 5, 40, 12)
    def test_bounds_read_successive_halves(self, seed, prefix, bounds, size, start, count):
        keys = np.arange(start, start + count)
        ints, doubles = streams.counter_draws(seed, tuple(prefix), keys[:, None], bounds, size)
        ref_ints, ref_doubles = _generator_draws(seed, prefix, keys, bounds, size)
        assert ints.shape == (count, len(bounds)) and ints.tolist() == ref_ints
        assert np.array_equal(doubles, ref_doubles)

    def test_a_high_half_rejection_falls_back_to_the_generator(self):
        # the second bound reads word 0's high half; at 2^31 + 1 about half reject
        keys = np.arange(64)
        high = streams._counter_words(5, (3, 1), keys[:, None], 1)[:, 0] >> 32
        assert 16 <= np.count_nonzero(high * (2 ** 31 + 1) % 2 ** 32 < 2 ** 31 - 1) <= 48
        bounds = (7, 2 ** 31 + 1, 3)
        ints, doubles = streams.counter_draws(5, (3, 1), keys[:, None], bounds, 5)
        ref_ints, ref_doubles = _generator_draws(5, (3, 1), keys, bounds, 5)
        assert ints.tolist() == ref_ints
        assert np.array_equal(doubles, ref_doubles)

    @pytest.mark.parametrize("width", [0, 1, 4, 5, 8, 14])
    def test_words_are_the_raw_philox_outputs(self, width):
        keys = np.arange(6)[:, None]
        words = streams._counter_words(2 ** 64 + 3, (1, 2 ** 40, 0), keys, width)
        assert words.shape == (6, width) and words.dtype == np.uint64
        for k in range(6):
            raw = counter_rng(2 ** 64 + 3, 1, 2 ** 40, 0, k).bit_generator.random_raw(width)
            assert np.array_equal(words[k], raw)

    def test_two_word_tail_and_key_blocks(self, monkeypatch):
        tail = np.indices((3, 5)).reshape(2, -1).T
        whole = streams._counter_words(9, (0,), tail, 3)
        for (j, l), row in zip(tail, whole):
            assert np.array_equal(row, counter_rng(9, 0, j, l).bit_generator.random_raw(3))
        monkeypatch.setattr(streams, "_KEY_BLOCK", 4)
        assert np.array_equal(streams._counter_words(9, (0,), tail, 3), whole)

    def test_rejected_draws_fall_back_to_the_generator(self):
        # at L = 2^31 + 1 Lemire rejects a leftover below 2^31 - 1: about half
        bound, keys = 2 ** 31 + 1, np.arange(64)
        first = streams._counter_words(5, (1, 0, 3), keys[:, None], 1)[:, 0]
        leftover = (first & 0xFFFFFFFF) * bound & 0xFFFFFFFF
        assert 16 <= np.count_nonzero(leftover < 2 ** 31 - 1) <= 48
        ints, doubles = streams.counter_draws(5, (1, 0, 3), keys[:, None], (bound,), 4)
        ref_ints, ref_doubles = _generator_draws(5, (1, 0, 3), keys, (bound,), 4)
        assert ints.tolist() == ref_ints
        assert np.array_equal(doubles, ref_doubles)

    def test_negative_words_are_refused(self):
        with pytest.raises(ValueError):
            streams._counter_words(-1, (0,), np.zeros((1, 1)), 1)
        with pytest.raises(ValueError):
            streams._counter_words(1, (0, -3), np.zeros((1, 1)), 1)
