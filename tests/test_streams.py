"""Keyed streams drawn many keys at a time equal one generator per key."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qwk.streams as streams
from qwk.streams import counter_rng


def _generator_draws(seed, prefix, keys, bound, size):
    """Reference: ``integers(bound)`` then ``random(size)`` of one
    ``counter_rng`` per key."""
    ints, doubles = [], []
    for k in keys:
        rng = counter_rng(seed, *prefix, k)
        ints.append(int(rng.integers(bound)))
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
        ints, doubles = streams.counter_draws(seed, tuple(prefix), keys[:, None], bound, size)
        ref_ints, ref_doubles = _generator_draws(seed, prefix, keys, bound, size)
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
        ints, doubles = streams.counter_draws(5, (1, 0, 3), keys[:, None], bound, 4)
        ref_ints, ref_doubles = _generator_draws(5, (1, 0, 3), keys, bound, 4)
        assert ints.tolist() == ref_ints
        assert np.array_equal(doubles, ref_doubles)

    def test_negative_words_are_refused(self):
        with pytest.raises(ValueError):
            streams._counter_words(-1, (0,), np.zeros((1, 1)), 1)
        with pytest.raises(ValueError):
            streams._counter_words(1, (0, -3), np.zeros((1, 1)), 1)
