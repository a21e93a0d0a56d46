"""Batched stream splitting: split_rngs returns split_rng's generators, bit for bit."""

import numpy as np
import pytest

from specdec.rng import split_rng, split_rngs


def assert_same_streams(seed: int, start: int, count: int) -> None:
    batched = split_rngs(seed, start, count)
    assert len(batched) == count
    for index, rng in zip(range(start, start + count), batched):
        reference = split_rng(seed, index)
        assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(rng.random(64), reference.random(64))


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 1])
def test_matches_split_rng(seed):
    assert_same_streams(seed, 0, 40)
    assert_same_streams(seed, 123_456, 5)


@pytest.mark.parametrize("seed", [0, 2**70 + 1])
def test_range_straddling_two_word_spawn_keys(seed):
    assert_same_streams(seed, 2**32 - 3, 6)


def test_range_straddling_three_word_spawn_keys():
    assert_same_streams(11, 2**64 - 2, 4)


def test_seed_longer_than_the_pool():
    assert_same_streams(2**160 + 9, 3, 4)


def test_count_zero():
    assert split_rngs(7, 5, 0) == []


def test_input_validation():
    with pytest.raises(ValueError, match=">= 0"):
        split_rngs(-1, 0, 3)
    with pytest.raises(ValueError, match=">= 0"):
        split_rngs(0, 0, -1)
    with pytest.raises(TypeError):
        split_rngs(0, 1.5, 3)
