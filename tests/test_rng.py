"""Batched stream splitting: split_rngs returns split_rng's generators, and
split_uniforms their uniforms, bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specdec.rng import (
    _lcg_step,
    _seeded_states,
    _split_seed_words,
    split_rng,
    split_rngs,
    split_uniforms,
)


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
    for call in (lambda: split_rng(True, 0), lambda: split_rng(0, True),
                 lambda: split_rngs(True, 0, 2), lambda: split_rngs(0, 0, True)):
        with pytest.raises(TypeError):
            call()


def test_split_uniforms_input_validation():
    for args in [(-1, 0, 3, 2), (0, -1, 3, 2), (0, 0, -1, 2)]:
        with pytest.raises(ValueError, match="master_seed, start and count must be >= 0"):
            split_uniforms(*args)
    with pytest.raises(ValueError, match="width must be >= 0"):
        split_uniforms(0, 0, 3, -1)
    for args in [(0, 1.5, 3, 2), (2.0, 0, 3, 2), (0, 0, 3.0, 2), (0, 0, 3, 2.5),
                 (0, 0, 2, True), (True, 0, 2, 2), (0, False, 2, 2)]:
        with pytest.raises(TypeError):
            split_uniforms(*args)


def assert_same_uniforms(seed: int, start: int, count: int, width: int) -> None:
    block = split_uniforms(seed, start, count, width)
    assert block.shape == (count, width) and block.dtype == np.float64
    for row, index in zip(block, range(start, start + count)):
        assert row.tobytes() == split_rng(seed, index).random(width).tobytes()


@pytest.mark.parametrize("seed", [0, 7, 2**32 + 5, 2**70 + 1, 2**160 + 9])
def test_split_uniforms_match_split_rng(seed):
    assert_same_uniforms(seed, 0, 40, 22)
    assert_same_uniforms(seed, 123_456, 5, 70)
    assert_same_uniforms(seed, 2**32 - 3, 6, 13)  # one- and two-word spawn keys
    assert_same_uniforms(seed, 2**64 - 2, 4, 9)  # two- and three-word spawn keys


def test_split_uniforms_empty_blocks():
    assert split_uniforms(7, 5, 0, 4).shape == (0, 4)
    assert split_uniforms(7, 5, 3, 0).shape == (3, 0)
    assert split_uniforms(7, 2**64 - 1, 0, 0).shape == (0, 0)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**130 - 1),
    start=st.integers(0, 2**66 - 1),
    count=st.integers(0, 40),
    width=st.integers(0, 40),
)
def test_split_uniforms_property(seed, start, count, width):
    assert_same_uniforms(seed, start, count, width)


def test_uint64_shift_by_64_is_zero():
    # split_uniforms rotates without a mask: at rotation 0 its left shift is
    # by 64, which numpy defines as 0 for uint64 at every array length.
    for size in (1, 3, 8, 17, 64, 1000):
        x = np.random.default_rng(size).integers(1, 2**63, size=size, dtype=np.uint64)
        assert (x << np.uint64(64) == 0).all()
        assert (x << np.full(size, 64, dtype=np.uint64) == 0).all()


def test_split_uniforms_at_a_zero_rotation():
    # Run 1 of seed 0 rotates its second output by 0 bits.
    hi, lo, inc_hi, inc_lo = _seeded_states(_split_seed_words(0, 1, 1))
    for _ in range(2):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    assert (hi >> np.uint64(58)).tolist() == [0]
    assert_same_uniforms(0, 1, 1, 2)
