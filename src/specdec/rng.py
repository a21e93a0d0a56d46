"""Seeded random streams with deterministic per-run splitting.

A campaign derives run i's stream from (master_seed, i) via SeedSequence, so
runs are statistically independent, reproducible in isolation, and insensitive
to execution order.

``split_rng`` is the reference: it builds ``SeedSequence(master_seed,
spawn_key=(i,))`` and seeds a PCG64 from it. ``split_rngs`` returns the same
generators for a range of indices at a fraction of the cost. SeedSequence
hashes its entropy words (the seed's 32-bit words, padded with zeros to the
pool size of 4 because a spawn key is present, then the index's words) into a
pool of four uint32 words, and PCG64 seeds itself from the first four uint64
words of ``generate_state``. Both steps use only uint32 xor, multiply and
shift with fixed constants, and the hash constants advance the same way
whatever the data, so ``_pcg64_seeds`` runs numpy's algorithm on a whole
column of spawn keys at once. Each PCG64 then reads its four words through
``_SeedWords``, a minimal implementation of numpy's documented ISeedSequence
interface, and so starts in the state SeedSequence would have given it.
"""

from __future__ import annotations

import operator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx).
POOL_SIZE = 4
INIT_A, MULT_A = 0x43B0D7E5, 0x931E8875
INIT_B, MULT_B = 0x8B51F9DD, 0x58F38DED
MIX_MULT_L, MIX_MULT_R = 0xCA01F9DD, 0x4973F715
MASK32 = 0xFFFFFFFF


def make_rng(seed) -> np.random.Generator:
    """Fresh generator for a master seed (or None for OS entropy)."""
    return np.random.default_rng(seed)


def split_rng(master_seed, index: int) -> np.random.Generator:
    """Independent child stream number ``index`` of ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


class _SeedWords(ISeedSequence):
    """Seed sequence that hands PCG64 its four precomputed uint64 state words."""

    __slots__ = ("_words",)

    def __init__(self, words: np.ndarray) -> None:
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        """The words themselves: PCG64 asks for exactly ``generate_state(4, np.uint64)``."""
        return self._words


def _word_count(value: int) -> int:
    """Number of 32-bit words SeedSequence splits a nonnegative integer into."""
    return max(1, -(-value.bit_length() // 32))


def _pcg64_seeds(entropy: np.ndarray) -> np.ndarray:
    """Row k: ``generate_state(4, np.uint64)`` of the SeedSequence with entropy ``entropy[k]``.

    ``entropy`` is a (count, L) uint32 array with L > POOL_SIZE, each row
    being numpy's assembled entropy words (seed words, zero padding, spawn key).
    """
    hash_const = INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * MULT_A) & MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(MIX_MULT_L) * x - np.uint32(MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(entropy[:, i]) for i in range(POOL_SIZE)]
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(POOL_SIZE, entropy.shape[1]):
        for dst in range(POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))

    hash_const = INIT_B
    state = np.empty((entropy.shape[0], 2 * POOL_SIZE), dtype="<u4")
    for i in range(2 * POOL_SIZE):
        value = pool[i % POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * MULT_B) & MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.view("<u8").astype(np.uint64)


def split_rngs(master_seed: int, start: int, count: int) -> list[np.random.Generator]:
    """``[split_rng(master_seed, i) for i in range(start, start + count)]``, bit for bit.

    ``master_seed``, ``start`` and ``count`` are nonnegative integers.
    """
    master_seed, start, count = (operator.index(v) for v in (master_seed, start, count))
    if master_seed < 0 or start < 0 or count < 0:
        raise ValueError("master_seed, start and count must be >= 0")
    seed_words = [(master_seed >> (32 * j)) & MASK32 for j in range(_word_count(master_seed))]
    seed_words += [0] * (POOL_SIZE - len(seed_words))
    rngs = []
    index, stop = start, start + count
    while index < stop:
        # Spawn keys of one word count share an entropy length.
        words = _word_count(index)
        end = min(stop, 1 << (32 * words))
        keys = np.frombuffer(
            b"".join(i.to_bytes(4 * words, "little") for i in range(index, end)), dtype="<u4"
        ).reshape(end - index, words)
        seeds = np.tile(np.array(seed_words, dtype=np.uint32), (end - index, 1))
        entropy = np.hstack([seeds, keys])
        rngs.extend(
            np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in _pcg64_seeds(entropy)
        )
        index = end
    return rngs
