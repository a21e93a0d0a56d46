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
whatever the data. The seed's words come first and are the same for every
index, so ``_seed_pool`` hashes and mixes them once, on Python ints, and
``_pcg64_seeds`` runs the rest of numpy's algorithm, the spawn-key words and
the eight output words, on a whole column of spawn keys at once. Each PCG64
then reads its four words through ``_SeedWords``, a minimal implementation of
numpy's documented ISeedSequence interface, and so starts in the state
SeedSequence would have given it.

``split_uniforms`` skips the generators: it returns a block of runs' first
``width`` uniforms, row k bit for bit ``split_rng(master_seed, start +
k).random(width)``, by running numpy's PCG64 (O'Neill, 2014; numpy's
``pcg64.h``) on the seed words of every run at once. Each step is integer
arithmetic modulo 2**128 or 2**64, which uint64 arrays carry out exactly
(numpy array arithmetic wraps silently), so the kernel reproduces numpy's
C code operation for operation:

* seeding, as ``pcg64_set_seed``: with words (w0, w1, w2, w3), state 0 and
  inc = (w2 * 2**64 + w3) * 2 + 1 mod 2**128, one LCG step, then state +=
  w0 * 2**64 + w1, then another step;
* the LCG step state * MULT + inc mod 2**128 on (hi, lo) uint64 halves:
  lo' = lo * MULT_lo, hi' = hi * MULT_lo + lo * MULT_hi + the high half of
  lo * MULT_lo, which comes from 32-bit limbs so no partial product
  overflows; adding inc carries from the low half into the high;
* each output steps first, then takes XSL-RR, hi ^ lo rotated right by the
  state's top six bits r, as (x >> r) | (x << (64 - r)): at r = 0 the left
  shift is by 64, which numpy defines as 0 for uint64 (C leaves it
  undefined), so the rotation needs no mask;
* ``random()`` maps a 64-bit output x to (x >> 11) * 2**-53, exactly as
  numpy's ``next_double``: x >> 11 < 2**53 converts to float64 exactly, and
  the scaling is by a power of two.

The kernel steps every run's state one column at a time and writes the
column's doubles straight into the (count, width) result, so it holds no
copy of the block beyond the result. It costs a fixed number of numpy calls
per uniform over the whole block, so it beats per-run generators on short
streams and loses on long ones; :func:`specdec.decoding.decode_markov_runs`
picks between them.
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

# PCG64's 128-bit LCG multiplier (numpy/random/src/pcg64/pcg64.h) in 64-bit
# halves, and the low half's 32-bit limbs. The kernel's shift counts and
# masks are uint64 scalars too, so every operation stays in uint64.
PCG_MULT_HI, PCG_MULT_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
MULT_LO_LIMBS = (np.uint64(0x9FCCF645), np.uint64(0x4385DF64))
MASK32_U64 = np.uint64(MASK32)
U1, U11, U32, U58, U63, U64 = (np.uint64(v) for v in (1, 11, 32, 58, 63, 64))


def make_rng(seed) -> np.random.Generator:
    """Fresh generator for a master seed (or None for OS entropy)."""
    return np.random.default_rng(seed)


def _indices(names: str, *values) -> list[int]:
    """``values`` as ints >= 0 by numpy's index rule, which refuses floats, 2.0 included.

    TypeError for a bool or a non-integer, ValueError naming ``names`` if one is negative.
    """
    if any(isinstance(value, bool) for value in values):
        raise TypeError(f"{names}: a bool is not an integer")
    values = [operator.index(value) for value in values]
    if min(values) < 0:
        raise ValueError(f"{names} must be >= 0")
    return values


def split_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent child stream number ``index`` of ``master_seed``, both integers >= 0."""
    master_seed, index = _indices("master_seed and index", master_seed, index)
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


def _hashmix(value, hash_const: int, mult: int = MULT_A):
    """SeedSequence's hashmix: (hashed word, next hash constant).

    ``value`` is a Python int word or a uint32 array of words, and the hash
    constant always a Python int. Masking keeps a Python int to 32 bits and
    changes nothing in a uint32 array, whose arithmetic wraps; under NEP 50
    the Python-int constants stay uint32 against an array.
    """
    value = value ^ hash_const
    hash_const = (hash_const * mult) & MASK32
    value = (value * hash_const) & MASK32
    return value ^ (value >> 16), hash_const


def _mix(x, y):
    """SeedSequence's mix of two words, Python ints or uint32 arrays as in ``_hashmix``."""
    result = (MIX_MULT_L * x - MIX_MULT_R * y) & MASK32
    return result ^ (result >> 16)


def _mix_in(pool: list, words, hash_const: int) -> int:
    """Mix every word of ``words`` into every pool word in place; returns the hash constant.

    The words are the seed's words past POOL_SIZE (Python ints) or spawn-key
    columns (uint32 arrays). A Python int times a uint32 array overflows, so
    a pool that meets columns must hold uint32 arrays.
    """
    for word in words:
        for dst in range(POOL_SIZE):
            hashed, hash_const = _hashmix(word, hash_const)
            pool[dst] = _mix(pool[dst], hashed)
    return hash_const


def _seed_pool(seed_words: list[int]) -> tuple[list[int], int]:
    """SeedSequence's pool after it has mixed in ``seed_words``, and its hash constant then.

    ``seed_words`` are the master seed's 32-bit words padded to at least
    POOL_SIZE, the entropy that every spawn key of one seed shares, so this
    part of the hash runs once per seed, on Python ints.
    """
    hash_const, pool = INIT_A, []
    for word in seed_words[:POOL_SIZE]:
        word, hash_const = _hashmix(word, hash_const)
        pool.append(word)
    for src in range(POOL_SIZE):
        for dst in range(POOL_SIZE):
            if src != dst:
                word, hash_const = _hashmix(pool[src], hash_const)
                pool[dst] = _mix(pool[dst], word)
    hash_const = _mix_in(pool, seed_words[POOL_SIZE:], hash_const)
    return pool, hash_const


def _pcg64_seeds(seed_pool: tuple[list[int], int], keys: np.ndarray) -> np.ndarray:
    """Row k: ``generate_state(4, np.uint64)`` of the SeedSequence with spawn key ``keys[k]``.

    ``seed_pool`` is ``_seed_pool`` of the seed's words and ``keys`` a
    (count, L) uint32 array of spawn-key words. Only the key words and the
    output words are hashed over columns; the seed's pool words are length-1
    uint32 columns that broadcast against them.
    """
    words, hash_const = seed_pool
    pool = [np.array([word], dtype=np.uint32) for word in words]
    _mix_in(pool, keys.T, hash_const)
    hash_const = INIT_B
    state = np.empty((keys.shape[0], 2 * POOL_SIZE), dtype="<u4")
    for i in range(2 * POOL_SIZE):
        state[:, i], hash_const = _hashmix(pool[i % POOL_SIZE], hash_const, MULT_B)
    return state.view("<u8").astype(np.uint64, copy=False)


def _split_seed_words(master_seed: int, start: int, count: int) -> np.ndarray:
    """Row k: the four uint64 words PCG64 seeds ``split_rng(master_seed, start + k)`` from.

    ``master_seed``, ``start`` and ``count`` are nonnegative integers.
    """
    master_seed, start, count = _indices("master_seed, start and count", master_seed, start, count)
    seed_words = [(master_seed >> (32 * j)) & MASK32 for j in range(_word_count(master_seed))]
    seed_pool = _seed_pool(seed_words + [0] * (POOL_SIZE - len(seed_words)))
    out = np.empty((count, 4), dtype=np.uint64)
    index, stop = start, start + count
    while index < stop:
        # Spawn keys of one word count share an entropy length.
        words = _word_count(index)
        end = min(stop, 1 << (32 * words))
        if words <= 2:
            # Little-endian 4- or 8-byte integers are their own 32-bit words, low first.
            keys = np.arange(index, end, dtype=f"<u{4 * words}").view("<u4")
        else:
            keys = np.frombuffer(
                b"".join(i.to_bytes(4 * words, "little") for i in range(index, end)), dtype="<u4"
            )
        keys = keys.reshape(end - index, words)
        out[index - start : end - start] = _pcg64_seeds(seed_pool, keys)
        index = end
    return out


def split_rngs(master_seed: int, start: int, count: int) -> list[np.random.Generator]:
    """``[split_rng(master_seed, i) for i in range(start, start + count)]``, bit for bit.

    ``master_seed``, ``start`` and ``count`` are nonnegative integers.
    """
    words = _split_seed_words(master_seed, start, count)
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in words]


def _mul_hi(a: np.ndarray) -> np.ndarray:
    """High 64 bits of the 128-bit product a * PCG_MULT_LO, from 32-bit limbs.

    With limbs a = a1 * 2**32 + a0 and b1, b0 of the constant, neither
    a1*b0 + (a0*b0 >> 32) nor its low limb plus a0*b1 exceeds 2**64 - 1.
    """
    a0, a1 = a & MASK32_U64, a >> U32
    middle = a1 * MULT_LO_LIMBS[0] + ((a0 * MULT_LO_LIMBS[0]) >> U32)
    low_carry = (middle & MASK32_U64) + a0 * MULT_LO_LIMBS[1]
    return a1 * MULT_LO_LIMBS[1] + (middle >> U32) + (low_carry >> U32)


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """state * PCG_MULT + inc mod 2**128 for every run, with (hi, lo) uint64 halves."""
    product_lo = lo * PCG_MULT_LO
    product_hi = hi * PCG_MULT_LO + lo * PCG_MULT_HI + _mul_hi(lo)
    lo = product_lo + inc_lo
    return product_hi + inc_hi + (lo < product_lo), lo


def _seeded_states(words: np.ndarray):
    """(hi, lo, inc_hi, inc_lo) of the PCG64 states ``pcg64_set_seed`` builds from each row of words.

    pcg64_set_seed: state 0, inc = (seq << 1) | 1, step (which takes state 0
    to inc), add the seed, step.
    """
    seed_hi, seed_lo, seq_hi, seq_lo = words.T
    inc_hi = (seq_hi << U1) | (seq_lo >> U63)
    inc_lo = (seq_lo << U1) | U1
    lo = inc_lo + seed_lo
    hi, lo = _lcg_step(inc_hi + seed_hi + (lo < inc_lo), lo, inc_hi, inc_lo)
    return hi, lo, inc_hi, inc_lo


def split_uniforms(master_seed: int, start: int, count: int, width: int) -> np.ndarray:
    """(count, width) array whose row k is ``split_rng(master_seed, start + k).random(width)``.

    Bit for bit, by numpy's PCG64 arithmetic run over the whole block (see
    the module docstring). The arguments are nonnegative integers.
    """
    (width,) = _indices("width", width)
    hi, lo, inc_hi, inc_lo = _seeded_states(_split_seed_words(master_seed, start, count))
    out = np.empty((len(hi), width))
    for column in out.T:
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR: rotate hi ^ lo right by the state's top six bits; at
        # rotation 0 the left shift is by 64, which numpy defines as 0.
        value, rotation = hi ^ lo, hi >> U58
        value = (value >> rotation) | (value << (U64 - rotation))
        np.multiply(value >> U11, 2.0**-53, out=column)
    return out
