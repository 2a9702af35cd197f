"""Counter-keyed random streams: ``counter_rng`` builds one key's Philox
generator, and ``counter_draws`` computes the draws of many keys in one
numpy pass, equal to theirs bit for bit.  ``choice_cdf`` is the CDF that
``Generator.choice`` searches with a drawn uniform."""

from __future__ import annotations

import numpy as np


def counter_rng(seed: int, *key: int) -> np.random.Generator:
    """Counter-based generator keyed by (seed, key...), the definition of every
    keyed stream.  qwk draws its streams through ``counter_draws``, which
    builds one of these only for a row that Lemire's method rejects."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(k) for k in key))
    return np.random.Generator(np.random.Philox(ss))


# numpy's SeedSequence hash constants, and Philox4x64's multipliers and Weyl
# key increments (Salmon, Moraes, Dror and Shaw, SC 2011)
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_KEY_BLOCK = 1 << 12  # keys hashed and enciphered together


def _hashmix(value, const, mult=_MULT_A):
    """SeedSequence's hash of a word: (hash, next hash constant)."""
    nxt = const * mult & _M32
    value = (value ^ const) * nxt & _M32
    return value ^ value >> 16, nxt


def _mulhilo(a: np.ndarray, b: int):
    """High and low 64-bit halves of a·b, from 32-bit partial products."""
    a_lo, a_hi = a & _M32, a >> 32
    b_lo, b_hi = b & _M32, b >> 32
    lh, hl = a_lo * b_hi, a_hi * b_lo
    carry = ((a_lo * b_lo >> 32) + (lh & _M32) + (hl & _M32)) >> 32
    return a_hi * b_hi + (lh >> 32) + (hl >> 32) + carry, a * b


def _counter_words(seed: int, prefix, tail: np.ndarray, width: int) -> np.ndarray:
    """(K, width) uint64: the first ``width`` Philox4x64-10 outputs of
    ``counter_rng(seed, *prefix, *tail[i])`` for each row i of the (K, m)
    array ``tail``, whose entries are single 32-bit words.

    The pool of ``SeedSequence(seed, spawn_key=prefix)`` has hashed the
    seed, padded to four words, and the prefix; its hash constant has
    advanced once per hash, 16 + 4·(words − 4) times.  Only the tail words
    are mixed in as arrays, then ``generate_state(2, uint64)`` gives each
    Philox key.  Block b of a stream is the cipher of the counter b + 1."""
    prefix = tuple(int(p) for p in prefix)
    pool = [int(w) for w in np.random.SeedSequence(int(seed), spawn_key=prefix).pool]
    n_words = [max(1, -(-int(v).bit_length() // 32)) for v in (seed, *prefix)]
    hashes = 16 + 4 * (max(4, n_words[0]) + sum(n_words[1:]) - 4)
    const = _INIT_A * pow(_MULT_A, hashes, 1 << 32) & _M32
    tail = np.asarray(tail, dtype=np.uint64)
    blocks = -(-width // 4)
    out = np.empty((len(tail), 4 * blocks), dtype=np.uint64)
    for start in range(0, len(tail), _KEY_BLOCK):
        mixed, c = list(pool), const
        for w in tail[start:start + _KEY_BLOCK].T:
            for dst in range(4):
                h, c = _hashmix(w, c)
                r = (_MIX_L * mixed[dst] - _MIX_R * h) & _M32
                mixed[dst] = r ^ r >> 16
        state, c = [], _INIT_B
        for w in mixed:
            w, c = _hashmix(w, c, _MULT_B)  # generate_state's constants
            state.append(w)
        k0 = (state[0] | state[1] << 32)[:, None]
        k1 = (state[2] | state[3] << 32)[:, None]
        zero = np.zeros(blocks, dtype=np.uint64)
        c0, c1, c2, c3 = np.arange(1, blocks + 1, dtype=np.uint64), zero, zero, zero
        for r in range(10):
            if r:
                k0, k1 = k0 + _PHILOX_W[0], k1 + _PHILOX_W[1]
            hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        rows = out[start:start + _KEY_BLOCK]
        rows[:] = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1).reshape(rows.shape)
    return out[:, :width]


def choice_cdf(w: np.ndarray) -> np.ndarray:
    """CDFs along the last axis, built as Generator.choice builds them: its
    pick for a uniform u is ``searchsorted(cdf, u, side="right")``."""
    cdf = np.cumsum(w, axis=-1)
    return cdf / cdf[..., -1:]


def counter_draws(seed: int, prefix, tail, bounds, size: int):
    """For each row of ``tail``, what ``counter_rng(seed, *prefix, *row)``
    gives for ``integers(b)`` for each b of ``bounds`` in turn and then
    ``random(size)``: (K, len(bounds)) ints and (K, size) doubles.

    Each b > 1 reads the next 32-bit half of the stream, low half first,
    since Philox keeps a word's high half for the next 32-bit draw; a bound
    of 1 reads nothing.  The integer is Lemire's multiply of the half by b
    (b ≤ 2^32).  The doubles, (w >> 11)·2^-53, start at the next whole
    word.  Lemire rejects a half whose leftover falls below (2^32 − b) mod
    b, with probability below b/2^32; a row with such a half is redrawn
    with ``counter_rng`` itself, so every row equals its generator's draws."""
    bounds = np.array(bounds, dtype=np.uint64)
    read = bounds > 1
    skip = -(-np.count_nonzero(read) // 2)
    words = _counter_words(seed, prefix, tail, skip + size)
    halves = np.stack([words[:, :skip] & _M32, words[:, :skip] >> 32], axis=-1)
    m = halves.reshape(len(words), 2 * skip)[:, :np.count_nonzero(read)] * bounds[read]
    ints = np.zeros((len(words), len(bounds)), dtype=np.int64)
    ints[:, read] = m >> 32
    doubles = (words[:, skip:] >> 11) * 2.0 ** -53
    for i in np.flatnonzero(((m & _M32) < (2 ** 32 - bounds[read]) % bounds[read]).any(axis=1)):
        rng = counter_rng(seed, *prefix, *tail[i])
        ints[i] = [rng.integers(b) for b in bounds.tolist()]
        doubles[i] = rng.random(size)
    return ints, doubles
