"""Deterministic substream derivation for reproducible parallel sampling.

Every random draw in the package flows through a stream addressed by a
root seed plus a tuple of integer coordinates (trial index, user index,
purpose tag, ...).  A worker arriving at the same coordinates always gets
the same stream, so scheduling and worker counts cannot change results.

``SeedSequence`` splits the key into 32-bit words and mixes the first four
into a four-word pool, a missing word counting as a zero word; only words
beyond the fourth are mixed in one by one.  So while the seed fits one word
(below 2**32), keys of at most four words that differ by trailing zeros are
one key: ``(s, a, 0)`` and ``(s, a)`` address the same stream, and so do
``(s, a, 0, 0)`` and ``(s, a)``.  Hence, at such seeds, ``validate``'s
empirical-CDF chunk ``c`` reads the channel stream ``(seed, c, 0, 0)`` of
trial ``c``, user 0 in ``sweep`` and ``optimize``, and ``random_scenario``'s
``(seed, 0xA1FA)`` is trial 41466's, user 0.  Separating them would change
every output.  A seed of two or more words pushes ``(s, c, 0, 0)`` past the
pool, so from 2**32 on those streams differ.

``stream_states`` derives many streams' ``PCG64`` start states in one pass
of ``uint32`` array operations; ``substream`` stays numpy's own derivation of
a single stream, the reference the batch is tested against.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a single integer seed.

    Used where an API takes a scalar seed (e.g. the MVN engine) but the
    caller needs independent, reproducible engines per grid point.
    Keys coincide exactly where ``substream``'s do.
    """
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])


_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: pool size, hash and mix constants (numpy/random/bit_generator.pyx).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier (O'Neill 2014).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def stream_states(seed: int, paths) -> list[dict]:
    """The ``PCG64`` state ``substream(seed, *row)`` starts from, for each row of ``paths``.

    ``paths`` is an ``(M, P)`` integer array of coordinates in ``[0, 2**32)``,
    one word each, so every row's key has the seed's words plus ``P`` words.
    ``SeedSequence``'s pool mixing and ``generate_state(4, uint64)`` run as
    ``uint32`` column operations over all rows at once (array products wrap
    mod 2**32 without a warning); PCG64's seeding step then runs on Python
    ints, in object arrays.  Each state is a dict in the form of
    ``PCG64.state``.
    """
    seed = int(seed)
    paths = np.asarray(paths)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    if paths.size and not (0 <= paths.min() and paths.max() <= _MASK32):
        raise ValueError(f"stream coordinates must lie in [0, 2**32), got {paths.min()} to {paths.max()}")
    seed_words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    words = [np.full(len(paths), word, np.uint32) for word in seed_words] + list(paths.astype(np.uint32).T)
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = _MIX_MULT_L * x - _MIX_MULT_R * y
        return result ^ result >> 16

    padded = words + [np.zeros_like(words[0])] * (_POOL_SIZE - len(words))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    out = []
    for i in range(8):  # generate_state(4, uint64): eight words, cycling the pool
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        out.append((value ^ value >> 16).astype(np.uint64))
    # Little-endian word pairs make the four uint64 words: seed high, seed low, increment high, low.
    seed_hi, seed_lo, inc_hi, inc_lo = ((out[j] | out[j + 1] << 32).astype(object) for j in range(0, 8, 2))
    # PCG64's srandom: inc = 2*initseq + 1; state = ((inc + initstate) * mult + inc) mod 2**128.
    inc = ((inc_hi << 64 | inc_lo) << 1 | 1) & _MASK128
    state = ((inc + (seed_hi << 64 | seed_lo)) * _PCG_MULT + inc) & _MASK128
    return [
        {"bit_generator": "PCG64", "state": {"state": s, "inc": i}, "has_uint32": 0, "uinteger": 0}
        for s, i in zip(state.tolist(), inc.tolist())
    ]
