"""Deterministic substream derivation for reproducible parallel sampling.

Every random draw in the package flows through a stream addressed by a
root seed plus a tuple of integer coordinates (trial index, user index,
purpose tag, ...).  A worker arriving at the same coordinates always gets
the same stream, so scheduling and worker counts cannot change results.

``SeedSequence`` ignores trailing zero words, so ``(s, a, 0)`` and ``(s, a)``
are one key.  Hence ``validate``'s empirical-CDF chunk ``c`` reads the
channel stream ``(seed, c, 0, 0)`` of trial ``c``, user 0 in ``sweep`` and
``optimize``, and ``random_scenario``'s ``(seed, 0xA1FA)`` is trial 41466's,
user 0.  Separating them would change every output.
"""

from __future__ import annotations

import numpy as np


def substream(seed: int, *path: int) -> np.random.Generator:
    """Return the generator addressed by ``(seed, *path)``; trailing zeros in ``path`` are ignored."""
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


def derive_seed(seed: int, *path: int) -> int:
    """Collapse ``(seed, *path)`` into a single integer seed.

    Used where an API takes a scalar seed (e.g. the MVN engine) but the
    caller needs independent, reproducible engines per grid point.
    Trailing zeros in ``path`` do not change the seed.
    """
    entropy = (int(seed),) + tuple(int(p) for p in path)
    return int(np.random.SeedSequence(entropy=entropy).generate_state(1, np.uint64)[0])
