"""``seeding.stream_states`` against numpy's own ``SeedSequence`` -> ``PCG64`` derivation.

The suite turns every RuntimeWarning into an error, so the batch's ``uint32``
array products must wrap without one.
"""

import numpy as np
import pytest

from fluidrelay.seeding import stream_states, substream

# One-word, largest one-word, two-word and four-word seeds.
SEEDS = (0, 5, 2024, 2**32 - 1, 2**32, 10**30)


def _keys(trials, num_users, tags):
    """``(trial, user, tag)`` rows, trial 0 and user 0 (zero coordinates) included."""
    return np.array([(t, k, tag) for t in range(trials) for k in range(num_users) for tag in tags])


def _reference(seed, path):
    return np.random.PCG64(np.random.SeedSequence((seed, *map(int, path))))


class TestStreamStates:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_channel_and_power_keys_match_seed_sequence(self, seed):
        # 6 seeds x 17,400 keys: 104,400 keys in all.
        keys = _keys(2900, 3, (0, 1))
        states = stream_states(seed, keys)
        assert len(states) == len(keys)
        shared = np.random.Generator(np.random.PCG64())
        for path, state in zip(keys, states):
            reference = _reference(seed, path)
            assert state == reference.state, (seed, path)
            shared.bit_generator.state = state
            assert shared.standard_normal(32).tobytes() == np.random.Generator(reference).standard_normal(32).tobytes()
            shared.bit_generator.state = state
            assert shared.random(2).tobytes() == substream(seed, *map(int, path)).random(2).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("width", [0, 1, 2, 4, 5])
    def test_key_widths_match_seed_sequence(self, seed, width):
        # Keys of up to nine words: some fill the pool, some pass it, some end in zeros.
        rng = np.random.default_rng(width)
        keys = rng.integers(0, 3, size=(40, width))
        keys[:10] = 0
        keys[10:20] = rng.integers(0, 2**32, size=(10, width))
        states = stream_states(seed, keys)
        assert states == [_reference(seed, path).state for path in keys]

    def test_empty_batch(self):
        assert stream_states(7, np.zeros((0, 3), dtype=np.int64)) == []

    @pytest.mark.parametrize("path", [[[0, 2**32]], [[-1, 0]], [[2**64, 0]]])
    def test_coordinates_outside_one_word_rejected(self, path):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*32\)"):
            stream_states(7, np.array(path, dtype=object))

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            stream_states(-1, [[0]])
