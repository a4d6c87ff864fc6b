"""Substreams and the Fisher-Yates shuffle."""

import numpy as np
import pytest

from dbdetect import rng as rngmod

from helpers import scalar_fisher_yates


@pytest.mark.parametrize("n", [1, 2, 3, 100, 1000])
def test_fisher_yates_equals_scalar_loop(n):
    """One array draw of the n - 1 bounds gives the scalar loop's
    permutation and leaves the generator where the loop leaves it."""
    for seed in range(100):
        fast = rngmod.substream(seed, rngmod.SAMPLE_ALT, n)
        slow = rngmod.substream(seed, rngmod.SAMPLE_ALT, n)
        assert np.array_equal(
            rngmod.fisher_yates(fast, n), scalar_fisher_yates(slow, n)
        )
        assert fast.integers(0, 7) == slow.integers(0, 7)
        assert fast.random() == slow.random()


def test_fisher_yates_is_a_permutation():
    perm = rngmod.fisher_yates(rngmod.substream(3, rngmod.SAMPLE_ALT), 50)
    assert perm.dtype == np.int64
    assert sorted(perm.tolist()) == list(range(50))


def test_substream_is_keyed_by_purpose_and_index():
    draw = lambda *key: rngmod.substream(*key).random()  # noqa: E731
    assert draw(1, 2, 3) == draw(1, 2, 3)
    assert draw(1, 2, 3) != draw(1, 2, 4)
    assert draw(1, 2, 3) != draw(1, 3, 3)
