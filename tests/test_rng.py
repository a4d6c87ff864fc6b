"""Substreams and the Fisher-Yates shuffle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbdetect import rng as rngmod
from dbdetect.errors import ValidationError

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


PURPOSES = (
    rngmod.SAMPLE_NULL, rngmod.SAMPLE_ALT, rngmod.RISK_NULL, rngmod.RISK_ALT,
    rngmod.PD_ESTIMATE,
)
# indices on both sides of the one-word/two-word boundary of the key hash
INDICES = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1))


def seed_sequence_key(seed, *spawn_key):
    return np.random.SeedSequence(seed, spawn_key=spawn_key).generate_state(
        2, np.uint64
    )


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    purpose=st.sampled_from(PURPOSES),
    index=st.lists(st.integers(0, 2**40), max_size=2),
    last=st.lists(INDICES, min_size=1, max_size=6),
)
def test_stream_keys_are_seed_sequence_keys(seed, purpose, index, last):
    """A block's keys are, row by row, the keys numpy's SeedSequence
    derives for the same seed and spawn key, whatever the word counts of
    the seed and of the indices."""
    keys = rngmod.stream_keys(seed, (purpose, *index), np.array(last, dtype=np.uint64))
    assert keys.dtype == np.uint64 and keys.shape == (len(last), 2)
    for key, value in zip(keys, last):
        assert np.array_equal(key, seed_sequence_key(seed, purpose, *index, value))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    purpose=st.sampled_from(PURPOSES),
    index=st.lists(INDICES, max_size=3),
)
def test_substream_is_the_seed_sequence_stream(seed, purpose, index):
    fresh = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(purpose, *index)))
    )
    stream = rngmod.substream(seed, purpose, *index)
    assert stream.integers(0, 7) == fresh.integers(0, 7)
    assert np.array_equal(stream.random(5), fresh.random(5))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**128),
    purpose=st.sampled_from(PURPOSES),
    trial=INDICES,
    use=st.sampled_from(["half-read buffer", "cached 32-bit half"]),
)
def test_rekey_after_partial_use_is_a_fresh_substream(seed, purpose, trial, use):
    """Re-keying drops all of the old stream's state: a Philox block half
    read, and the 32-bit half a bounded-integer draw left cached."""
    rng = rngmod.substream(seed + 1, purpose, 0, 0)
    if use == "half-read buffer":
        rng.random()
        assert rng.bit_generator.state["buffer_pos"] == 1
    else:
        rng.integers(0, 7)
        assert rng.bit_generator.state["has_uint32"] == 1
    key = rngmod.stream_keys(seed, (purpose, 0), [trial])[0]
    rngmod.rekey(rng, key)
    fresh = rngmod.substream(seed, purpose, 0, trial)
    # full-range 32-bit words come straight from the stream, with no
    # rejection step that could skip a stale word
    words = rng.integers(0, 2**32, size=3, dtype=np.uint32)
    assert np.array_equal(words, fresh.integers(0, 2**32, size=3, dtype=np.uint32))
    assert np.array_equal(rng.random(5), fresh.random(5))
    assert np.array_equal(rng.standard_normal(3), fresh.standard_normal(3))


def test_stream_keys_reject_negative_indices():
    """A ``ValidationError``, which the command line reports in one line."""
    with pytest.raises(ValidationError):
        rngmod.stream_keys(0, (rngmod.RISK_NULL, 0), np.array([3, -1]))
    with pytest.raises(ValidationError):
        rngmod.substream(-1, rngmod.RISK_NULL)
