"""Deterministic random substreams.

Every stochastic routine in the package derives its generator here, from a
64-bit user seed, a fixed purpose tag, and optional indices (for example a
trial number).  The generator is Philox, a counter-based PRNG, keyed as
``numpy.random.SeedSequence(seed, spawn_key=(purpose, *index))`` keys it, so
any substream is a pure function of ``(seed, purpose, index)`` and results
never depend on execution order, thread count, or how many other streams
were drawn before it.

A Philox stream is a pure function of its key (Salmon et al., *Parallel
random numbers: as easy as 1, 2, 3*, SC 2011), and SeedSequence hashes its
words with constants that do not depend on them.  So :func:`stream_keys`
derives the keys of a whole block of trial indices as a few uint32 array
operations, and :func:`rekey` points one generator at each stream in turn;
:func:`substream` derives its one key the same way.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

# Purpose tags.  These values are part of the reproducibility contract:
# changing them changes every sampled bit.
SAMPLE_NULL = 1
SAMPLE_ALT = 2
RISK_NULL = 3
RISK_ALT = 4
PD_ESTIMATE = 5

# numpy.random.SeedSequence's hash (numpy/random/bit_generator.pyx): 32-bit
# words mixed into a pool of four, hash constants that start at INIT and are
# multiplied by MULT at every use, and the mixing multipliers
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_XSHIFT = 16
_INIT_A, _MULT_A = 0x43B0_D7E5, 0x931E_8875
_INIT_B, _MULT_B = 0x8B51_F9DD, 0x58F3_8DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01_F9DD, 0x4973_F715
_ZERO_BLOCK = np.zeros(4, dtype=np.uint64)
_ZERO_BLOCK.setflags(write=False)


def _words(value) -> list[int]:
    """The little-endian 32-bit words of a non-negative integer, as
    SeedSequence splits it (0 is one word)."""
    value = int(value)
    if value < 0:
        raise ValidationError("expected non-negative integer")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _constants(start: int, mult: int, count: int) -> list[int]:
    """``count + 1`` successive hash constants from ``start``."""
    out = [start]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _hash(value, xor, mult):
    """One hash step on Python integers or uint32 arrays (which wrap)."""
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> _XSHIFT


def _mix(x, y):
    result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
    return result ^ result >> _XSHIFT


def _head_pool(words: list[int]) -> tuple[list[int], int]:
    """SeedSequence's pool after mixing ``words`` (at least four), in
    Python integers, and the hash constant its next word starts from.  Each
    word, and each pool entry mixed into the others, takes four hash calls."""
    consts = _constants(_INIT_A, _MULT_A, _POOL_SIZE * len(words))
    calls = iter(range(_POOL_SIZE * len(words)))

    def hashed(value):
        call = next(calls)
        return _hash(value, consts[call], consts[call + 1])

    pool = [hashed(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashed(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashed(word))
    return pool, consts[-1]


def _absorb(pool: np.ndarray, word: np.ndarray, start: int) -> tuple[np.ndarray, int]:
    """A ``(B, 4)`` uint32 pool with the B words of ``word`` mixed in, one
    per row, from hash constant ``start``, and the constant after them."""
    consts = _constants(start, _MULT_A, _POOL_SIZE)
    table = np.array(consts, dtype=np.uint32)
    return _mix(pool, _hash(word[:, None], table[:-1], table[1:])), consts[-1]


def stream_keys(seed: int, prefix: tuple[int, ...], last) -> np.ndarray:
    """The Philox keys of the substreams ``(seed, *prefix, i)`` for each i
    of the 1-D ``last`` (each below 2^64), shape ``(len(last), 2)`` uint64:
    row i is ``SeedSequence(seed, spawn_key=(*prefix, last[i]))
    .generate_state(2, np.uint64)``, bit for bit.

    SeedSequence hashes the seed's words (padded to the pool's four), then
    the spawn key's, with constants that do not depend on them.  So the
    pool after the seed and ``prefix`` is mixed once, in Python integers,
    and the one or two words of each i are mixed into copies of it as
    uint32 array operations, for all i at once."""
    head = _words(seed)
    head += [0] * (_POOL_SIZE - len(head))
    for value in prefix:
        head += _words(value)
    pool, start = _head_pool(head)
    last = np.asarray(last)
    if last.dtype.kind not in "iu" or (last.size and last.min() < 0):
        raise ValidationError("stream indices must be integers in [0, 2^64)")
    last = last.astype(np.uint64)
    pool, after = _absorb(
        np.tile(np.array(pool, dtype=np.uint32), (last.size, 1)),
        (last & _MASK32).astype(np.uint32), start,
    )
    high = (last >> 32).astype(np.uint32)
    wide = high != 0  # a second word, hashed on from where the first left off
    if wide.any():
        pool[wide], _ = _absorb(pool[wide], high[wide], after)
    # the key's two 64-bit words are four 32-bit ones, each from one pool entry
    consts = np.array(_constants(_INIT_B, _MULT_B, _POOL_SIZE), dtype=np.uint32)
    state = _hash(pool, consts[:-1], consts[1:]).astype(np.uint64)
    return state[:, 0::2] | state[:, 1::2] << 32


def rekey(rng: np.random.Generator, key) -> np.random.Generator:
    """``rng`` pointed at the start of the Philox stream of ``key``, through
    the documented state setter: counter 0, an empty buffer and no cached
    32-bit half, as a generator freshly made from that key has them.
    Returns ``rng``."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZERO_BLOCK, "key": key},
        "buffer": _ZERO_BLOCK,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


def substream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Return the Philox generator keyed by ``(seed, purpose, *index)``."""
    spawn_key = (purpose, *index)
    key = stream_keys(seed, spawn_key[:-1], spawn_key[-1:])[0]
    return np.random.Generator(np.random.Philox(key=key))


def fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw a uniform permutation of ``0..n-1`` by the Fisher-Yates shuffle.

    Spelled out (rather than delegated to ``Generator.permutation``) so the
    stream consumption is pinned: exactly ``n - 1`` bounded integers, the
    swap partner of position i uniform on ``0..i`` for i = n-1 down to 1.
    The n - 1 bounds are drawn in one call; numpy draws an array of bounded
    integers element by element with Lemire's method, so the permutation and
    the generator's state afterwards equal those of one scalar draw per swap
    (``tests/helpers.py::scalar_fisher_yates`` pins this).
    """
    perm = list(range(n))
    if n > 1:
        partners = rng.integers(0, np.arange(n, 1, -1)).tolist()
        for i, j in zip(range(n - 1, 0, -1), partners):
            perm[i], perm[j] = perm[j], perm[i]
    return np.array(perm, dtype=np.int64)
