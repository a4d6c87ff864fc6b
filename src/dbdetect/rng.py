"""Deterministic random substreams.

Every stochastic routine in the package derives its generator here, from a
64-bit user seed, a fixed purpose tag, and optional indices (for example a
trial number).  The generator is Philox, a counter-based PRNG, keyed through
``numpy.random.SeedSequence(seed, spawn_key=(purpose, *index))``, so any
substream is a pure function of ``(seed, purpose, index)`` and results never
depend on execution order, thread count, or how many other streams were
drawn before it.
"""

from __future__ import annotations

import numpy as np

# Purpose tags.  These values are part of the reproducibility contract:
# changing them changes every sampled bit.
SAMPLE_NULL = 1
SAMPLE_ALT = 2
RISK_NULL = 3
RISK_ALT = 4
PD_ESTIMATE = 5


def substream(seed: int, purpose: int, *index: int) -> np.random.Generator:
    """Return the Philox generator keyed by ``(seed, purpose, *index)``."""
    seq = np.random.SeedSequence(int(seed), spawn_key=(int(purpose), *map(int, index)))
    return np.random.Generator(np.random.Philox(seq))


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
