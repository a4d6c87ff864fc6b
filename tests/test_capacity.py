"""Capacity guards refuse before they allocate: each raises ``CapacityError``
within a second, with a traced peak below 1 MiB."""

import functools
import time
import tracemalloc

import numpy as np
import pytest

from dbdetect.detectors import NP_ORACLE_MAX_N, PreparedNpOracle, _exact_pd
from dbdetect.errors import CapacityError
from dbdetect.experiments import exact_tv_small
from dbdetect.spectral import gaussian_profile, second_moment_exact

from helpers import diag_model, random_discrete_model


def wide_law():
    """A random 46-symbol law: 1,081 distinct LLR atoms."""
    return random_discrete_model(np.random.default_rng(46), 46)


# each entry does its set-up (models, profiles) and returns the guarded call
GUARDED = {
    # C(1083, 3) = 2.1e8 partial compositions
    "exact-pd-wide-law": lambda: functools.partial(_exact_pd, wide_law(), 2, 0.0),
    # the 6-symbol law of TestCountPlan::test_capacity_guard
    "exact-pd-d64": lambda: functools.partial(
        _exact_pd, random_discrete_model(np.random.default_rng(0), 6), 64, 0.0
    ),
    # 2.76 M eigenvalues: n (n + L) = 2.8e10 steps
    "second-moment": lambda: functools.partial(
        second_moment_exact, gaussian_profile(0.99999), 10_000, 1
    ),
    # 2.76e8 eigenvalues, 2.2 GB
    "gaussian-profile": lambda: functools.partial(gaussian_profile, 1.0 - 1e-7),
    "exact-tv-states": lambda: functools.partial(exact_tv_small, diag_model(), 4, 4),
    "exact-tv-n": lambda: functools.partial(exact_tv_small, diag_model(), 9, 1),
    "np-oracle": lambda: functools.partial(
        PreparedNpOracle, diag_model(), NP_ORACLE_MAX_N + 1, 1
    ),
}


@pytest.mark.parametrize("case", GUARDED)
def test_refuses_before_allocating(case):
    call = GUARDED[case]()
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(CapacityError):
            call()
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 1 << 20
