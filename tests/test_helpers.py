"""The exact sum-test risk oracle of helpers.py, pinned to closed forms."""

import math

import numpy as np
import pytest

from helpers import chi2_difference_sf, sum_test_exact_risk


def _risk_d2(rho: float) -> float:
    """R(2, rho) in closed form: chi-square(2) is exponential with mean 2, so
    both error rates are tails of a difference of two exponentials."""
    return 0.5 * math.exp(-rho) + 1.0 - 0.5 * (1.0 + rho) * math.exp(-rho / (1.0 + rho))


def test_d2_matches_closed_form():
    floor = 1.0 + math.exp(-1.0) / 2.0 - math.exp(-0.5)
    for rho in np.linspace(0.0, 0.99, 23):
        exact = sum_test_exact_risk(2, float(rho))
        assert abs(exact - _risk_d2(float(rho))) <= 1e-10
        assert exact > floor


@pytest.mark.parametrize("d", (1, 2, 10, 100))
def test_rho_zero_is_a_coin_flip(d):
    assert chi2_difference_sf(0.5, 0.5, 0.0, d) == pytest.approx(0.5, abs=1e-12)
    assert sum_test_exact_risk(d, 0.0) == 1.0


@pytest.mark.parametrize("d", (1, 10, 100))
@pytest.mark.parametrize("t", (0.5, 5.0, 58.2))
def test_reflection_identity(d, t):
    """P[aA - aB >= -t] = 1 - P[aA - aB >= t], A and B being exchangeable.
    The two sides integrate different ranges of B; 1e-14 is a few units of
    the error scipy's chi-square functions carry (both sides sat 2e-15 below
    a 30-digit mpmath value at d = 1, t = 0.5)."""
    a = 0.475
    left = chi2_difference_sf(a, a, -t, d)
    assert abs(left - (1.0 - chi2_difference_sf(a, a, t, d))) <= 1e-14


def test_far_tail_of_b_is_kept():
    # 1 - P at a = b = 0.475, t = -58.2, d = 100: 4.666530342e-9 by a
    # 30-digit mpmath integral over B's density
    tail = 1.0 - chi2_difference_sf(0.475, 0.475, -58.2, 100)
    assert tail == pytest.approx(4.666530342e-9, rel=1e-6)
