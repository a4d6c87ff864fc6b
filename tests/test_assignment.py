"""Assignment solver: exactness against brute force and scipy, and the exact
assignment of the scalar shortest-augmenting-path loop, ties included."""

import numpy as np
import pytest

from dbdetect.assignment import backend, solve_max
from dbdetect.errors import ValidationError
from dbdetect.models import make_bernoulli, pair_llr_matrix, sample_alt, sample_null

from helpers import brute_force_max_assignment, scalar_sap_min_assignment

SIZES = (1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 23, 31, 40, 47, 53, 60)
MATRICES = {
    "normal": lambda rng, n: rng.normal(size=(n, n)) * 10,
    "integers-0-2": lambda rng, n: rng.integers(0, 3, size=(n, n)).astype(float),
    "rounded-0.1": lambda rng, n: np.round(rng.normal(size=(n, n)), 1),
}


def test_two_by_two_example():
    sigma, value = solve_max(np.array([[2.0, 5.0], [4.0, 1.0]]))
    assert value == 9.0
    assert sigma.tolist() == [1, 0]


def test_single_entry():
    sigma, value = solve_max(np.array([[3.5]]))
    assert value == 3.5
    assert sigma.tolist() == [0]


@pytest.mark.parametrize("trial", range(40))
def test_matches_factorial_brute_force(trial):
    rng = np.random.default_rng(1000 + trial)
    n = int(rng.integers(1, 8))
    w = rng.normal(size=(n, n)) * 10
    sigma, value = solve_max(w)
    _, expected = brute_force_max_assignment(w)
    assert value == pytest.approx(expected, abs=1e-9)
    # the returned permutation realises the optimal value
    assert w[np.arange(n), sigma].sum() == pytest.approx(value, abs=0)


def test_handles_ties():
    w = np.ones((4, 4))
    sigma, value = solve_max(w)
    assert value == 4.0
    assert sorted(sigma.tolist()) == [0, 1, 2, 3]


def test_matches_scipy_on_larger_instances():
    scipy_opt = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(7)
    for n in (20, 50, 80):
        w = rng.normal(size=(n, n))
        _, value = solve_max(w)
        rows, cols = scipy_opt.linear_sum_assignment(w, maximize=True)
        assert value == pytest.approx(float(w[rows, cols].sum()), rel=1e-12)


@pytest.mark.parametrize("kind", MATRICES)
def test_row_to_col_equals_scalar_loop(kind):
    """Same map as the scalar loop, not merely the same optimum: on
    tie-heavy matrices many assignments are optimal, and the scan detector
    reports the one the loop picks as ``aux.sigma``."""
    rng = np.random.default_rng(list(MATRICES).index(kind))
    for n in SIZES:
        for _ in range(2):
            w = MATRICES[kind](rng, n)
            sigma, _ = solve_max(w)
            np.testing.assert_array_equal(sigma, scalar_sap_min_assignment(-w))


@pytest.mark.parametrize("n,d", [(1, 3), (8, 10), (20, 3), (60, 100)])
def test_row_to_col_equals_scalar_loop_on_bernoulli_llr(n, d):
    """The discrete LLR matrices of the scan detector take few distinct
    values, so ties are the rule there."""
    model = make_bernoulli(0.6, 0.3)
    for seed in range(4):
        for pair in (sample_null(model, n, d, seed), sample_alt(model, n, d, seed)):
            c = pair_llr_matrix(model, pair.x, pair.y)
            sigma, _ = solve_max(c)
            np.testing.assert_array_equal(sigma, scalar_sap_min_assignment(-c))


def test_validation():
    with pytest.raises(ValidationError):
        solve_max(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        solve_max(np.array([[np.inf, 0.0], [0.0, 1.0]]))


def test_backend_reported():
    assert backend() == "numpy"
