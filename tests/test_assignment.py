"""Assignment solver: exactness against brute force and scipy, and the exact
assignment of the scalar shortest-augmenting-path loop, ties included, for
one matrix and for each matrix of a stack."""

import numpy as np
import pytest

from dbdetect.assignment import backend, greedy_max, solve_max
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


def assert_stack_equals_scalar_loop(stack):
    """Each matrix of the stack gets the scalar loop's map, the same map as
    when solved alone, and the value of that map summed in row order, bit
    for bit."""
    sigma, values = solve_max(stack)
    lead, n = stack.shape[:-2], stack.shape[-1]
    assert sigma.shape == lead + (n,)
    assert values.shape == lead
    for idx in np.ndindex(lead):
        expected = scalar_sap_min_assignment(-stack[idx])
        np.testing.assert_array_equal(sigma[idx], expected)
        np.testing.assert_array_equal(solve_max(stack[idx])[0], expected)
        assert values[idx] == stack[idx][np.arange(n), expected].sum()


@pytest.mark.parametrize("n", [2, 5, 12, 31, 60])
def test_stack_of_mixed_kinds_equals_scalar_loop(n):
    """The three kinds in one stack: the tie-heavy ones take other numbers of
    Dijkstra steps than the normal ones, so problems finish their rows and
    leave the working set on different sweeps."""
    rng = np.random.default_rng(100 + n)
    kinds = list(MATRICES.values())
    stack = np.stack([kinds[i % 3](rng, n) for i in range(7)])
    assert_stack_equals_scalar_loop(stack)


@pytest.mark.parametrize("n,d", [(8, 10), (20, 3), (60, 100)])
def test_stack_of_bernoulli_llr_equals_scalar_loop(n, d):
    model = make_bernoulli(0.6, 0.3)
    stack = np.stack([
        pair_llr_matrix(model, pair.x, pair.y)
        for seed in range(4)
        for pair in (sample_null(model, n, d, seed), sample_alt(model, n, d, seed))
    ])
    assert_stack_equals_scalar_loop(stack)


@pytest.mark.parametrize("kind", MATRICES)
def test_stack_of_one_and_one_by_one(kind):
    rng = np.random.default_rng(5)
    for n in (1, 9):
        assert_stack_equals_scalar_loop(MATRICES[kind](rng, n)[None])
    ones = np.stack([MATRICES[kind](rng, 1) for _ in range(5)])
    assert_stack_equals_scalar_loop(ones)


def test_lead_shape_is_kept():
    rng = np.random.default_rng(6)
    kinds = list(MATRICES.values())
    stack = np.stack([kinds[i % 3](rng, 11) for i in range(6)]).reshape(2, 3, 11, 11)
    assert_stack_equals_scalar_loop(stack)


def test_only_solves_the_chosen_matrices():
    """``only`` picks matrices by their position in the flattened lead
    shape, in any order, and each gets the map and value it gets alone,
    bit for bit; an empty pick solves nothing."""
    rng = np.random.default_rng(8)
    kinds = list(MATRICES.values())
    stack = np.stack([kinds[i % 3](rng, 13) for i in range(6)]).reshape(2, 3, 13, 13)
    flat = stack.reshape(6, 13, 13)
    only = np.array([4, 0, 3])
    sigma, values = solve_max(stack, only)
    assert sigma.shape == (3, 13) and values.shape == (3,)
    for k, index in enumerate(only):
        alone_sigma, alone_value = solve_max(flat[index])
        np.testing.assert_array_equal(sigma[k], alone_sigma)
        assert values[k] == alone_value
    sigma, values = solve_max(stack, [])
    assert sigma.shape == (0, 13) and values.shape == (0,)


def test_single_matrix_returns_a_float():
    sigma, value = solve_max(np.array([[2.0, 5.0], [4.0, 1.0]]))
    assert isinstance(value, float)
    assert sigma.shape == (2,)


def test_validation():
    with pytest.raises(ValidationError):
        solve_max(np.zeros((2, 3)))
    with pytest.raises(ValidationError):
        solve_max(np.zeros((4, 2, 3)))
    with pytest.raises(ValidationError):
        solve_max(np.zeros(3))
    with pytest.raises(ValidationError):
        solve_max(np.array([[np.inf, 0.0], [0.0, 1.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entry_in_one_matrix_of_a_stack(bad):
    stack = np.random.default_rng(7).normal(size=(5, 4, 4))
    stack[3, 2, 1] = bad
    with pytest.raises(ValidationError, match="finite"):
        solve_max(stack)


def scalar_greedy(w):
    """Row-order greedy assignment as a plain loop: each row takes the first
    largest weight among the free columns; the value summed in row order,
    and the sum of the rows' largest absolute weights."""
    free = list(range(len(w)))
    value = reach = 0.0
    for row in w.tolist():
        col = max(free, key=lambda j: (row[j], -j))
        free.remove(col)
        value += row[col]
        reach += max(abs(x) for x in row)
    return value, reach


@pytest.mark.parametrize("kind", MATRICES)
def test_greedy_equals_the_scalar_loop_and_bounds_the_maximum(kind):
    """Each matrix's greedy figures are those of the scalar loop bit for
    bit, whatever else its stack holds, and the value is a feasible
    assignment's, so it stays below the optimum."""
    rng = np.random.default_rng(20 + list(MATRICES).index(kind))
    for n in SIZES:
        stack = np.stack([MATRICES[kind](rng, n) for _ in range(5)])
        values, reach = greedy_max(stack)
        expected = np.array([scalar_greedy(w) for w in stack])
        assert values.tolist() == expected[:, 0].tolist()
        assert reach.tolist() == expected[:, 1].tolist()
        alone = [greedy_max(stack[k : k + 1]) for k in range(len(stack))]
        assert [v.item() for v, _ in alone] == values.tolist()
        assert np.all(values <= solve_max(stack)[1] + 1e-9 * reach)


def test_backend_reported():
    assert backend() == "numpy"
