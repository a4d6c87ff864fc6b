"""Model construction, likelihood ratios, and samplers."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbdetect.errors import DegenerateModelError, DomainError, ValidationError
from dbdetect.exponents import centered_kernel
from dbdetect.models import (
    DatabasePair,
    DiscreteJointModel,
    GaussianModel,
    llr,
    make_bernoulli,
    pair_llr,
    pair_llr_matrix,
    pearson_rho,
    sample_alt,
    sample_alt_rng,
    sample_null,
    sample_null_rng,
)

from helpers import (
    BAD_OBSERVATIONS,
    bad_observation,
    bern55,
    diag_model,
    gauss,
    gauss_expect_2d,
    gauss_llr_values,
    gaussian_pair_llr_matrix,
    independent_model,
    one_hot_pair_llr_matrix,
    random_discrete_model,
    searchsorted_sample,
    with_bad_entry,
)


class TestMakeBernoulli:
    def test_halfhalf_joint(self):
        m = bern55()
        expected = np.array([[0.625, 0.125], [0.125, 0.125]])
        np.testing.assert_allclose(m.joint, expected, atol=1e-15)

    def test_tau_zero_degenerates_x_column(self):
        m = make_bernoulli(0.0, 0.5)
        np.testing.assert_allclose(m.joint, [[1.0, 0.0], [0.0, 0.0]], atol=0)
        assert not m.positive_marginal

    def test_tau_one_is_perfect_correlation(self):
        m = make_bernoulli(1.0, 0.5)
        assert m.joint[1, 1] == pytest.approx(0.5, abs=1e-15)
        assert m.joint[0, 1] == 0.0 and m.joint[1, 0] == 0.0
        assert not m.mutually_absolutely_continuous

    @pytest.mark.parametrize("tau,p", [(-0.1, 0.5), (1.1, 0.5), (0.5, 0.0), (0.5, 1.0)])
    def test_out_of_range_names_parameter(self, tau, p):
        with pytest.raises(ValidationError, match="tau|p"):
            make_bernoulli(tau, p)

    @given(
        tau=st.floats(0.05, 0.95),
        p=st.floats(0.05, 0.95),
    )
    @settings(max_examples=60)
    def test_invariant_suite_on_grid(self, tau, p):
        m = make_bernoulli(tau, p)
        assert m.joint.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(m.joint, m.joint.T, atol=1e-15)
        np.testing.assert_allclose(m.joint.sum(axis=1), m.marginal, atol=1e-12)
        np.testing.assert_allclose(m.joint.sum(axis=0), m.marginal, atol=1e-12)
        assert m.mutually_absolutely_continuous


class TestModelValidation:
    def test_rejects_asymmetric(self):
        with pytest.raises(ValidationError, match="symmetric"):
            DiscreteJointModel(joint=np.array([[0.5, 0.3], [0.1, 0.1]]))

    def test_rejects_bad_total(self):
        with pytest.raises(ValidationError, match="sum to 1"):
            DiscreteJointModel(joint=np.array([[0.5, 0.1], [0.1, 0.5]]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match=">= 0"):
            DiscreteJointModel(joint=np.array([[0.6, -0.05], [-0.05, 0.5]]))

    @pytest.mark.parametrize("rho", [0.0, 1.0, -1.0, 1.5, float("nan")])
    def test_gaussian_rho_domain(self, rho):
        with pytest.raises(ValidationError, match="rho"):
            GaussianModel(rho=rho)


class TestPearsonRho:
    def test_bernoulli_formula(self):
        assert pearson_rho(bern55()) == pytest.approx(1.0 / 3.0, abs=1e-14)

    @given(tau=st.floats(0.05, 0.95), p=st.floats(0.05, 0.95))
    @settings(max_examples=40)
    def test_bernoulli_formula_grid(self, tau, p):
        expected = tau * (1 - p) / (1 - tau * p)
        assert pearson_rho(make_bernoulli(tau, p)) == pytest.approx(expected, abs=1e-12)

    def test_independent_is_zero(self):
        assert pearson_rho(independent_model()) == pytest.approx(0.0, abs=1e-14)

    def test_perfect_correlation(self):
        assert pearson_rho(make_bernoulli(1.0, 0.5)) == pytest.approx(1.0, abs=1e-14)

    def test_zero_variance_errors(self):
        with pytest.raises(DegenerateModelError):
            pearson_rho(make_bernoulli(0.0, 0.5))


class TestLLR:
    def test_gaussian_origin(self):
        assert llr(gauss(0.6), 0.0, 0.0) == pytest.approx(
            -0.5 * math.log(0.64), abs=1e-12
        )

    def test_independent_model_is_zero(self):
        m = independent_model()
        for x in (0, 1):
            for y in (0, 1):
                assert llr(m, x, y) == pytest.approx(0.0, abs=1e-14)

    def test_diag_example(self):
        assert llr(diag_model(), 0, 0) == pytest.approx(math.log(1.6), abs=1e-12)

    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize(
        "entry,shape",
        [(llr, ()), (centered_kernel, ()), (pair_llr, (3,)), (pair_llr_matrix, (4, 3))],
        ids=["llr", "centered_kernel", "pair_llr", "pair_llr_matrix"],
    )
    @pytest.mark.parametrize("case", list(BAD_OBSERVATIONS))
    def test_outside_support(self, case, entry, shape, side):
        """A value outside the model's observation contract, on either side,
        raises the contract's one DomainError from every entry point."""
        model, bad, message = bad_observation(case)
        data = {"x": np.zeros(shape), "y": np.zeros(shape)}
        data[side] = bad if shape == () else with_bad_entry(bad, shape)
        with pytest.raises(DomainError) as err:
            entry(model, data["x"], data["y"])
        assert str(err.value) == message

    def test_zero_probability_cell(self):
        with pytest.raises(DomainError, match="zero-probability cell"):
            llr(make_bernoulli(1.0, 0.5), 0, 1)

    def test_normalization_discrete_exact(self):
        rng = np.random.default_rng(5)
        for m_size in (2, 3, 5):
            model = random_discrete_model(rng, m_size)
            q = model.marginal
            total = sum(
                q[x] * q[y] * math.exp(llr(model, x, y))
                for x in range(m_size)
                for y in range(m_size)
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("rho", [-0.8, -0.3, 0.2, 0.6, 0.8])
    def test_normalization_gaussian_quadrature(self, rho):
        total = gauss_expect_2d(lambda x, y: np.exp(gauss_llr_values(rho, x, y)))
        assert total == pytest.approx(1.0, abs=1e-9)


class TestPairLLR:
    def test_single_feature_reduces_to_llr(self):
        m = diag_model()
        assert pair_llr(m, [1], [0]) == pytest.approx(llr(m, 1, 0), abs=0)

    def test_independent_rows_are_zero(self):
        m = independent_model()
        assert pair_llr(m, [0, 1, 1], [1, 0, 1]) == pytest.approx(0.0, abs=1e-14)

    def test_two_atom_sum(self):
        m = diag_model()
        expected = math.log(1.6) + math.log(0.4)
        assert pair_llr(m, [0, 0], [0, 1]) == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValidationError, match="equal length"):
            pair_llr(diag_model(), [0, 1], [0])

    def test_matrix_matches_scalar(self):
        rng = np.random.default_rng(11)
        model = gauss(0.45)
        x = rng.standard_normal((4, 3))
        y = rng.standard_normal((5, 3))
        c = pair_llr_matrix(model, x, y)
        for i in range(4):
            for j in range(5):
                assert c[i, j] == pytest.approx(pair_llr(model, x[i], y[j]), rel=1e-12)

    @pytest.mark.parametrize("rho", [-0.9, -0.3, 0.25, 0.5, 0.75, 0.95])
    def test_gaussian_matrix_bits(self, rho):
        """The Gaussian matrix keeps its operation order, bit for bit."""
        rng = np.random.default_rng(17)
        for n, d in [(1, 1), (7, 3), (100, 10), (100, 100), (50, 333)]:
            x = rng.standard_normal((n, d))
            y = rng.standard_normal((n, d))
            c = pair_llr_matrix(gauss(rho), x, y)
            assert np.array_equal(c, gaussian_pair_llr_matrix(rho, x, y))

    @pytest.mark.parametrize("rho", [0.05, 0.5, 0.95, -0.3])
    @pytest.mark.parametrize("d", [2, 10, 100])
    def test_in_place_gaussian_llr_bits(self, rho, d):
        """The LLR built in place on the matrix product has the bits of the
        out-of-place expression, for one pair and for a stack of three."""
        rng = np.random.default_rng(d)
        x = rng.standard_normal((3, 100, d))
        y = rng.standard_normal((3, 100, d))
        stack = pair_llr_matrix(gauss(rho), x, y)
        for k in range(3):
            expected = gaussian_pair_llr_matrix(rho, x[k], y[k])
            assert np.array_equal(pair_llr_matrix(gauss(rho), x[k], y[k]), expected)
            assert np.array_equal(stack[k], expected)

    def test_matrix_matches_scalar_discrete(self):
        rng = np.random.default_rng(12)
        model = diag_model()
        x = rng.integers(0, 2, size=(5, 4))
        y = rng.integers(0, 2, size=(5, 4))
        c = pair_llr_matrix(model, x, y)
        for i in range(5):
            for j in range(5):
                assert c[i, j] == pytest.approx(pair_llr(model, x[i], y[j]), rel=1e-12)


class TestSampleNull:
    def test_deterministic(self):
        m = gauss(0.3)
        a = sample_null(m, 3, 2, seed=7)
        b = sample_null(m, 3, 2, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        assert a.hidden_sigma is None

    def test_bernoulli_mean_concentrates(self):
        m = bern55()
        pair = sample_null(m, 10_000, 1, seed=3)
        p1 = 0.25  # marginal mass on symbol 1: tau * p
        sd = math.sqrt(p1 * (1 - p1) / 10_000)
        assert abs(pair.x.mean() - p1) < 4 * sd

    def test_gaussian_null_uncorrelated(self):
        pair = sample_null(gauss(0.9), 10_000, 1, seed=9)
        r = np.corrcoef(pair.x[:, 0], pair.y[:, 0])[0, 1]
        assert abs(r) < 4 / math.sqrt(10_000)

    def test_dimension_validation(self):
        with pytest.raises(ValidationError):
            sample_null(gauss(0.5), 0, 3, seed=1)


class TestSampleAlt:
    def test_n1_identity(self):
        pair = sample_alt(gauss(0.8), 1, 4, seed=2)
        np.testing.assert_array_equal(pair.hidden_sigma, [0])

    def test_gaussian_identity_sigma_correlation(self):
        n = 10_000
        pair = sample_alt(gauss(0.8), n, 1, seed=21, sigma=np.arange(n))
        r = np.corrcoef(pair.x[:, 0], pair.y[:, 0])[0, 1]
        # Fisher-z standard error
        assert abs(r - 0.8) < 4 * (1 - 0.64) / math.sqrt(n)

    def test_marginal_of_y_unchanged(self):
        m = diag_model()
        pair = sample_alt(m, 8_000, 1, seed=4)
        freq1 = (pair.y == 1).mean()
        sd = math.sqrt(0.5 * 0.5 / 8_000)
        assert abs(freq1 - 0.5) < 4 * sd

    def test_sigma_recorded_and_valid(self):
        pair = sample_alt(diag_model(), 6, 2, seed=5)
        assert sorted(pair.hidden_sigma.tolist()) == list(range(6))

    def test_invalid_sigma(self):
        with pytest.raises(ValidationError, match="permutation"):
            sample_alt(diag_model(), 3, 1, seed=1, sigma=[0, 0, 2])

    def test_resorted_rows_match_identity_law(self):
        """Undoing sigma recovers i.i.d. joint pairs: first two moments agree
        with an identity-sigma sample within 4 combined standard errors."""
        m = gauss(0.6)
        n = 20_000
        shuffled = sample_alt(m, n, 1, seed=31)
        aligned_y = shuffled.y[shuffled.hidden_sigma]
        products_a = shuffled.x[:, 0] * aligned_y[:, 0]
        reference = sample_alt(m, n, 1, seed=32, sigma=np.arange(n))
        products_b = reference.x[:, 0] * reference.y[:, 0]
        for a, b in [
            (shuffled.x[:, 0], reference.x[:, 0]),
            (aligned_y[:, 0], reference.y[:, 0]),
            (products_a, products_b),
        ]:
            se = math.sqrt(a.var() / n + b.var() / n)
            assert abs(a.mean() - b.mean()) < 4 * se

    def test_deterministic_given_seed_and_sigma(self):
        m = bern55()
        a = sample_alt(m, 5, 3, seed=77)
        b = sample_alt(m, 5, 3, seed=77)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.hidden_sigma, b.hidden_sigma)


class TestDatabasePair:
    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            DatabasePair(x=np.zeros((2, 2)), y=np.zeros((3, 2)))

    def test_dims(self):
        pair = DatabasePair(x=np.zeros((4, 3)), y=np.ones((4, 3)))
        assert (pair.n, pair.d) == (4, 3)


# discrete laws on 1 to 4 symbols, which the kernels run through one code
# path; the samplers also take laws with a symbol of zero mass
POSITIVE_LAWS = {
    "m1": lambda: DiscreteJointModel(joint=[[1.0]]),
    "bernoulli": lambda: make_bernoulli(0.6, 0.3),
    "diag": diag_model,
    "m3": lambda: random_discrete_model(np.random.default_rng(3), 3),
    "m4": lambda: random_discrete_model(np.random.default_rng(4), 4),
}
ZERO_MASS_LAWS = {
    "zero-middle": lambda: DiscreteJointModel(
        joint=[[0.4, 0.0, 0.1], [0.0, 0.0, 0.0], [0.1, 0.0, 0.4]]
    ),
    "zero-first": lambda: DiscreteJointModel(
        joint=[[0.0, 0.0, 0.0], [0.0, 0.3, 0.2], [0.0, 0.2, 0.3]]
    ),
    "zero-last": lambda: DiscreteJointModel(
        joint=[[0.25, 0.1, 0.0], [0.1, 0.55, 0.0], [0.0, 0.0, 0.0]]
    ),
}
SIZES = [(n, d) for n in (1, 8, 100) for d in (1, 10, 100)]


class TestDiscreteKernelOracles:
    """The discrete samplers and LLR matrix against the expressions they
    replaced (``helpers``): the same bytes, and the same generator state
    after a draw."""

    @pytest.mark.parametrize("hypothesis", ["null", "alt"])
    @pytest.mark.parametrize("law", sorted({**POSITIVE_LAWS, **ZERO_MASS_LAWS}))
    def test_samplers_match_searchsorted_draws(self, law, hypothesis):
        model = {**POSITIVE_LAWS, **ZERO_MASS_LAWS}[law]()
        sampler = sample_null_rng if hypothesis == "null" else sample_alt_rng
        for seed, (n, d) in enumerate(SIZES):
            rng, oracle_rng = (np.random.default_rng(seed) for _ in range(2))
            pair = sampler(model, n, d, rng)
            x, y, sigma = searchsorted_sample(model, n, d, oracle_rng, hypothesis)
            for got, expected in ((pair.x, x), (pair.y, y)):
                assert got.dtype == np.int64 and got.shape == (n, d)
                assert got.tobytes() == expected.tobytes()
            if sigma is None:
                assert pair.hidden_sigma is None
            else:
                assert np.array_equal(pair.hidden_sigma, sigma)
            assert rng.random(4).tobytes() == oracle_rng.random(4).tobytes()

    @pytest.mark.parametrize("law", sorted(POSITIVE_LAWS))
    def test_llr_matrix_matches_one_hot_products(self, law):
        model = POSITIVE_LAWS[law]()
        m = model.alphabet_size
        rng = np.random.default_rng(m)
        shapes = [((n, d), (n, d)) for n, d in SIZES]
        shapes += [((k, n, d), (k, n, d)) for k in (1, 3) for n, d in SIZES]
        shapes += [((4, 10), (7, 10)), ((2, 5, 3), (2, 6, 3))]
        for x_shape, y_shape in shapes:
            x = rng.integers(0, m, size=x_shape)
            y = rng.integers(0, m, size=y_shape)
            got = pair_llr_matrix(model, x, y)
            assert got.tobytes() == one_hot_pair_llr_matrix(model, x, y).tobytes()
        # rows of one symbol only: every other count is zero
        for a in range(m):
            x = np.full((6, 9), a)
            y = rng.integers(0, m, size=(6, 9))
            for pair in ((x, y), (y, x)):
                got = pair_llr_matrix(model, *pair)
                assert got.tobytes() == one_hot_pair_llr_matrix(model, *pair).tobytes()
