"""Kernel spectra, cycle types, and second-moment machinery."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbdetect.errors import (
    CapacityError,
    DegenerateModelError,
    DomainError,
    InvariantViolationError,
    ValidationError,
)
from dbdetect import spectral
from dbdetect.models import make_bernoulli
from dbdetect.spectral import (
    SpectralProfile,
    eigenvalues,
    gaussian_profile,
    kernel_matrix,
    poisson_moment_bound,
    poisson_surrogate_moment,
    risk_lower_bound_from_moment,
    second_moment_exact,
    strong_lb_fixed_d_threshold,
    weak_lb_statistic,
)

from helpers import (
    bern55,
    brute_force_second_moment,
    cycle_types,
    diag_model,
    independent_model,
    partition_sum_second_moment,
    random_discrete_model,
)


def profile_of(*values):
    return SpectralProfile(eigenvalues=np.array(values, float))


class TestKernelMatrix:
    def test_independent_rows_equal_marginal(self):
        m = independent_model((0.3, 0.7))
        k = kernel_matrix(m)
        np.testing.assert_allclose(k, np.tile(m.marginal, (2, 1)), atol=1e-14)

    def test_bernoulli_example(self):
        k = kernel_matrix(bern55())
        np.testing.assert_allclose(
            k, [[5.0 / 6.0, 1.0 / 6.0], [0.5, 0.5]], atol=1e-14
        )

    def test_diag_example(self):
        np.testing.assert_allclose(
            kernel_matrix(diag_model()), [[0.8, 0.2], [0.2, 0.8]], atol=1e-14
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for m_size in (2, 4, 6):
            k = kernel_matrix(random_discrete_model(rng, m_size))
            np.testing.assert_allclose(k.sum(axis=1), 1.0, atol=1e-12)

    def test_zero_marginal_rejected(self):
        with pytest.raises(DegenerateModelError):
            kernel_matrix(make_bernoulli(0.0, 0.5))


class TestEigenvalues:
    def test_bernoulli_closed_form(self):
        prof = eigenvalues(bern55())
        np.testing.assert_allclose(prof.eigenvalues, [1.0, 1.0 / 3.0], atol=1e-12)

    @given(tau=st.floats(0.05, 0.95), p=st.floats(0.05, 0.95))
    @settings(max_examples=40)
    def test_bernoulli_grid(self, tau, p):
        rho = tau * (1 - p) / (1 - tau * p)
        prof = eigenvalues(make_bernoulli(tau, p))
        np.testing.assert_allclose(prof.eigenvalues, [1.0, rho], atol=1e-12)

    def test_independent_is_rank_one(self):
        prof = eigenvalues(independent_model((0.2, 0.8)))
        np.testing.assert_allclose(prof.eigenvalues, [1.0, 0.0], atol=1e-12)

    def test_diag_example(self):
        np.testing.assert_allclose(
            eigenvalues(diag_model()).eigenvalues, [1.0, 0.6], atol=1e-12
        )

    def test_top_eigenvalue_snapped(self):
        rng = np.random.default_rng(3)
        for m_size in (2, 3, 5, 8):
            prof = eigenvalues(random_discrete_model(rng, m_size))
            assert prof.eigenvalues[0] == 1.0
            assert np.abs(prof.eigenvalues).max() <= 1.0 + 1e-10
            assert prof.eigenvalues.size == m_size


class TestGaussianProfile:
    def test_truncation_length(self):
        # 0.5^40 < 1e-12 <= 0.5^39
        prof = gaussian_profile(0.5)
        assert prof.eigenvalues.size == 41
        np.testing.assert_allclose(prof.eigenvalues[:3], [1.0, 0.5, 0.25], atol=0)

    @pytest.mark.parametrize("rho", [0.5, -0.5, 0.9])
    def test_tail_bounds_the_dropped_series(self, rho):
        prof = gaussian_profile(rho)
        size = prof.eigenvalues.size
        r2 = rho * rho
        assert prof.tail == r2**size / ((1 - r2) * (1 - r2**size))
        dropped = r2 ** np.arange(size, 20 * size)
        series = float(np.sum(dropped / (1 - dropped)))
        assert 0.0 < series <= prof.tail * (1 + 1e-12)
        assert prof.tail < spectral.GAUSSIAN_TRUNCATION_TOL

    def test_exact_profiles_have_no_tail(self):
        assert gaussian_profile(0.0).tail == 0.0
        assert eigenvalues(diag_model()).tail == 0.0

    def test_tail_above_tolerance_is_an_invariant_violation(self, monkeypatch):
        # with tolerance 0.5, rho = 0.9 keeps 8 powers and its tail is 1.19
        monkeypatch.setattr(spectral, "GAUSSIAN_TRUNCATION_TOL", 0.5)
        with pytest.raises(InvariantViolationError, match="truncation tail"):
            gaussian_profile(0.9)

    def test_byte_budget(self, monkeypatch):
        # rho = 0.99 needs 2751 eigenvalues (22,008 bytes), rho = 0.5 needs 41
        monkeypatch.setattr(spectral, "SPECTRUM_MAX_BYTES", 1000)
        with pytest.raises(CapacityError, match="1000-byte budget"):
            gaussian_profile(0.99)
        assert gaussian_profile(0.5).eigenvalues.size == 41

    def test_tiny_rho_is_effectively_only_top(self):
        prof = gaussian_profile(1e-9)
        assert prof.eigenvalues[0] == 1.0
        assert np.abs(prof.eigenvalues[1:]).max() <= 1e-9

    def test_negative_rho_sorted_descending(self):
        prof = gaussian_profile(-0.5)
        lam = prof.eigenvalues
        assert lam[0] == 1.0
        assert np.all(np.diff(lam) <= 0)
        assert (lam < 0).any()
        # same squared content as the positive-rho profile
        pos = gaussian_profile(0.5)
        np.testing.assert_allclose(
            np.sort(lam**2), np.sort(pos.eigenvalues**2), atol=1e-15
        )

    @pytest.mark.parametrize("rho", [1.0, -1.0, 1.2])
    def test_rho_domain(self, rho):
        with pytest.raises(DomainError):
            gaussian_profile(rho)


class TestWeakStatistic:
    def test_bernoulli_value(self):
        rho = 1.0 / 3.0
        assert weak_lb_statistic(profile_of(1.0, rho)) == pytest.approx(
            rho**2 / (1 - rho**2), abs=1e-15
        )
        assert weak_lb_statistic(profile_of(1.0, rho)) == pytest.approx(0.125)

    def test_independence_is_zero(self):
        assert weak_lb_statistic(profile_of(1.0, 0.0, 0.0)) == 0.0

    def test_gaussian_series(self):
        # independent oracle: sum the geometric series until terms vanish
        expected = 0.0
        term_index = 1
        while True:
            t = 0.25**term_index / (1 - 0.25**term_index)
            if t < 1e-18:
                break
            expected += t
            term_index += 1
        assert weak_lb_statistic(gaussian_profile(0.5)) == pytest.approx(
            expected, abs=1e-12
        )

    def test_singular_profile_rejected(self):
        with pytest.raises(DomainError):
            weak_lb_statistic(profile_of(1.0, 1.0))


class TestStrongThreshold:
    def test_gaussian_closed_form(self):
        prof = gaussian_profile(0.1)
        expected = math.log(0.01) / math.log(0.99)
        assert strong_lb_fixed_d_threshold(prof) == pytest.approx(expected, rel=1e-9)
        assert strong_lb_fixed_d_threshold(prof) == pytest.approx(458.21, rel=1e-4)

    def test_bernoulli_closed_form(self):
        rho = 1.0 / 3.0
        expected = math.log(1 / rho**2) / math.log(1 + rho**2)
        assert strong_lb_fixed_d_threshold(profile_of(1.0, rho)) == pytest.approx(
            expected, rel=1e-12
        )

    def test_near_perfect_correlation_leaves_nothing(self):
        assert strong_lb_fixed_d_threshold(profile_of(1.0, 1 - 1e-9)) < 1.0

    def test_independence_rejected(self):
        with pytest.raises(DegenerateModelError):
            strong_lb_fixed_d_threshold(profile_of(1.0, 0.0))

    def test_sign_invariance(self):
        assert strong_lb_fixed_d_threshold(
            profile_of(1.0, -0.4, 0.1)
        ) == pytest.approx(
            strong_lb_fixed_d_threshold(profile_of(1.0, 0.4, 0.1)), rel=1e-14
        )


class TestCycleTypes:
    def test_n1(self):
        types = cycle_types(1)
        assert len(types) == 1
        assert types[0].counts == {1: 1}
        assert types[0].probability == pytest.approx(1.0)

    def test_n2(self):
        probs = {tuple(sorted(t.counts.items())): t.probability for t in cycle_types(2)}
        assert probs[((1, 2),)] == pytest.approx(0.5)
        assert probs[((2, 1),)] == pytest.approx(0.5)

    def test_n3(self):
        probs = {tuple(sorted(t.counts.items())): t.probability for t in cycle_types(3)}
        assert probs[((1, 3),)] == pytest.approx(1.0 / 6.0)
        assert probs[((1, 1), (2, 1))] == pytest.approx(0.5)
        assert probs[((3, 1),)] == pytest.approx(1.0 / 3.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
    def test_probabilities_sum_to_one(self, n):
        assert sum(t.probability for t in cycle_types(n)) == pytest.approx(
            1.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [4, 6, 9])
    def test_expected_cycle_counts(self, n):
        types = cycle_types(n)
        for k in range(1, n + 1):
            expected_nk = sum(t.probability * t.counts.get(k, 0) for t in types)
            assert expected_nk == pytest.approx(1.0 / k, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 61])
    def test_capacity_guard(self, n):
        with pytest.raises(CapacityError):
            cycle_types(n)


class TestSecondMoment:
    def test_independence_is_one(self):
        assert second_moment_exact(profile_of(1.0, 0.0), 5, 3) == 1.0

    def test_s2_example(self):
        assert second_moment_exact(profile_of(1.0, 0.5), 2, 1) == pytest.approx(
            1.3125, abs=1e-12
        )

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_single_row(self, d):
        lam = 0.37
        expected = (1 + lam**2) ** d
        assert second_moment_exact(profile_of(1.0, lam), 1, d) == pytest.approx(
            expected, rel=1e-12
        )

    @pytest.mark.parametrize("n,d", [(2, 1), (2, 2), (3, 1), (3, 2), (4, 1), (4, 2)])
    def test_matches_database_enumeration(self, n, d):
        for model in (diag_model(), bern55()):
            expected = brute_force_second_moment(model, n, d)
            got = second_moment_exact(eigenvalues(model), n, d)
            assert got == pytest.approx(expected, abs=1e-9)

    @given(
        lam=st.floats(0.0, 0.9),
        n=st.integers(1, 12),
        d=st.integers(1, 6),
    )
    @settings(max_examples=50)
    def test_at_least_one(self, lam, n, d):
        value = second_moment_exact(profile_of(1.0, lam), n, d)
        assert value >= 1.0
        if lam == 0.0:
            assert value == 1.0

    def test_overflow_returns_inf(self):
        assert second_moment_exact(profile_of(1.0, 0.999), 60, 10**6) == math.inf

    @pytest.mark.parametrize(
        "values",
        [
            (1.0, 0.5),
            (1.0, 0.6, -0.3),
            (1.0, 0.9, 0.2, 0.1),
            (1.0, -0.95),
            tuple(gaussian_profile(0.5).eigenvalues),
        ],
        ids=["one", "signed", "three", "near-one", "gaussian-0.5"],
    )
    @pytest.mark.parametrize("d", [1, 3, 10])
    def test_matches_partition_sum(self, values, d):
        profile = profile_of(*values)
        for n in range(1, 21):
            expected = partition_sum_second_moment(profile, n, d)
            got = second_moment_exact(profile, n, d)
            assert got == pytest.approx(expected, rel=1e-12), n

    @pytest.mark.parametrize("d", [1, 10])
    def test_large_n_matches_poisson_limit(self, d):
        # the cycle index converges to the Poisson surrogate's product as n grows
        profile = gaussian_profile(0.5)
        got = second_moment_exact(profile, 5000, d)
        assert got == pytest.approx(
            poisson_surrogate_moment(profile, 5000, d), rel=1e-12
        )

    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_is_invalid(self, n):
        with pytest.raises(ValidationError):
            second_moment_exact(profile_of(1.0, 0.5), n, 2)

    def test_capacity_guard(self, monkeypatch):
        """The budget is on the work n (n + L): with a budget of 5 * (5 + 2),
        n = 5 runs over two eigenvalues and n = 6 is refused."""
        monkeypatch.setattr(spectral, "MOMENT_MAX_WORK", 5 * (5 + 2))
        profile = profile_of(1.0, 0.5)
        assert second_moment_exact(profile, 5, 2) >= 1.0
        with pytest.raises(CapacityError, match="needs 48 steps"):
            second_moment_exact(profile, 6, 2)


class TestPoissonSurrogate:
    def test_independence(self):
        assert poisson_surrogate_moment(profile_of(1.0, 0.0), 5, 2) == 1.0

    def test_single_term(self):
        assert poisson_surrogate_moment(profile_of(1.0, 0.5), 1, 1) == pytest.approx(
            math.exp(0.25), rel=1e-12
        )

    def test_monotone_in_m_and_limit(self):
        prof = profile_of(1.0, 0.6, -0.3, 0.1)
        values = [poisson_surrogate_moment(prof, m, 1) for m in range(1, 220)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        sub = np.array([0.6, -0.3, 0.1])
        limit = math.exp(-np.log1p(-(sub**2)).sum())
        assert values[-1] == pytest.approx(limit, abs=1e-6)
        assert values[-1] <= limit * (1 + 1e-12)

    def test_divergence_sentinel(self):
        assert poisson_surrogate_moment(profile_of(1.0, 0.9), 3, 10**5) == math.inf


class TestPoissonMomentBound:
    def test_independence(self):
        assert poisson_moment_bound(profile_of(1.0, 0.0), 4) == 1.0

    def test_bernoulli_example(self):
        rho = 1.0 / 3.0
        got = poisson_moment_bound(profile_of(1.0, rho), 1)
        s = rho**2 / (1 - rho**2)
        expected = math.exp(s + (1 + rho**2) ** (-1) * s**2)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(1.14919, abs=1e-5)

    def test_monotone_in_subdominant_mass(self):
        small = poisson_moment_bound(profile_of(1.0, 0.2), 3)
        large = poisson_moment_bound(profile_of(1.0, 0.4), 3)
        assert large > small


class TestRiskLowerBound:
    def test_exact_weak_impossibility(self):
        assert risk_lower_bound_from_moment(1.0) == 1.0

    def test_s2_example(self):
        assert risk_lower_bound_from_moment(1.3125) == pytest.approx(
            1 - 0.5 * math.sqrt(0.3125), abs=1e-12
        )

    def test_vacuous_clamped(self):
        assert risk_lower_bound_from_moment(5.0) == 0.0
        assert risk_lower_bound_from_moment(math.inf) == 0.0

    def test_broken_moment_rejected(self):
        with pytest.raises(InvariantViolationError):
            risk_lower_bound_from_moment(0.5)


class TestProfileInvariants:
    def test_rejects_bad_top(self):
        with pytest.raises(InvariantViolationError):
            profile_of(0.9, 0.3)

    def test_rejects_modulus_above_one(self):
        with pytest.raises(InvariantViolationError):
            profile_of(1.0, -1.01)

    def test_trace_identity_cross_module(self):
        """Sum of squared eigenvalues equals E_Q[exp(2 LLR)] (the squared
        kernel trace), computed here as a direct exact sum."""
        rng = np.random.default_rng(8)
        for m_size in (2, 3, 5):
            model = random_discrete_model(rng, m_size)
            q = model.marginal
            direct = float(
                sum(
                    q[x] * q[y] * math.exp(2.0 * model.llr_table[x, y])
                    for x in range(m_size)
                    for y in range(m_size)
                )
            )
            lam = eigenvalues(model).eigenvalues
            assert float((lam**2).sum()) == pytest.approx(direct, abs=1e-8)
