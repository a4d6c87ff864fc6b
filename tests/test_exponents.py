"""Log-MGFs, Chernoff exponents, divergences, and the centered kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbdetect import exponents
from dbdetect.cli import main as cli_main
from dbdetect.errors import DomainError
from dbdetect.experiments import bound_report
from dbdetect.exponents import (
    centered_kernel,
    chernoff_exponent,
    kl_divergences,
    llr_atoms,
    psi_p,
    psi_q,
    var_q_centered_kernel,
)
from dbdetect.models import GaussianModel, make_bernoulli

from helpers import (
    bern55,
    diag_model,
    gauss,
    gauss_expect_2d,
    gauss_llr_values,
    independent_model,
    psi_p_gaussian_direct,
    random_discrete_model,
)

ALL_MODELS = lambda: [diag_model(), bern55(), gauss(0.6), gauss(-0.4)]


class TestPsiQ:
    @pytest.mark.parametrize("lam", [0.0, 1.0])
    def test_normalization_identities(self, lam):
        for model in ALL_MODELS():
            assert psi_q(model, lam) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_lam2_is_log_trace(self):
        rho = 0.6
        assert psi_q(gauss(rho), 2.0) == pytest.approx(
            -math.log(1 - rho * rho), abs=1e-12
        )

    @pytest.mark.parametrize("rho", [-0.7, -0.3, 0.2, 0.5, 0.8])
    def test_gaussian_matches_quadrature(self, rho):
        """Closed form against 64-node Gauss-Hermite quadrature on an interior
        lambda grid (80% of the integrability interval)."""
        model = GaussianModel(rho=rho)
        lo = 1.0 - 0.8 * (1.0 / abs(rho))
        hi = 1.0 + 0.8 * (1.0 / abs(rho))
        for lam in np.linspace(lo, hi, 9):
            quad = math.log(
                gauss_expect_2d(
                    lambda x, y: np.exp(lam * gauss_llr_values(rho, x, y))
                )
            )
            assert psi_q(model, lam) == pytest.approx(quad, abs=1e-6)

    def test_gaussian_divergent_domain(self):
        model = gauss(0.5)  # walls at 1 -/+ 2
        with pytest.raises(DomainError):
            psi_q(model, 3.0)
        with pytest.raises(DomainError):
            psi_q(model, -1.0)

    def test_discrete_matches_direct_sum(self):
        rng = np.random.default_rng(4)
        model = random_discrete_model(rng, 3)
        q = model.marginal
        for lam in (-1.5, -0.2, 0.7, 2.3):
            direct = math.log(
                sum(
                    q[x] * q[y] * math.exp(lam * model.llr_table[x, y])
                    for x in range(3)
                    for y in range(3)
                )
            )
            assert psi_q(model, lam) == pytest.approx(direct, abs=1e-12)


class TestPsiP:
    def test_zero(self):
        for model in ALL_MODELS():
            assert psi_p(model, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_shift_to_psi_q_zero(self):
        for model in ALL_MODELS():
            assert psi_p(model, -1.0) == pytest.approx(0.0, abs=1e-9)

    def test_gaussian_example(self):
        assert psi_p(gauss(0.6), 1.0) == pytest.approx(-math.log(0.64), abs=1e-12)

    def test_shift_identity_on_grid(self):
        for model in ALL_MODELS():
            for lam in np.linspace(-2.0, 1.0, 13):
                if isinstance(model, GaussianModel) and abs(lam) >= 1.0 / abs(
                    model.rho
                ):
                    continue
                assert psi_p(model, lam) == pytest.approx(
                    psi_q(model, lam + 1.0), abs=1e-9
                )

    def test_gaussian_direct_form_cross_validation(self):
        for rho in (-0.6, 0.3, 0.8):
            model = GaussianModel(rho=rho)
            for lam in np.linspace(-0.9 / abs(rho), 0.9 / abs(rho), 11):
                assert psi_p(model, lam) == pytest.approx(
                    psi_p_gaussian_direct(rho, lam), abs=1e-9
                )


class TestKLDivergences:
    def test_independent(self):
        div = kl_divergences(independent_model())
        assert div == pytest.approx((0.0, 0.0, 0.0), abs=1e-14)

    def test_gaussian_06(self):
        div = kl_divergences(gauss(0.6))
        assert div.kl_pq == pytest.approx(-0.5 * math.log(0.64), abs=1e-12)
        assert div.kl_qp == pytest.approx(0.5 * math.log(0.64) + 0.5625, abs=1e-12)
        assert div.skl == pytest.approx(0.28125, abs=1e-12)

    @pytest.mark.parametrize("rho", [-0.8, -0.2, 0.3, 0.6, 0.9])
    def test_gaussian_skl_identity(self, rho):
        div = kl_divergences(GaussianModel(rho=rho))
        assert div.skl == pytest.approx(
            rho * rho / (2 * (1 - rho * rho)), abs=1e-12
        )

    def test_discrete_matches_direct_sums(self):
        rng = np.random.default_rng(9)
        model = random_discrete_model(rng, 4)
        q = model.marginal
        kl_pq = sum(
            model.joint[x, y] * model.llr_table[x, y] for x in range(4) for y in range(4)
        )
        kl_qp = -sum(
            q[x] * q[y] * model.llr_table[x, y] for x in range(4) for y in range(4)
        )
        div = kl_divergences(model)
        assert div.kl_pq == pytest.approx(kl_pq, abs=1e-12)
        assert div.kl_qp == pytest.approx(kl_qp, abs=1e-12)


class TestChernoffExponents:
    def test_endpoint_values_are_zero(self):
        for model in ALL_MODELS():
            div = kl_divergences(model)
            eps = 1e-9
            assert chernoff_exponent(model, -div.kl_qp + eps).e_q == pytest.approx(
                0.0, abs=1e-6
            )
            assert chernoff_exponent(model, div.kl_pq - eps).e_p == pytest.approx(
                0.0, abs=1e-6
            )

    def test_exact_endpoints_allowed(self):
        for model in ALL_MODELS():
            div = kl_divergences(model)
            assert chernoff_exponent(model, -div.kl_qp).e_q == pytest.approx(
                0.0, abs=1e-9
            )
            assert chernoff_exponent(model, div.kl_pq).e_p == pytest.approx(
                0.0, abs=1e-9
            )

    def test_eq_at_kl_pq(self):
        for model in ALL_MODELS():
            div = kl_divergences(model)
            assert chernoff_exponent(model, div.kl_pq).e_q == pytest.approx(
                div.kl_pq, abs=1e-6
            )

    def test_ep_identity_on_grid(self):
        for model in ALL_MODELS():
            div = kl_divergences(model)
            for theta in np.linspace(-div.kl_qp, div.kl_pq, 9):
                result = chernoff_exponent(model, theta)
                assert result.e_p == pytest.approx(result.e_q - theta, abs=1e-6)

    def test_gaussian_zero_witness(self):
        rho = 0.6
        witness = -0.25 * math.log(1 - rho * rho) + 0.5 * math.log(1 - rho * rho / 4)
        result = chernoff_exponent(gauss(rho), 0.0)
        assert result.e_q >= witness - 1e-12
        assert result.e_q == pytest.approx(0.06508, abs=5e-5)

    def test_convexity_midpoints(self):
        for model in ALL_MODELS():
            div = kl_divergences(model)
            thetas = np.linspace(-div.kl_qp, div.kl_pq, 7)
            values = [chernoff_exponent(model, t).e_q for t in thetas]
            for i in range(1, len(thetas) - 1):
                mid = 0.5 * (values[i - 1] + values[i + 1])
                assert values[i] <= mid + 1e-9

    def test_nonnegative_and_metadata(self):
        result = chernoff_exponent(diag_model(), 0.05)
        assert result.e_q >= 0.0
        assert result.e_p >= 0.0
        assert result.iterations > 0
        assert result.theta == 0.05

    def test_theta_outside_interval(self):
        div = kl_divergences(diag_model())
        with pytest.raises(DomainError):
            chernoff_exponent(diag_model(), div.kl_pq + 0.1)
        with pytest.raises(DomainError):
            chernoff_exponent(diag_model(), -div.kl_qp - 0.1)

    def test_e_p_is_e_q_shifted_exactly(self):
        """Inside the interval E_P = E_Q - theta bit for bit, and the
        maximiser of E_Q's objective lies in [0, 1]: E_P's (one below it)
        in [-1, 0]."""
        for model in ALL_MODELS() + [gauss(0.999999)]:
            div = kl_divergences(model)
            for theta in np.linspace(-div.kl_qp, div.kl_pq, 9)[1:-1]:
                result = chernoff_exponent(model, theta)
                assert result.e_p == result.e_q - theta
                assert 0.0 <= result.argmax_lambda <= 1.0

    def test_one_search_per_level(self, monkeypatch, tmp_path, capsys):
        """A level costs one golden-section search, for both exponents: one
        per call, three per Gaussian bound report (scan level, count level,
        theta = 0), two per Bernoulli one, and one per theta in
        ``dbdetect chernoff``."""
        calls = []
        search = exponents._golden_max
        monkeypatch.setattr(
            exponents, "_golden_max", lambda *a, **k: calls.append(1) or search(*a, **k)
        )

        def searches(run):
            calls.clear()
            run()
            return len(calls)

        for model in ALL_MODELS():
            assert searches(lambda: chernoff_exponent(model, 0.0)) == 1
        assert searches(lambda: bound_report(gauss(0.5), 10, 5)) == 3
        assert searches(lambda: bound_report(make_bernoulli(0.6, 0.3), 10, 5)) == 2
        path = tmp_path / "model.txt"
        path.write_text("kind = gaussian\nrho = 0.5\n")
        run = ["chernoff", "--model", str(path), "--theta-points", "5"]
        assert searches(lambda: cli_main(run)) == 5
        assert searches(lambda: cli_main([*run[:3], "--thetas", "0,0.01"])) == 2
        capsys.readouterr()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "model",
        [
            pytest.param(gauss(rho), id=f"gauss{rho}")
            for rho in (0.05, -0.05, 0.5, -0.5, 0.95, -0.95, 0.999999)
        ]
        + [
            pytest.param(diag_model(), id="diag"),
            pytest.param(random_discrete_model(np.random.default_rng(13), 3), id="random3"),
        ],
    )
    def test_matches_bounded_scipy_search(self, model):
        """Both exponents agree within 1e-9 with scipy's bounded minimiser on
        [-2, 3], at both ends of the theta interval and inside it."""
        div = kl_divergences(model)
        for theta in (-div.kl_qp, -0.5 * div.kl_qp, 0.0, 0.5 * div.kl_pq, div.kl_pq):
            result = chernoff_exponent(model, theta)
            for side, value in (("Q", result.e_q), ("P", result.e_p)):
                assert value == pytest.approx(
                    bounded_legendre_transform(model, theta, side), rel=1e-9, abs=1e-9
                )


def bounded_legendre_transform(model, theta: float, side: str) -> float:
    """sup_lam (lam * theta - psi(lam)) by scipy's bounded scalar minimiser on
    [-2, 3], cut to the log-MGF's domain for Gaussian models.  psi_p comes
    from its direct form (Gaussian) or the joint-law sum (discrete), not from
    the tilt identity."""
    from scipy.optimize import minimize_scalar

    lo, hi = -2.0, 3.0
    if isinstance(model, GaussianModel):
        centre = 1.0 if side == "Q" else 0.0
        half_width = (1.0 - 1e-9) / abs(model.rho)
        lo, hi = max(lo, centre - half_width), min(hi, centre + half_width)
        if side == "Q":
            psi = lambda lam: psi_q(model, lam)
        else:
            psi = lambda lam: psi_p_gaussian_direct(model.rho, lam)
    else:
        q = model.marginal
        weights = np.outer(q, q) if side == "Q" else model.joint
        mask = weights > 0
        psi = lambda lam: math.log(
            float(np.sum(weights[mask] * np.exp(lam * model.llr_table[mask])))
        )
    result = minimize_scalar(
        lambda lam: psi(lam) - lam * theta,
        bounds=(lo, hi),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return max(0.0, -float(result.fun))


class TestCenteredKernel:
    def test_gaussian_closed_form(self):
        assert centered_kernel(gauss(0.6), 1.0, 1.0) == pytest.approx(
            0.9375, abs=1e-12
        )

    def test_gaussian_matches_definition_by_quadrature(self):
        """The product form rho/(1-rho^2) x y equals the centered LLR
        (conditional means and KL constant subtracted), checked pointwise with
        quadrature centerings."""
        rho = 0.45
        div_qp = kl_divergences(gauss(rho)).kl_qp
        x0, y0 = 0.7, -1.3
        e_a = gauss_expect_2d(lambda a, _: gauss_llr_values(rho, a, y0))
        e_b = gauss_expect_2d(lambda b, _: gauss_llr_values(rho, x0, b))
        direct = gauss_llr_values(rho, x0, y0) - e_a - e_b - div_qp
        assert centered_kernel(gauss(rho), x0, y0) == pytest.approx(direct, abs=1e-9)

    def test_null_mean_zero_discrete_exact(self):
        rng = np.random.default_rng(14)
        for m_size in (2, 3, 5):
            model = random_discrete_model(rng, m_size)
            q = model.marginal
            mean = sum(
                q[x] * q[y] * centered_kernel(model, x, y)
                for x in range(m_size)
                for y in range(m_size)
            )
            assert mean == pytest.approx(0.0, abs=1e-12)

    def test_null_mean_zero_gaussian_quadrature(self):
        rho = 0.6
        mean = gauss_expect_2d(
            lambda x, y: rho / (1 - rho * rho) * x * y
        )
        assert mean == pytest.approx(0.0, abs=1e-12)

    def test_independent_model_vanishes(self):
        model = independent_model()
        for x in (0, 1):
            for y in (0, 1):
                assert centered_kernel(model, x, y) == pytest.approx(0.0, abs=1e-12)


class TestVarQCenteredKernel:
    def test_gaussian(self):
        assert var_q_centered_kernel(gauss(0.6)) == pytest.approx(
            0.36 / 0.4096, abs=1e-12
        )

    def test_independent(self):
        assert var_q_centered_kernel(independent_model()) == pytest.approx(
            0.0, abs=1e-14
        )

    def test_diag_brute_force(self):
        model = diag_model()
        q = model.marginal
        expected = sum(
            q[x] * q[y] * centered_kernel(model, x, y) ** 2
            for x in range(2)
            for y in range(2)
        )
        assert var_q_centered_kernel(model) == pytest.approx(expected, abs=1e-12)


class TestLLRAtoms:
    def test_diag_atoms(self):
        atoms = llr_atoms(diag_model())
        assert len(atoms) == 2
        order = np.argsort(atoms.values)
        np.testing.assert_allclose(
            atoms.values[order], [math.log(0.4), math.log(1.6)], atol=1e-12
        )
        np.testing.assert_allclose(atoms.q_probs[order], [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(atoms.p_probs[order], [0.2, 0.8], atol=1e-12)

    def test_independent_single_atom(self):
        atoms = llr_atoms(independent_model())
        assert len(atoms) == 1
        assert atoms.values[0] == pytest.approx(0.0, abs=1e-14)
        assert atoms.q_probs[0] == pytest.approx(1.0, abs=1e-14)
        assert atoms.p_probs[0] == pytest.approx(1.0, abs=1e-14)

    def test_bernoulli_three_values(self):
        atoms = llr_atoms(bern55())
        assert len(atoms) == 3

    @given(st.integers(0, 10_000))
    @settings(max_examples=30)
    def test_atom_identities(self, seed):
        rng = np.random.default_rng(seed)
        model = random_discrete_model(rng, int(rng.integers(2, 6)))
        atoms = llr_atoms(model)
        assert atoms.q_probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert atoms.p_probs.sum() == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(
            atoms.p_probs, atoms.q_probs * np.exp(atoms.values), atol=1e-10
        )
