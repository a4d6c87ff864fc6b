"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 6 is a trend-level check of the Monte-Carlo risk curves across the
correlation grid, at the stated tolerances, with the detector conventions
frozen elsewhere in the package (sum-test threshold d*n*skl, count-test level
chosen per feature count as documented below).  Its two weak-signal sum-test
clauses (rho = 0.05 for every d, and every grid point at d = 2) are checked
against the exact law of the sum statistic, ``helpers.sum_test_exact_risk``:
with u_k, v_k the column sums over sqrt(n), standard normal with correlation
0 or rho, the test decides sum_k u_k v_k >= d rho/2, and
u v = (1+rho)/2 A - (1-rho)/2 B with A, B independent chi-square(1), so the
risk R(d, rho) does not depend on n.  R(100, 0.05) = 0.803, and R(2, rho)
falls from 0.975 at rho = 0.05 to 0.594 at rho = 0.95 (always above
1 + exp(-1)/2 - exp(-1/2) ~ 0.577), so at no n could the sum test have
risk ~ 1 at rho = 0.05, d = 100, or risk > 0.8 at d = 2 for rho >= 0.45.
"""

import itertools
import math
import time

import numpy as np
import pytest

from dbdetect import rng as rngmod
from dbdetect.assignment import solve_max
from dbdetect.exponents import (
    chernoff_exponent,
    kl_divergences,
    psi_p,
    psi_q,
)
from dbdetect.experiments import (
    TrialPlan,
    SweepGrid,
    estimate_risk,
    exact_tv_small,
    sweep,
)
from dbdetect.models import GaussianModel, make_bernoulli
from dbdetect.spectral import (
    eigenvalues,
    gaussian_profile,
    poisson_surrogate_moment,
    risk_lower_bound_from_moment,
    second_moment_exact,
)

from helpers import (
    bern55,
    brute_force_second_moment,
    criterion_9_outputs,
    diag_model,
    gauss,
    gauss_expect_2d,
    gauss_llr_values,
    sum_test_exact_risk,
)


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {criterion}: {status} - {detail}")


def test_criterion_1_second_moment_oracle_equivalence():
    """Cycle-type second moment equals brute-force database enumeration."""
    start = time.time()
    worst = 0.0
    for model in (bern55(), diag_model()):
        profile = eigenvalues(model)
        for n in (2, 3, 4):
            for d in (1, 2):
                exact = second_moment_exact(profile, n, d)
                brute = brute_force_second_moment(model, n, d)
                worst = max(worst, abs(exact - brute))
    elapsed = time.time() - start
    ok = worst <= 1e-9 and elapsed < 10.0
    report(1, ok, f"max |cycle - enumeration| = {worst:.2e}, {elapsed:.1f}s")
    assert worst <= 1e-9
    assert elapsed < 10.0


def test_criterion_2_eigenvalue_closed_forms():
    """Bernoulli spectra {1, rho}; Gaussian geometric spectrum ties to the
    squared-LLR moment."""
    worst_bern = 0.0
    taus = np.linspace(0.1, 0.9, 5)
    ps = np.linspace(0.2, 0.8, 4)
    assert taus.size * ps.size == 20
    for tau in taus:
        for p in ps:
            rho = tau * (1 - p) / (1 - tau * p)
            lam = eigenvalues(make_bernoulli(tau, p)).eigenvalues
            worst_bern = max(worst_bern, abs(lam[0] - 1.0), abs(lam[1] - rho))
    worst_gauss = 0.0
    for rho in (-0.9, -0.5, -0.2, 0.05, 0.2, 0.5, 0.9):
        profile = gaussian_profile(rho)
        powers = rho ** np.arange(profile.eigenvalues.size)
        assert np.array_equal(np.sort(profile.eigenvalues), np.sort(powers))
        total_sq = float((profile.eigenvalues**2).sum())
        gap = abs(math.exp(psi_q(GaussianModel(rho=rho), 2.0)) - total_sq)
        worst_gauss = max(worst_gauss, gap)
    ok = worst_bern <= 1e-12 and worst_gauss <= 1e-8
    report(
        2,
        ok,
        f"bernoulli grid max err = {worst_bern:.2e}, "
        f"gaussian trace gap = {worst_gauss:.2e}",
    )
    assert worst_bern <= 1e-12
    assert worst_gauss <= 1e-8


def test_criterion_3_exponent_identities():
    start = time.time()
    models = [diag_model(), bern55(), gauss(0.6), gauss(-0.4)]
    for model in models:
        assert abs(psi_q(model, 0.0)) <= 1e-9
        assert abs(psi_q(model, 1.0)) <= 1e-9
        for lam in np.linspace(-2.0, 1.0, 13):
            if isinstance(model, GaussianModel) and abs(lam) >= 1.0 / abs(model.rho):
                continue
            assert abs(psi_p(model, lam) - psi_q(model, lam + 1.0)) <= 1e-9
        div = kl_divergences(model)
        for theta in np.linspace(-div.kl_qp, div.kl_pq, 7):
            result = chernoff_exponent(model, theta)
            assert abs(result.e_p - (result.e_q - theta)) <= 1e-6
        assert abs(chernoff_exponent(model, -div.kl_qp).e_q) <= 1e-6
        assert abs(chernoff_exponent(model, div.kl_pq).e_p) <= 1e-6
    worst_quad = 0.0
    for rho in (-0.7, -0.3, 0.2, 0.5, 0.8):
        model = GaussianModel(rho=rho)
        for lam in np.linspace(1 - 0.8 / abs(rho), 1 + 0.8 / abs(rho), 7):
            quad = math.log(
                gauss_expect_2d(lambda x, y: np.exp(lam * gauss_llr_values(rho, x, y)))
            )
            worst_quad = max(worst_quad, abs(psi_q(model, lam) - quad))
    elapsed = time.time() - start
    ok = worst_quad <= 1e-6 and elapsed < 5.0
    report(3, ok, f"quadrature max gap = {worst_quad:.2e}, {elapsed:.1f}s")
    assert worst_quad <= 1e-6
    assert elapsed < 5.0


def test_criterion_4_glrt_exactness():
    """Assignment solver equals factorial brute force on 200 instances."""
    start = time.time()
    failures = 0
    for trial in range(200):
        rng = rngmod.substream(4321, 17, trial)
        n = int(rng.integers(1, 8))
        w = rng.normal(size=(n, n)) * 5.0
        sigma, _ = solve_max(w)
        perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
        totals = w[np.arange(n)[None, :], perms].sum(axis=1)
        best_perm = perms[int(np.argmax(totals))]
        solver_value = math.fsum(w[i, sigma[i]] for i in range(n))
        oracle_value = math.fsum(w[i, best_perm[i]] for i in range(n))
        if solver_value != oracle_value:
            failures += 1
    elapsed = time.time() - start
    ok = failures == 0 and elapsed < 5.0
    report(4, ok, f"{failures} mismatches out of 200, {elapsed:.1f}s")
    assert failures == 0
    assert elapsed < 5.0


def test_criterion_5_bounds_chain():
    """1 - tv >= 1 - sqrt(moment - 1)/2 on every tiny instance; Poisson
    surrogate increases to its closed-form limit."""
    worst_violation = -math.inf
    for model in (diag_model(), bern55(), make_bernoulli(0.3, 0.6)):
        profile = eigenvalues(model)
        for n in (1, 2, 3, 4):
            for d in (1, 2):
                if model.alphabet_size ** (2 * n * d) > (1 << 24):
                    continue
                _, bayes = exact_tv_small(model, n, d)
                moment = second_moment_exact(profile, n, d)
                floor = risk_lower_bound_from_moment(moment)
                worst_violation = max(worst_violation, floor - bayes)
    surrogate_ok = True
    worst_limit_gap = 0.0
    for model in (diag_model(), bern55()):
        profile = eigenvalues(model)
        values = [poisson_surrogate_moment(profile, m, 1) for m in range(1, 200)]
        surrogate_ok &= all(b >= a for a, b in zip(values, values[1:]))
        sub = profile.eigenvalues[1:]
        limit = math.exp(-float(np.log1p(-(sub**2)).sum()))
        surrogate_ok &= values[-1] <= limit * (1 + 1e-12)
        worst_limit_gap = max(worst_limit_gap, abs(values[-1] - limit))
    ok = worst_violation <= 1e-9 and surrogate_ok and worst_limit_gap <= 1e-6
    report(
        5,
        ok,
        f"max (floor - bayes) = {worst_violation:.2e}, "
        f"surrogate limit gap = {worst_limit_gap:.2e}",
    )
    assert worst_violation <= 1e-9
    assert surrogate_ok
    assert worst_limit_gap <= 1e-6


RHO_GRID = tuple(round(0.05 * k, 2) for k in range(1, 20))
CURVE_SEED = 60
CURVE_TRIALS = 2000


def _pinned_tau_count(rho: float, d: int, target: float = 0.005) -> float:
    """Count-test level for small d: pin the matched-pair hit probability to
    ``target`` using the exact alternative law of the Gaussian LLR sum,
    d*kl_pq + (rho/2)(chi2_d - chi2_d'); for d = 2 the difference is Laplace
    with P[X >= t] = exp(-t/2)/2."""
    assert d == 2
    kl_pq = kl_divergences(GaussianModel(rho=rho)).kl_pq
    t = -2.0 * math.log(2.0 * target)
    return kl_pq + rho * t / (2.0 * d)


def _risk_curves():
    """All criterion-6 risk curves, keyed by (detector, d) -> list of
    estimates along RHO_GRID."""
    curves = {}
    base = dict(n=100, d=100, trials=CURVE_TRIALS, seed=CURVE_SEED)
    plan = TrialPlan(
        model=GaussianModel(rho=0.5),
        detectors=("sum",),
        sweep=SweepGrid(param_values=RHO_GRID, d_values=(2, 10, 100)),
        **base,
    )
    for est in sweep(plan):
        curves.setdefault(("sum", est.d), []).append(est)
    plan = TrialPlan(
        model=GaussianModel(rho=0.5),
        detectors=("count",),
        tau_count="half-kl",
        pd_samples=100_000,
        sweep=SweepGrid(param_values=RHO_GRID, d_values=(10, 100)),
        **base,
    )
    for est in sweep(plan):
        curves.setdefault(("count", est.d), []).append(est)
    # d = 2 count test: the level is pinned per rho (see _pinned_tau_count);
    # half of kl_pq never detects at d = 2 because the null tail of the LLR
    # is too heavy relative to the n^2 pair count.
    for rho in RHO_GRID:
        plan = TrialPlan(
            model=GaussianModel(rho=rho),
            n=100,
            d=2,
            trials=CURVE_TRIALS,
            seed=CURVE_SEED,
            detectors=("count",),
            tau_count=_pinned_tau_count(rho, 2),
            pd_samples=200_000,
        )
        curves.setdefault(("count", 2), []).extend(estimate_risk(plan))
    return curves


def _monotone_violations(estimates) -> tuple[int, int]:
    """Adjacent grid pairs where risk increases by more than 3 combined
    standard errors, against the count of adjacent pairs."""
    violations = 0
    pairs = 0
    for a, b in zip(estimates, estimates[1:]):
        pairs += 1
        spread = 3.0 * math.hypot(a.stderr, b.stderr)
        if b.risk > a.risk + spread:
            violations += 1
    return violations, pairs


@pytest.mark.slow
def test_criterion_6_risk_curve_trends():
    start = time.time()
    curves = _risk_curves()
    clauses = []

    for detector in ("sum", "count"):
        for d in (2, 10, 100):
            est = curves[(detector, d)][0]
            assert est.param == pytest.approx(0.05)
            if detector == "sum":
                target = sum_test_exact_risk(d, est.param)
                name = f"sum risk ~ exact R={target:.4f} at rho=0.05, d={d}"
            else:
                target = 1.0
                name = f"count risk ~ 1 at rho=0.05, d={d}"
            ok = abs(est.risk - target) <= 3.0 * est.stderr
            clauses.append(
                (name, ok, f"risk={est.risk:.4f} stderr={est.stderr:.4f}")
            )

    sum100 = {round(e.param, 2): e for e in curves[("sum", 100)]}
    ok = sum100[0.90].risk < 0.1
    clauses.append(
        ("sum risk < 0.1 at rho=0.9, d=100", ok, f"risk={sum100[0.90].risk:.4f}")
    )

    sum2 = [(e, sum_test_exact_risk(2, e.param)) for e in curves[("sum", 2)]]
    worst, worst_exact = max(sum2, key=lambda p: abs(p[0].risk - p[1]) / p[0].stderr)
    ok = all(abs(e.risk - exact) <= 3.0 * e.stderr for e, exact in sum2)
    clauses.append(
        (
            "sum risk ~ exact R(2, rho) across the grid at d=2",
            ok,
            f"worst at rho={worst.param:.2f}: risk={worst.risk:.4f} "
            f"exact={worst_exact:.4f} stderr={worst.stderr:.4f}",
        )
    )

    count2 = curves[("count", 2)]
    first, last = count2[0], count2[-1]
    drop = first.risk - last.risk
    ok = drop > 5.0 * math.hypot(first.stderr, last.stderr) and last.risk < 0.9
    clauses.append(
        (
            "count risk decreases toward rho=0.95 at d=2",
            ok,
            f"risk {first.risk:.4f} -> {last.risk:.4f}",
        )
    )

    total_violations = 0
    total_pairs = 0
    for series in curves.values():
        v, p = _monotone_violations(series)
        total_violations += v
        total_pairs += p
    ok = total_violations <= 0.05 * total_pairs
    clauses.append(
        (
            "risk monotone in rho (3-sigma violations on <= 5% of pairs)",
            ok,
            f"{total_violations}/{total_pairs} violations",
        )
    )

    elapsed = time.time() - start
    clauses.append(("runtime < 10 min", elapsed < 600.0, f"{elapsed:.0f}s"))

    failed = [c for c in clauses if not c[1]]
    report(6, not failed, "; ".join(f"{name} [{detail}]" for name, _, detail in clauses))
    assert not failed, "failed clauses: " + "; ".join(
        f"{name} ({detail})" for name, _, detail in failed
    )


@pytest.mark.slow
def test_criterion_7_sum_test_bound_consistency():
    """Empirical sum-test risk stays below the analytic risk bound
    4 Var_Q / (d skl^2) = 16 / (d rho^2) wherever that bound is informative."""
    rho, d = 0.6, 100
    bound = 16.0 / (d * rho * rho)
    assert bound < 1.0
    results = []
    for n in (10, 100):
        plan = TrialPlan(
            model=GaussianModel(rho=rho),
            n=n,
            d=d,
            trials=2000,
            seed=61,
            detectors=("sum",),
        )
        (est,) = estimate_risk(plan)
        results.append((n, est))
    ok = all(est.risk <= bound + 3.0 * est.stderr for _, est in results)
    detail = ", ".join(f"n={n}: risk={est.risk:.4f}" for n, est in results)
    report(7, ok, f"bound={bound:.4f}; {detail}")
    for _, est in results:
        assert est.risk <= bound + 3.0 * est.stderr


@pytest.mark.slow
def test_criterion_8_bayes_optimality_sanity():
    """The exact mixture oracle is empirically optimal and matches the
    enumerated optimal risk on tiny instances."""
    trials = 4000
    all_ok = True
    details = []
    for model, tau_count in ((diag_model(), 0.05), (bern55(), 0.05)):
        _, bayes = exact_tv_small(model, 4, 1)
        plan = TrialPlan(
            model=model,
            n=4,
            d=1,
            trials=trials,
            seed=62,
            detectors=("np-oracle", "glrt", "sum", "count"),
            tau_count=tau_count,
        )
        estimates = {e.detector: e for e in estimate_risk(plan)}
        oracle = estimates["np-oracle"]
        for name in ("glrt", "sum", "count"):
            other = estimates[name]
            margin = 3.0 * math.hypot(oracle.stderr, other.stderr)
            if oracle.risk > other.risk + margin:
                all_ok = False
        # no detector beats the enumerated optimal risk
        for est in estimates.values():
            if est.risk < bayes - 3.0 * est.stderr:
                all_ok = False
        gap = abs(oracle.risk - bayes)
        if gap > 3.0 * oracle.stderr:
            all_ok = False
        details.append(
            f"bayes={bayes:.4f} oracle={oracle.risk:.4f}+-{oracle.stderr:.4f}"
        )
    report(8, all_ok, "; ".join(details))
    assert all_ok


def test_criterion_9_determinism_across_runs_and_threads(tmp_path):
    """Byte-identical outputs for every stochastic subcommand across repeated
    runs and across thread counts 1 and 8 (see ``criterion_9_outputs``)."""
    outputs = {
        label: criterion_9_outputs(tmp_path / label, threads)
        for label, threads in [("a", 1), ("b", 1), ("c", 8)]
    }
    ok = outputs["a"] == outputs["b"] == outputs["c"]
    report(
        9, ok, "sample/detect/risk/sweep byte-identical across runs and threads {1, 8}"
    )
    assert ok
