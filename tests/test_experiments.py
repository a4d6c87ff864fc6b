"""Risk harness, sweeps, exact total-variation oracle, bound report."""

import math

import numpy as np
import pytest

from dbdetect import experiments
from dbdetect.errors import CapacityError, ValidationError
from dbdetect.experiments import (
    SweepGrid,
    TrialPlan,
    bound_report,
    estimate_risk,
    estimates_to_csv,
    exact_tv_small,
    sweep,
)
from dbdetect.models import make_bernoulli
from dbdetect.spectral import (
    MOMENT_MAX_N,
    eigenvalues,
    gaussian_profile,
    poisson_moment_bound,
    second_moment_exact,
)

from helpers import (
    brute_force_tv,
    dense_exact_tv,
    diag_model,
    gauss,
    independent_model,
    random_discrete_model,
)


def small_plan(**kwargs):
    defaults = dict(
        model=gauss(0.8),
        n=8,
        d=6,
        trials=60,
        seed=99,
        detectors=("sum",),
    )
    defaults.update(kwargs)
    return TrialPlan(**defaults)


class TestEstimateRisk:
    def test_deterministic_across_runs_and_threads(self):
        plan = small_plan(detectors=("sum", "glrt"))
        a = estimate_risk(plan, threads=1)
        b = estimate_risk(plan, threads=1)
        c = estimate_risk(plan, threads=4)
        assert estimates_to_csv(a) == estimates_to_csv(b) == estimates_to_csv(c)

    def test_near_independent_model_has_risk_one(self):
        plan = TrialPlan(
            model=gauss(1e-6),
            n=40,
            d=40,
            trials=400,
            seed=5,
            detectors=("sum",),
        )
        (est,) = estimate_risk(plan)
        assert abs(est.risk - 1.0) <= max(3 * est.stderr, 0.01)

    def test_strong_signal_detected(self):
        plan = TrialPlan(
            model=gauss(0.9),
            n=50,
            d=100,
            trials=200,
            seed=31,
            detectors=("sum",),
        )
        (est,) = estimate_risk(plan)
        assert est.risk < 0.05

    def test_fields_and_stderr(self):
        plan = small_plan()
        (est,) = estimate_risk(plan)
        assert est.detector == "sum"
        assert est.risk == pytest.approx(est.fpr + est.fnr, abs=0)
        expected_se = math.sqrt(
            est.fpr * (1 - est.fpr) / est.trials + est.fnr * (1 - est.fnr) / est.trials
        )
        assert est.stderr == pytest.approx(expected_se, abs=0)
        assert est.model_kind == "gaussian"
        assert est.param == pytest.approx(0.8)

    def test_count_detector_needs_tau(self):
        with pytest.raises(ValidationError, match="tau_count"):
            estimate_risk(small_plan(detectors=("count",)))

    def test_count_detector_with_half_kl(self):
        plan = small_plan(detectors=("count",), tau_count="half-kl", pd_samples=5000)
        (est,) = estimate_risk(plan)
        assert 0.0 <= est.fpr <= 1.0 and 0.0 <= est.fnr <= 1.0

    def test_bernoulli_np_oracle_runs(self):
        plan = TrialPlan(
            model=make_bernoulli(0.6, 0.5),
            n=4,
            d=1,
            trials=50,
            seed=3,
            detectors=("np-oracle", "glrt"),
        )
        results = estimate_risk(plan)
        assert [e.detector for e in results] == ["np-oracle", "glrt"]


class TestSweep:
    def test_single_point_equals_estimate_risk(self):
        plan = small_plan(sweep=SweepGrid(param_values=(0.8,)))
        assert estimates_to_csv(sweep(plan)) == estimates_to_csv(
            estimate_risk(small_plan())
        )

    def test_row_order_param_then_d_then_n_then_detector(self):
        plan = small_plan(
            trials=10,
            detectors=("sum", "glrt"),
            sweep=SweepGrid(param_values=(0.3, 0.8), n_values=(4, 8), d_values=(2, 3)),
        )
        rows = sweep(plan)
        key = [(r.param, r.d, r.n, r.detector) for r in rows]
        expected = [
            (p, d, n, det)
            for p in (0.3, 0.8)
            for d in (2, 3)
            for n in (4, 8)
            for det in ("sum", "glrt")
        ]
        assert key == expected

    def test_deterministic_csv(self):
        plan = small_plan(
            trials=20, sweep=SweepGrid(param_values=(0.4, 0.7), d_values=(2, 4))
        )
        assert estimates_to_csv(sweep(plan, threads=1)) == estimates_to_csv(
            sweep(plan, threads=3)
        )

    def test_bernoulli_tau_sweep(self):
        plan = TrialPlan(
            model=make_bernoulli(0.5, 0.5),
            n=6,
            d=4,
            trials=20,
            seed=2,
            detectors=("sum",),
            sweep=SweepGrid(param_values=(0.3, 0.8)),
        )
        rows = sweep(plan)
        assert [r.param for r in rows] == [0.3, 0.8]
        assert all(r.model_kind == "bernoulli" for r in rows)

    def test_discrete_param_sweep_rejected(self):
        plan = small_plan(
            model=diag_model(), sweep=SweepGrid(param_values=(0.1, 0.2))
        )
        with pytest.raises(ValidationError):
            sweep(plan)


class TestExactTV:
    def test_independent_model(self):
        tv, bayes = exact_tv_small(independent_model(), 2, 1)
        assert tv == pytest.approx(0.0, abs=1e-12)
        assert bayes == pytest.approx(1.0, abs=1e-12)

    def test_single_cell_example(self):
        tv, bayes = exact_tv_small(diag_model(), 1, 1)
        assert tv == pytest.approx(0.3, abs=1e-12)
        assert bayes == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("n,d", [(1, 2), (2, 1), (2, 2), (3, 1)])
    def test_matches_pure_python_enumeration(self, n, d):
        model = make_bernoulli(0.7, 0.4)
        tv, _ = exact_tv_small(model, n, d)
        assert tv == pytest.approx(brute_force_tv(model, n, d), abs=1e-12)

    @pytest.mark.parametrize("n,d", [(2, 1), (3, 1), (2, 2), (4, 1)])
    def test_bayes_risk_dominates_moment_bound(self, n, d):
        for model in (diag_model(), make_bernoulli(0.5, 0.5)):
            _, bayes = exact_tv_small(model, n, d)
            moment = second_moment_exact(eigenvalues(model), n, d)
            floor = 1.0 - 0.5 * math.sqrt(moment - 1.0)
            assert bayes >= floor - 1e-9

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            exact_tv_small(diag_model(), 9, 1)
        with pytest.raises(CapacityError):
            exact_tv_small(diag_model(), 4, 4)

    @pytest.mark.parametrize(
        "n,d", [(1, 1), (1, 4), (2, 3), (3, 1), (3, 2), (4, 1), (5, 1)]
    )
    def test_matches_dense_formula(self, n, d):
        rng = np.random.default_rng(10 * n + d)
        for model in (make_bernoulli(0.6, 0.3), diag_model()):
            tv, _ = exact_tv_small(model, n, d)
            assert tv == pytest.approx(dense_exact_tv(model, n, d), abs=1e-13)
        if d == 1:  # a 3-symbol alphabet keeps the dense arrays small only here
            model = random_discrete_model(rng, 3)
            tv, _ = exact_tv_small(model, n, d)
            assert tv == pytest.approx(dense_exact_tv(model, n, d), abs=1e-13)

    def test_states_span_several_blocks(self, monkeypatch):
        # 2^(3*2) = 64 ordered x-databases are 20 row multisets
        monkeypatch.setattr(experiments, "TV_BLOCK_BYTES", 4096)
        assert experiments._tv_block_rows(20, 3) < 20
        model = make_bernoulli(0.6, 0.3)
        tv, _ = exact_tv_small(model, 3, 2)
        assert tv == pytest.approx(dense_exact_tv(model, 3, 2), abs=1e-13)


class TestBoundReport:
    def test_gaussian_report_values(self):
        report = bound_report(gauss(0.6), n=100, d=100)
        assert report["sum_risk_bound"] == pytest.approx(16.0 / 36.0, rel=1e-9)
        assert report["weak_statistic_times_d"] == pytest.approx(
            100 * report["weak_statistic"], rel=1e-12
        )
        assert report["strong_fixed_d_threshold"] == pytest.approx(
            math.log(0.36) / math.log(0.64), rel=1e-9
        )
        assert report["glrt"]["tau"] == 0.0
        assert report["count"]["e_q"] >= 0.0
        assert report["e_q_zero"] >= report["e_q_zero_witness"] - 0.05

    def test_small_instance_has_moment_chain(self):
        report = bound_report(make_bernoulli(0.5, 0.5), n=4, d=1)
        assert report["second_moment"] >= 1.0
        assert 0.0 <= report["risk_lower_bound"] <= 1.0
        assert report["poisson_moment_bound"] >= 1.0

    def test_large_n_moment_is_finite(self):
        report = bound_report(gauss(0.2), n=500, d=3)
        bound = poisson_moment_bound(gaussian_profile(0.2), 3)
        assert 1.0 <= report["second_moment"] <= bound
        assert "second_moment_note" not in report

    def test_moment_capacity_guard(self):
        with pytest.raises(CapacityError):
            bound_report(gauss(0.2), n=MOMENT_MAX_N + 1, d=3)

    def test_independent_model_notes(self):
        report = bound_report(independent_model(), n=5, d=2)
        assert report["weak_statistic"] == pytest.approx(0.0, abs=1e-12)
        assert report["sum_risk_bound"] is None
        assert report["glrt"] is None


class TestCSV:
    def test_schema(self):
        plan = small_plan(trials=5)
        text = estimates_to_csv(estimate_risk(plan))
        lines = text.strip().split("\n")
        assert lines[0] == (
            "model_kind,param,n,d,detector,threshold,fpr,fnr,risk,stderr,trials,seed"
        )
        assert len(lines) == 2
        fields = lines[1].split(",")
        assert fields[0] == "gaussian"
        assert int(fields[10]) == 5
