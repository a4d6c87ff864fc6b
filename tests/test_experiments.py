"""Risk harness, sweeps, exact total-variation oracle, bound report."""

import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dbdetect import cli, detectors, experiments
from dbdetect import rng as rngmod
from dbdetect.errors import CapacityError, DegenerateModelError, ValidationError
from dbdetect.experiments import (
    SweepGrid,
    TrialPlan,
    bound_report,
    estimate_risk,
    estimates_to_csv,
    exact_tv_small,
    sweep,
)
from dbdetect.config import write_matrix_csv
from dbdetect.models import make_bernoulli, sample_alt, sample_alt_rng, sample_null_rng
from dbdetect.spectral import (
    MOMENT_MAX_WORK,
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


def pool_plan(**kwargs):
    """A Gaussian sum+count point big enough (n * d = 10^4) to run on one
    worker per thread, up to its trials."""
    defaults = dict(
        model=gauss(0.3),
        n=100,
        d=100,
        trials=20,
        seed=12,
        detectors=("sum", "count"),
        tau_count="half-kl",
        pd_samples=2000,
    )
    defaults.update(kwargs)
    return TrialPlan(**defaults)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces the harness's pool by a real one that records the workers it
    was asked for and the per-unit results of each point."""
    log = {"workers": [], "results": []}

    class RecordingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            log["workers"].append(max_workers)
            super().__init__(max_workers=max_workers)

        def map(self, fn, *iterables):
            results = list(super().map(fn, *iterables))
            log["results"].append(results)
            return iter(results)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", RecordingPool)
    return log


class TestEstimateRisk:
    def test_deterministic_across_runs_and_threads(self):
        for plan in (small_plan(detectors=("sum", "glrt")), pool_plan()):
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

    def test_one_llr_matrix_per_pair(self, monkeypatch):
        calls = []
        original = detectors.pair_llr_matrix

        def counting(model, x, y):
            calls.append(1)
            return original(model, x, y)

        monkeypatch.setattr(detectors, "pair_llr_matrix", counting)
        plan = TrialPlan(
            model=make_bernoulli(0.6, 0.3), n=5, d=6, trials=4, seed=1,
            detectors=("glrt", "count", "np-oracle", "glrt"), tau_count="half-kl",
        )
        estimate_risk(plan, threads=1)
        assert len(calls) == 2 * plan.trials


VACUOUS = (
    "count-test threshold is vacuous: pd = 0 (tau_count above the reachable "
    "LLR range)"
)


class TestDeferredCountDecisions:
    """The count plan runs as a unit of the trial pool and the count
    decisions wait for it; none of that shows in the outputs."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "model,pd_samples", [(diag_model(), None), (gauss(0.5), 2000)]
    )
    def test_vacuous_plan_raises_from_estimate_risk(self, model, pd_samples, threads):
        extra = {} if pd_samples is None else {"pd_samples": pd_samples}
        plan = small_plan(
            model=model, n=5, d=3, trials=6, detectors=("glrt", "count"),
            tau_count=1e6, **extra,
        )
        with pytest.raises(ValidationError, match=re.escape(VACUOUS)):
            estimate_risk(plan, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_vacuous_plan_is_a_point_error_in_sweeps(self, threads):
        plan = small_plan(
            model=diag_model(), n=5, d=3, trials=6, detectors=("sum", "count"),
            tau_count=1e6, sweep=SweepGrid(d_values=(2, 3)),
        )
        errors = []
        assert sweep(plan, threads=threads, error_sink=errors) == []
        assert [(e.d, e.message) for e in errors] == [(2, VACUOUS), (3, VACUOUS)]

    @pytest.mark.parametrize(
        "plan",
        [
            TrialPlan(
                model=make_bernoulli(0.6, 0.3), n=12, d=20, trials=30, seed=8,
                detectors=("glrt", "count"), tau_count="half-kl",
            ),
            TrialPlan(
                model=gauss(0.4), n=10, d=8, trials=40, seed=8,
                detectors=("sum", "count"), tau_count="half-kl", pd_samples=20_000,
            ),
            pool_plan(),
        ],
        ids=["bernoulli-glrt-count", "gaussian-sum-count", "gaussian-pooled-sum-count"],
    )
    def test_csv_bytes_equal_across_threads(self, plan):
        outputs = {estimates_to_csv(estimate_risk(plan, threads=t)) for t in (1, 2, 8)}
        assert len(outputs) == 1

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "plan",
        [
            TrialPlan(
                model=make_bernoulli(0.6, 0.3), n=12, d=20, trials=30, seed=8,
                detectors=("glrt", "count"), tau_count="half-kl",
            ),
            TrialPlan(
                model=make_bernoulli(0.7, 0.4), n=7, d=6, trials=25, seed=9,
                detectors=("np-oracle", "glrt"),
            ),
        ],
        ids=["bernoulli-glrt-count", "np-oracle-glrt"],
    )
    def test_blocks_are_invisible_in_the_output(
        self, plan, threads, monkeypatch, recording_pool
    ):
        """A stack budget below one trial's matrices makes every trial a
        block of its own, with a stack of two: the CSV bytes are those of
        the default, where the point is one block."""
        default = estimates_to_csv(estimate_risk(plan, threads=threads))
        monkeypatch.setattr(experiments, "GLRT_STACK_BYTES", 1)
        assert estimates_to_csv(estimate_risk(plan, threads=threads)) == default
        units = [len(results) for results in recording_pool["results"]]
        pending = int("count" in plan.detectors)
        assert units == [1 + pending, plan.trials + pending]

    def test_count_threshold_and_statistic_match_count_test(self):
        """The harness's count row equals deciding each trial's pairs with
        ``count_test`` itself."""
        model = gauss(0.6)
        plan = TrialPlan(
            model=model, n=7, d=5, trials=12, seed=4, detectors=("count",),
            tau_count=0.1, pd_samples=5000,
        )
        (est,) = estimate_risk(plan, threads=2)
        count_plan = detectors.make_count_plan(model, 5, 0.1, samples=5000, seed=4)
        samplers = [(rngmod.RISK_NULL, sample_null_rng), (rngmod.RISK_ALT, sample_alt_rng)]
        decisions = [[], []]
        for trial in range(plan.trials):
            for h, (purpose, sample) in enumerate(samplers):
                rng = rngmod.substream(plan.seed, purpose, 0, trial)
                pair = sample(model, plan.n, plan.d, rng)
                decisions[h].append(detectors.count_test(model, pair, count_plan).decision)
        assert est.threshold == 0.5 * plan.n * count_plan.pd
        assert est.fpr == float(np.mean(decisions[0]))
        assert est.fnr == float(1.0 - np.mean(decisions[1]))


def per_point_sweep(plan, threads):
    """A Gaussian rho sweep run point by point, each point with a count-plan
    table of its own: the rows and the ``(param, n, d, message)`` of each
    failed point."""
    grid = plan.sweep
    rows, errors = [], []
    index = 0
    for rho in grid.param_values:
        for d in grid.d_values or (plan.d,):
            for n in grid.n_values or (plan.n,):
                model = gauss(rho)
                plans = experiments.count_plans(plan, (model,))
                try:
                    rows += experiments._run_point(
                        model, n, d, plan, index, threads, plans
                    )
                except ValidationError as exc:
                    errors.append((rho, n, d, str(exc)))
                index += 1
    return rows, errors


def counting_pd_passes(monkeypatch):
    """Log ``(members, d)`` of every pass of the Monte-Carlo pd kernel."""
    calls = []
    original = detectors._monte_carlo_pd

    def counting(members, d, samples, seed):
        calls.append((len(members), d))
        return original(members, d, samples, seed)

    monkeypatch.setattr(detectors, "_monte_carlo_pd", counting)
    return calls


def counting_table_lookups(monkeypatch):
    """Log ``(model, d)`` of every plan asked of a count-plan table."""
    calls = []
    original = detectors.CountPlans.get

    def counting(self, model, d):
        calls.append((model, d))
        return original(self, model, d)

    monkeypatch.setattr(detectors.CountPlans, "get", counting)
    return calls


class TestSharedCountPlans:
    """Every count plan comes from a count-plan table.  A sweep draws the
    Monte-Carlo count plans of all its models at one d in one pass and
    reuses them at every n; the rows and the failed points are those of
    running each point on its own.  A risk point and ``detect`` make one
    pass each."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_one_pass_per_d_for_every_model_and_n(self, monkeypatch, threads):
        plan = TrialPlan(
            model=gauss(0.5), n=10, d=4, trials=6, seed=3,
            detectors=("sum", "count"), tau_count="half-kl", pd_samples=3000,
            sweep=SweepGrid(param_values=(0.3, 0.6, 0.9), n_values=(5, 10, 20),
                            d_values=(4, 8)),
        )
        calls = counting_pd_passes(monkeypatch)
        rows = sweep(plan, threads=threads)
        assert calls == [(3, 4), (3, 8)]
        expected, errors = per_point_sweep(plan, threads)
        assert errors == []
        assert estimates_to_csv(rows) == estimates_to_csv(expected)
        assert len(calls) == 2 + 18  # the per-point run: one pass a point

    @pytest.mark.parametrize("threads", [1, 2])
    def test_estimate_risk_makes_one_pass_through_the_table(self, monkeypatch, threads):
        plan = TrialPlan(
            model=gauss(0.5), n=10, d=4, trials=6, seed=3,
            detectors=("count", "sum", "count"), tau_count="half-kl",
            pd_samples=3000,
        )
        lookups = counting_table_lookups(monkeypatch)
        calls = counting_pd_passes(monkeypatch)
        estimate_risk(plan, threads=threads)
        assert calls == [(1, 4)]
        assert lookups == [(plan.model, 4)]

    def test_detect_makes_one_pass_through_the_table(self, monkeypatch, tmp_path):
        model = gauss(0.5)
        pair = sample_alt(model, 6, 4, seed=13)
        paths = {name: str(tmp_path / name) for name in ("model.txt", "X.csv", "Y.csv")}
        with open(paths["model.txt"], "w", encoding="utf-8") as handle:
            handle.write("kind = gaussian\nrho = 0.5\n")
        write_matrix_csv(paths["X.csv"], pair.x)
        write_matrix_csv(paths["Y.csv"], pair.y)
        lookups = counting_table_lookups(monkeypatch)
        calls = counting_pd_passes(monkeypatch)
        assert cli.main([
            "detect", "--model", paths["model.txt"], "--x", paths["X.csv"],
            "--y", paths["Y.csv"], "--detector", "count", "--detector", "sum",
            "--tau-count", "half-kl", "--seed", "1", "--pd-samples", "500",
            "--out", str(tmp_path / "verdicts.json"),
        ]) == 0
        assert calls == [(1, 4)]
        assert [d for _, d in lookups] == [4]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("params", [(0.3, 0.9), (0.9, 0.3)])
    def test_vacuous_member_fails_at_its_own_points(self, params, threads):
        """At tau_count = 0.8 and d = 4 no draw reaches the level for
        rho = 0.3 (pd = 0) while rho = 0.9 has pd > 0: only rho = 0.3's
        points fail, whether the shared pass ran at one of them or not."""
        plan = TrialPlan(
            model=gauss(0.5), n=6, d=4, trials=5, seed=5,
            detectors=("sum", "count"), tau_count=0.8, pd_samples=2000,
            sweep=SweepGrid(param_values=params, n_values=(5, 6)),
        )
        errors = []
        rows = sweep(plan, threads=threads, error_sink=errors)
        expected_rows, expected_errors = per_point_sweep(plan, threads)
        assert [(e.param, e.n, e.d, e.message) for e in errors] == expected_errors
        assert expected_errors == [(0.3, 5, 4, VACUOUS), (0.3, 6, 4, VACUOUS)]
        assert estimates_to_csv(rows) == estimates_to_csv(expected_rows)
        assert {r.param for r in rows} == {0.9}
        with pytest.raises(ValidationError, match=re.escape(VACUOUS)):
            sweep(plan, threads=threads)

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("names", [("sum", "count"), ("count", "sum")])
    def test_unbindable_detector_fails_before_any_count_plan(
        self, monkeypatch, names, threads
    ):
        """Detectors are bound in plan order, before any threshold is
        settled: an independent model's sum test cannot be bound, so the
        point raises that error and asks for no count plan, wherever the
        count test sits in the plan (its threshold at tau_count = 0.5 would
        be vacuous)."""
        lookups = counting_table_lookups(monkeypatch)
        plan = small_plan(
            model=independent_model(), n=5, d=3, trials=4, detectors=names,
            tau_count=0.5,
        )
        with pytest.raises(DegenerateModelError):
            estimate_risk(plan, threads=threads)
        assert lookups == []


def public_decisions(plan, threads):
    """The harness's thresholds and decisions ``[hypothesis, detector,
    trial]`` at point 0 of ``plan``, and the same from the public detectors
    on the pairs drawn from the same substreams."""
    model, n, d = plan.model, plan.n, plan.d
    prepared, decisions = experiments._point_records(
        model, n, d, plan, 0, threads, experiments.count_plans(plan, (model,))
    )
    count_plan = None
    if "count" in plan.detectors:
        tau = detectors.resolve_tau_count(model, plan.tau_count)
        count_plan = detectors.make_count_plan(
            model, d, tau, samples=plan.pd_samples, seed=plan.seed
        )
    public = {
        "glrt": lambda pair: detectors.glrt(model, pair, tau=plan.tau_glrt),
        "sum": lambda pair: detectors.sum_test(model, pair, tau=plan.tau_sum),
        "count": lambda pair: detectors.count_test(model, pair, count_plan),
        "np-oracle": lambda pair: detectors.np_oracle(model, pair),
    }
    samplers = [(rngmod.RISK_NULL, sample_null_rng), (rngmod.RISK_ALT, sample_alt_rng)]
    expected = np.zeros(decisions.shape, dtype=bool)
    thresholds = {}
    for trial in range(plan.trials):
        for h, (purpose, sample) in enumerate(samplers):
            pair = sample(model, n, d, rngmod.substream(plan.seed, purpose, 0, trial))
            for idx, name in enumerate(plan.detectors):
                verdict = public[name](pair)
                expected[h, idx, trial] = verdict.decision
                thresholds[name] = verdict.threshold
    return (
        [det.threshold for det in prepared],
        decisions,
        [thresholds[name] for name in plan.detectors],
        expected,
    )


class TestRecordsContract:
    """Every per-trial decision of the harness equals the public detector's
    decision on the same pair, not only the risk rows."""

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize(
        "plan",
        [
            TrialPlan(
                model=gauss(0.3), n=60, d=100, trials=12, seed=21,
                detectors=("sum", "count"), tau_count="half-kl", pd_samples=3000,
            ),
            TrialPlan(
                model=make_bernoulli(0.6, 0.3), n=20, d=30, trials=12, seed=22,
                detectors=("glrt", "count"), tau_count="half-kl",
            ),
            TrialPlan(
                model=make_bernoulli(0.7, 0.4), n=7, d=6, trials=12, seed=23,
                detectors=("np-oracle", "glrt"),
            ),
        ],
        ids=["gaussian-sum-count", "bernoulli-glrt-count", "np-oracle-glrt"],
    )
    def test_decisions_equal_the_public_detectors(self, plan, threads):
        got_thresholds, got, thresholds, expected = public_decisions(plan, threads)
        assert got.shape == (2, len(plan.detectors), plan.trials)
        assert got_thresholds == thresholds
        assert np.array_equal(got, expected)
        # both hypotheses and both outcomes occur, so the check has teeth
        assert got.any() and not got.all()


class TestNanThresholds:
    @pytest.mark.parametrize("field", ["tau_glrt", "tau_sum", "tau_count"])
    def test_plan_rejects_nan(self, field):
        with pytest.raises(ValidationError, match=f"{field} must be a number"):
            small_plan(**{field: math.nan})

    def test_resolve_rejects_nan(self):
        with pytest.raises(ValidationError, match="tau_count must be a number"):
            detectors.resolve_tau_count(gauss(0.5), math.nan)
        with pytest.raises(ValidationError, match="tau_count must be a number"):
            detectors.resolve_tau_count(gauss(0.5), "halfkl")


class TestWorkers:
    """A point runs on one worker where its trials hold the interpreter lock,
    and on up to ``threads`` workers otherwise; OpenBLAS is held to one
    thread while a pool of several runs and restored afterwards."""

    @pytest.mark.parametrize(
        "plan,workers",
        [
            (pool_plan(), {1: 1, 2: 2, 8: 8}),
            (pool_plan(trials=3), {1: 1, 2: 2, 8: 3}),
            (pool_plan(detectors=("sum",), n=49), {1: 1, 2: 1, 8: 1}),
            (pool_plan(detectors=("sum",), n=50), {1: 1, 2: 2, 8: 8}),
            (pool_plan(n=100, d=10), {1: 1, 2: 1, 8: 1}),
            (pool_plan(n=300, d=2), {1: 1, 2: 2, 8: 8}),
            (pool_plan(detectors=("glrt",)), {1: 1, 2: 1, 8: 1}),
            (pool_plan(detectors=("sum", "np-oracle")), {1: 1, 2: 1, 8: 1}),
        ],
        ids=[
            "pooled", "capped-by-trials", "sum-below-nd", "sum-at-nd",
            "count-below-nnd", "count-above-nnd", "glrt", "np-oracle",
        ],
    )
    def test_point_workers(self, plan, workers):
        got = {t: experiments.point_workers(plan, plan.n, plan.d, t) for t in workers}
        assert got == workers

    def test_pooled_records_equal_across_threads(self, recording_pool):
        """The per-trial records (decisions and count statistics) and the
        count threshold are the same on 1, 2 and 8 workers; each point's
        blocks of trials, concatenated, hold every trial once, in order."""
        plan = pool_plan()
        for threads in (1, 2, 8):
            estimate_risk(plan, threads=threads)
        assert recording_pool["workers"] == [1, 2, 8]
        thresholds = [results[0] for results in recording_pool["results"]]
        blocks = [len(results) - 1 for results in recording_pool["results"]]
        assert blocks[0] == 1 and blocks[1] > 2 and blocks[2] > 8
        records = [
            np.concatenate(results[1:]) for results in recording_pool["results"]
        ]
        assert thresholds[0] == thresholds[1] == thresholds[2]
        assert records[0].shape == (plan.trials, 2, 2)
        assert np.array_equal(records[0], records[1])
        assert np.array_equal(records[0], records[2])


@pytest.fixture
def blas_threads(monkeypatch):
    """The OpenBLAS thread count getter, with the count set to 2 so that a pin
    to 1 shows; its value at every trial's null-pair draw is logged.  Where
    numpy reports an OpenBLAS build, a lookup that finds no thread count
    fails: pooled points would then run BLAS threads on every worker."""
    functions = experiments._openblas_thread_functions()
    if functions is None:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert "openblas" not in blas["name"].lower(), (
            f"numpy's BLAS is {blas['name']}, but no OpenBLAS thread count was found"
        )
        pytest.skip("numpy's BLAS exposes no OpenBLAS thread count")
    get_threads, set_threads = functions
    before = get_threads()
    set_threads(2)
    seen = []
    original = experiments.sample_null_rng

    def observing(*args, **kwargs):
        seen.append(get_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "sample_null_rng", observing)
    yield get_threads, seen
    set_threads(before)


class TestBlasPin:
    def test_pooled_point_pins_and_restores(self, blas_threads):
        get_threads, seen = blas_threads
        estimate_risk(pool_plan(), threads=2)
        assert set(seen) == {1}
        assert get_threads() == 2

    def test_restored_after_a_point_raises(self, blas_threads):
        get_threads, _ = blas_threads
        with pytest.raises(ValidationError, match=re.escape(VACUOUS)):
            estimate_risk(pool_plan(tau_count=1e6), threads=2)
        assert get_threads() == 2

    def test_one_worker_point_leaves_blas_alone(self, blas_threads):
        get_threads, seen = blas_threads
        estimate_risk(small_plan(), threads=2)
        estimate_risk(pool_plan(), threads=1)
        assert set(seen) == {2}
        assert get_threads() == 2

    def test_concurrent_points_restore_the_original(self, blas_threads):
        """More callers than cores, with short switch intervals: the pin
        holds while any pooled point runs, and the last one out restores."""
        get_threads, seen = blas_threads
        callers_n = 4
        barrier = threading.Barrier(callers_n)
        errors = []

        def run(seed):
            try:
                barrier.wait(timeout=60)
                estimate_risk(pool_plan(seed=seed), threads=2)
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        callers = [
            threading.Thread(target=run, args=(seed,)) for seed in range(callers_n)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for caller in callers:
                caller.start()
            for caller in callers:
                caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert errors == []
        assert set(seen) == {1}
        assert get_threads() == 2

    def test_same_bytes_without_a_blas_library(self, monkeypatch):
        plan = pool_plan()
        pinned = estimates_to_csv(estimate_risk(plan, threads=2))
        monkeypatch.setattr(experiments, "_openblas_thread_functions", lambda: None)
        assert estimates_to_csv(estimate_risk(plan, threads=2)) == pinned


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
        """Refused over the work budget, by pairs of row multisets (n=3,
        d=6), by DP steps per block (n=16, d=1) and by kernel rows (n=1,
        d=13); runs of about a second at n=6, d=3 and n=4, d=4 are within
        it."""
        for n, d in ((3, 6), (16, 1), (1, 13)):
            assert experiments._tv_work(2, n, d) > experiments.TV_MAX_WORK
            with pytest.raises(CapacityError):
                exact_tv_small(diag_model(), n, d)
        for n, d in ((6, 3), (4, 4), (14, 1), (1, 12)):
            assert experiments._tv_work(2, n, d) <= experiments.TV_MAX_WORK

    def test_oracle_risk_is_the_optimal_risk_at_fixed_d(self):
        """In the paper's fixed-d regime, n=6 and d=3: the mixture oracle's
        Monte-Carlo risk is within 3 sigma of the exact optimal risk 1 - TV."""
        model = make_bernoulli(0.6, 0.3)
        _, bayes = exact_tv_small(model, 6, 3)
        plan = TrialPlan(
            model=model, n=6, d=3, trials=4000, seed=63, detectors=("np-oracle",)
        )
        (oracle,) = estimate_risk(plan)
        assert abs(oracle.risk - bayes) <= 3.0 * oracle.stderr

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
        # rho = 0.2 keeps 19 eigenvalues, so n = 20,000 needs 4.0e8 steps
        n = 20_000
        assert n * (n + gaussian_profile(0.2).eigenvalues.size) > MOMENT_MAX_WORK
        with pytest.raises(CapacityError):
            bound_report(gauss(0.2), n=n, d=3)

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
