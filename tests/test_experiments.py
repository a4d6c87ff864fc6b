"""Risk harness, sweeps, exact total-variation oracle, bound report."""

import itertools
import math
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbdetect import cli, detectors, experiments
from dbdetect import rng as rngmod
from dbdetect.errors import (
    CapacityError,
    DegenerateModelError,
    DetectionError,
    ValidationError,
)
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
    subset_dp_exact_tv,
)

TV_MODELS = {
    "bernoulli": lambda: make_bernoulli(0.6, 0.3),
    "diag": diag_model,
    "random3": lambda: random_discrete_model(np.random.default_rng(23), 3),
}


def tv_oracle_grid():
    """(model name, n, d) for every n <= 6 and d whose C(m^d + n - 1, n) row
    multisets number at most 2,000."""
    for name, model in TV_MODELS.items():
        m = model().alphabet_size
        for n in range(1, 7):
            d = 1
            while math.comb(m**d + n - 1, n) <= 2000:
                yield name, n, d
                d += 1


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
    """A Gaussian sum+count point big enough (work 1.2e6, see
    ``experiments.point_work``) to run on the process pool when a run has
    two or more workers."""
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


# tests that check a pool was used need two cores: with one, every point runs
# in process
two_cores = pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="a run pools its points on two or more cores"
)


@pytest.fixture
def pooled(monkeypatch):
    """Every point of a run with two or more workers goes to the process
    pool, however small."""
    monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces the harness's in-process pool by a real one that records the
    per-block results of each point."""
    log = {"results": []}

    class RecordingPool(ThreadPoolExecutor):
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
        """The harness builds each pair's LLR matrix once, however many
        detectors read it; a call builds one matrix per pair of its stack."""
        built = []
        original = detectors.pair_llr_matrix

        def counting(model, x, y):
            built.append(x.size // (x.shape[-2] * x.shape[-1]))
            return original(model, x, y)

        monkeypatch.setattr(detectors, "pair_llr_matrix", counting)
        plan = TrialPlan(
            model=make_bernoulli(0.6, 0.3), n=5, d=6, trials=4, seed=1,
            detectors=("glrt", "count", "np-oracle", "glrt"), tau_count="half-kl",
        )
        estimate_risk(plan, threads=1)
        assert sum(built) == 2 * plan.trials


VACUOUS = (
    "count-test threshold is vacuous: pd = 0 (tau_count above the reachable "
    "LLR range)"
)


class TestDeferredCountDecisions:
    """A point settles its count threshold (the pd plan, whose Monte-Carlo
    pass a pooled run queues on the process pool ahead of the trial blocks)
    before any trial's error can surface, and takes its count decisions once
    all its blocks are in; none of that shows in the outputs."""

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
    def test_csv_bytes_equal_across_threads(self, plan, monkeypatch):
        """The same bytes at 1, 2 and 8 threads, with the point in process
        and with it on the process pool."""
        outputs = {estimates_to_csv(estimate_risk(plan, threads=t)) for t in (1, 2, 8)}
        monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)
        outputs |= {estimates_to_csv(estimate_risk(plan, threads=t)) for t in (1, 2, 8)}
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
            TrialPlan(
                model=make_bernoulli(0.7, 0.4), n=7, d=6, trials=25, seed=9,
                detectors=("np-oracle",),
            ),
        ],
        ids=["bernoulli-glrt-count", "np-oracle-glrt", "np-oracle"],
    )
    def test_blocks_are_invisible_in_the_output(
        self, plan, threads, monkeypatch, recording_pool
    ):
        """A stack budget below one trial's matrices makes every trial a
        block of its own, with a stack of two: the CSV bytes are those of
        the default, where the point is one block.  Both points are small
        enough to run in process."""
        default = estimates_to_csv(estimate_risk(plan, threads=threads))
        monkeypatch.setattr(experiments, "LLR_STACK_BYTES", 1)
        assert estimates_to_csv(estimate_risk(plan, threads=threads)) == default
        units = [len(results) for results in recording_pool["results"]]
        assert units == [1, plan.trials]

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


class TestSubBlocks:
    """A block draws its pairs and computes their LLR matrices a sub-block
    at a time; how many pairs a sub-block holds changes no statistic."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "model", [gauss(0.6), make_bernoulli(0.6, 0.3)], ids=["gaussian", "bernoulli"]
    )
    @pytest.mark.parametrize(
        "names,n,d,trials",
        [
            (("glrt", "sum", "count", "np-oracle"), 6, 4, 9),
            (("sum", "count"), 50, 100, 6),
        ],
        ids=["all-detectors", "sum-count"],
    )
    def test_statistics_bit_identical_across_sub_block_sizes(
        self, model, names, n, d, trials, workers, monkeypatch
    ):
        """Every block's statistics are the same bytes with one pair per
        sub-block, one trial (two pairs) per sub-block and the whole block
        in one sub-block, for the blocks of one worker and of two, each run
        by ``run_unit`` in process as a worker process runs it; so are the
        point's CSV bytes.  The blocks of two workers, joined, are those of
        one."""
        plan = TrialPlan(
            model=model, n=n, d=d, trials=trials, seed=21, detectors=names,
            tau_count="half-kl", pd_samples=2000,
        )
        detectors = experiments.prepare(
            model, n, d, plan, experiments.count_plans(plan, (model,))
        )
        blocks = experiments._trial_blocks(detectors, n, trials, workers)
        assert len(blocks) == (1 if workers == 1 else 2 if "glrt" in names else 6)
        runs = []
        for budget in (1, 16 * n * max(n, d), 1 << 40):
            monkeypatch.setattr(experiments, "SUB_BLOCK_BYTES", budget)
            units = [experiments.run_unit(model, n, d, plan, 0, b) for b in blocks]
            csv = estimates_to_csv(estimate_risk(plan, threads=1))
            runs.append((csv, [unit.tobytes() for unit in units]))
        assert runs[0] == runs[1] == runs[2]
        whole = experiments.run_unit(model, n, d, plan, 0, range(trials))
        assert np.concatenate(units).tobytes() == whole.tobytes()


def per_point_sweep(plan):
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
                    rows += experiments._run_point(model, n, d, plan, index, plans)
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
        expected, errors = per_point_sweep(plan)
        assert errors == []
        assert estimates_to_csv(rows) == estimates_to_csv(expected)
        assert len(calls) == 2 + 18  # the per-point run: one pass a point

    @two_cores
    def test_pooled_sweep_stores_one_pass_per_d(self, monkeypatch, pooled):
        """On the pool, the sweep's table stores one pass per d, run by a
        worker process, and its rows are those of the points run one by
        one in process."""
        plan = TrialPlan(
            model=gauss(0.5), n=10, d=4, trials=6, seed=3,
            detectors=("sum", "count"), tau_count="half-kl", pd_samples=3000,
            sweep=SweepGrid(param_values=(0.3, 0.9), n_values=(5, 10), d_values=(4, 8)),
        )
        stored = []
        original = detectors.CountPlans.store

        def logging(self, members, d, estimates):
            stored.append((len(members), d))
            return original(self, members, d, estimates)

        monkeypatch.setattr(detectors.CountPlans, "store", logging)
        rows = sweep(plan, threads=2)
        assert stored == [(2, 4), (2, 8)]
        expected, errors = per_point_sweep(plan)
        assert errors == []
        assert estimates_to_csv(rows) == estimates_to_csv(expected)

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

    @pytest.mark.parametrize("on_pool", [False, True], ids=["in-process", "pooled"])
    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("params", [(0.3, 0.9), (0.9, 0.3)])
    def test_vacuous_member_fails_at_its_own_points(
        self, params, threads, on_pool, monkeypatch
    ):
        """At tau_count = 0.8 and d = 4 no draw reaches the level for
        rho = 0.3 (pd = 0) while rho = 0.9 has pd > 0: only rho = 0.3's
        points fail, whether the shared pass ran at one of them or not, and
        whether the points ran on the process pool or in process; the
        rows and messages are those of the points run one by one."""
        if on_pool:
            monkeypatch.setattr(experiments, "POOL_MIN_WORK", 0)
        plan = TrialPlan(
            model=gauss(0.5), n=6, d=4, trials=5, seed=5,
            detectors=("sum", "count"), tau_count=0.8, pd_samples=2000,
            sweep=SweepGrid(param_values=params, n_values=(5, 6)),
        )
        errors = []
        rows = sweep(plan, threads=threads, error_sink=errors)
        expected_rows, expected_errors = per_point_sweep(plan)
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


def public_decisions(plan, on_pool):
    """The harness's thresholds and decisions ``[hypothesis, detector,
    trial]`` at point 0 of ``plan``, its blocks run in process or queued on
    a process pool of two workers, and the same from the public detectors
    on the pairs drawn from the same substreams."""
    model, n, d = plan.model, plan.n, plan.d
    plans = experiments.count_plans(plan, (model,))
    queued = None
    if on_pool:
        detectors_ = experiments.prepare(model, n, d, plan, plans)
        pool = experiments._process_pool(2)
        queued = [
            pool.submit(experiments.run_unit, model, n, d, plan, 0, block)
            for block in experiments._trial_blocks(detectors_, n, plan.trials, 2)
        ]
    prepared, decisions = experiments._point_records(
        model, n, d, plan, 0, plans, queued
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

    @pytest.mark.parametrize("on_pool", [False, True], ids=["in-process", "pooled"])
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
    def test_decisions_equal_the_public_detectors(self, plan, on_pool):
        got_thresholds, got, thresholds, expected = public_decisions(plan, on_pool)
        assert got.shape == (2, len(plan.detectors), plan.trials)
        assert got_thresholds == thresholds
        assert np.array_equal(got, expected)
        # both hypotheses and both outcomes occur, so the check has teeth
        assert got.any() and not got.all()

    @pytest.mark.parametrize("on_pool", [False, True], ids=["in-process", "pooled"])
    @pytest.mark.parametrize(
        "plan",
        [
            # null statistics 0.101-0.173, dependent ones 0.157-0.220; the
            # greedy assignment certifies 4 of the 24 matrices
            TrialPlan(
                model=gauss(0.5), n=20, d=10, trials=12, seed=24,
                detectors=("glrt",), tau_glrt=0.16,
            ),
            # null statistics 0.012-0.040, median 0.0269; 12 of 24 certified
            TrialPlan(
                model=make_bernoulli(0.6, 0.3), n=20, d=30, trials=12, seed=25,
                detectors=("glrt",), tau_glrt=0.027,
            ),
        ],
        ids=["gaussian-between", "bernoulli-null-median"],
    )
    def test_scan_decisions_inside_the_statistic_range(self, plan, on_pool):
        """At a cut inside the range of the scan statistics, where the
        greedy assignment certifies some matrices and the solver decides
        the rest, every decision is the public detector's, and the glrt
        row shows both outcomes."""
        got_thresholds, got, thresholds, expected = public_decisions(plan, on_pool)
        assert got_thresholds == thresholds
        assert np.array_equal(got, expected)
        assert got[:, 0].any() and not got[:, 0].all()


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


class TestProcessPool:
    """Large points run their trial blocks in one spawn process pool per
    run, made on first use and reused; small points run in process."""

    @pytest.mark.parametrize(
        "plan,expected",
        [
            (pool_plan(n=100, d=10, trials=300), True),  # benchmark mc-sum-count
            (pool_plan(n=100, d=100, trials=300), True),
            (pool_plan(detectors=("sum",), n=100, d=2, trials=2000), True),
            (pool_plan(detectors=("count",), n=100, d=2, trials=2000), True),
            (pool_plan(detectors=("glrt",), n=100, d=10, trials=8), False),  # mc-scan
            (pool_plan(detectors=("glrt", "count"), n=100, d=100, trials=8), False),
            (pool_plan(detectors=("np-oracle", "glrt"), n=8, d=10, trials=50), False),
            (pool_plan(detectors=("sum",), n=49, d=100, trials=50), False),
        ],
        ids=[
            "sum-count-d10", "sum-count-d100", "criterion-6-sum-d2",
            "criterion-6-count-d2", "scan-gaussian", "scan-bernoulli", "oracle",
            "small-sum",
        ],
    )
    def test_work_decides_where_a_point_runs(self, plan, expected):
        work = experiments.point_work(plan, plan.n, plan.d)
        assert (work >= experiments.POOL_MIN_WORK) == expected

    def test_small_points_start_no_pool(self):
        experiments.shutdown_pool()
        estimate_risk(small_plan(), threads=2)
        sweep(small_plan(sweep=SweepGrid(d_values=(2, 3))), threads=8)
        assert experiments._POOL is None

    @two_cores
    def test_one_pool_serves_every_call(self):
        experiments.shutdown_pool()
        estimate_risk(pool_plan(), threads=2)
        pool = experiments._POOL
        assert pool is not None
        estimate_risk(pool_plan(seed=13), threads=8)
        sweep(pool_plan(sweep=SweepGrid(param_values=(0.3, 0.6))), threads=2)
        assert experiments._POOL is pool

    @two_cores
    @pytest.mark.parametrize("value", [None, "3"])
    def test_parent_environment_unchanged(self, value, monkeypatch):
        """Workers start with one OpenBLAS thread; the caller's
        ``OPENBLAS_NUM_THREADS`` is as it was, set or not."""
        if value is None:
            monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        else:
            monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        experiments.shutdown_pool()
        estimate_risk(pool_plan(), threads=2)
        assert os.environ.get("OPENBLAS_NUM_THREADS") == value
        pool = experiments._POOL
        seen = pool.submit(os.getenv, "OPENBLAS_NUM_THREADS").result(timeout=60)
        assert seen == "1"

    @two_cores
    def test_concurrent_runs_share_one_pool(self, pooled):
        """More callers than cores, with short switch intervals: one pool
        of two workers serves them all, and each run's bytes are its own
        in-process bytes."""
        experiments.shutdown_pool()
        plans = [pool_plan(seed=seed, trials=6) for seed in range(4)]
        expected = [estimates_to_csv(estimate_risk(p, threads=1)) for p in plans]
        barrier = threading.Barrier(len(plans))
        got, errors = {}, []

        def run(k):
            try:
                barrier.wait(timeout=60)
                got[k] = estimates_to_csv(estimate_risk(plans[k], threads=2))
            except Exception as exc:  # surfaced by the assertion below
                errors.append(exc)

        callers = [threading.Thread(target=run, args=(k,)) for k in range(len(plans))]
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
        assert [got[k] for k in range(len(plans))] == expected
        assert len(multiprocessing.active_children()) == 2

    @two_cores
    def test_no_child_alive_after_shutdown(self):
        estimate_risk(pool_plan(), threads=2)
        children = multiprocessing.active_children()
        assert len(children) == 2
        experiments.shutdown_pool()
        assert not any(child.is_alive() for child in children)
        assert multiprocessing.active_children() == []
        assert experiments._POOL is None

    @pytest.mark.parametrize(
        "plan,error",
        [
            (small_plan(model=independent_model(), n=5, d=3), DegenerateModelError),
            (small_plan(n=200_000, d=1, detectors=("count",), tau_count=0.1),
             CapacityError),
        ],
        ids=["degenerate", "capacity"],
    )
    def test_worker_error_keeps_type_and_message(self, plan, error):
        with pytest.raises(error) as local:
            experiments.run_unit(plan.model, plan.n, plan.d, plan, 0, range(4))
        future = experiments._process_pool(2).submit(
            experiments.run_unit, plan.model, plan.n, plan.d, plan, 0, range(4)
        )
        with pytest.raises(error) as remote:
            future.result(timeout=60)
        assert type(remote.value) is error
        assert str(remote.value) == str(local.value)

    @two_cores
    def test_dead_worker_raises_one_error_and_the_next_run_gets_a_pool(self):
        plan = pool_plan()
        expected = estimates_to_csv(estimate_risk(plan, threads=1))
        experiments._process_pool(2)
        victim = multiprocessing.active_children()[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=60)
        assert not victim.is_alive()
        with pytest.raises(DetectionError) as info:
            estimate_risk(plan, threads=2)
        assert type(info.value) is DetectionError
        assert str(info.value) == (
            "a worker process died while running risk point param=0.3 n=100 "
            "d=100; the likely cause is a script that starts a pooled run "
            'without `if __name__ == "__main__":`, which each worker process '
            "runs again when it imports the script"
        )
        assert info.value.__suppress_context__
        assert experiments._POOL is None
        assert estimates_to_csv(estimate_risk(plan, threads=2)) == expected

    @two_cores
    def test_unguarded_script_is_named_as_the_cause(self, tmp_path):
        """A script that starts a pooled run at module level, without the
        ``__main__`` guard, fails with the one ``DetectionError``, which
        names the guard: each spawned worker imports the script again and
        dies starting a pool of its own."""
        script = tmp_path / "unguarded.py"
        script.write_text(
            "from dbdetect.experiments import TrialPlan, estimate_risk\n"
            "from dbdetect.models import GaussianModel\n"
            "estimate_risk(TrialPlan(model=GaussianModel(0.3), n=100, d=100,\n"
            "    trials=40, seed=12, detectors=('sum',)), threads=2)\n"
        )
        src = os.path.dirname(os.path.dirname(experiments.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        result = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            env=env, timeout=300,
        )
        assert result.returncode == 1
        (error,) = [
            line for line in result.stderr.splitlines()
            if line.startswith("dbdetect.errors.DetectionError: ")
        ]
        assert "a worker process died" in error
        assert 'without `if __name__ == "__main__":`' in error


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

    def test_n_zero_is_a_point_error(self):
        """n = 0 fails at its own point, before any draw, and n = 4 runs."""
        plan = small_plan(
            trials=6, detectors=("sum", "count", "glrt"), tau_count="half-kl",
            pd_samples=500, sweep=SweepGrid(n_values=(0, 4)),
        )
        errors = []
        rows = sweep(plan, error_sink=errors)
        assert [(e.n, e.message) for e in errors] == [(0, "n must be >= 1, got 0")]
        assert [(r.n, r.detector) for r in rows] == [
            (4, "sum"), (4, "count"), (4, "glrt")
        ]

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
        d=6), by levels of the recurrence (n=20, d=2, the smallest n refused
        at d=2) and by kernel rows (n=1, d=13); n=6, d=3, n=4, d=4, n=14,
        d=1, n=16, d=1 and n=1, d=12 are within it."""
        for n, d in ((3, 6), (20, 2), (1, 13)):
            assert experiments._tv_work(2, n, d) > experiments.TV_MAX_WORK
            with pytest.raises(CapacityError):
                exact_tv_small(diag_model(), n, d)
        assert experiments._tv_work(2, 19, 2) <= experiments.TV_MAX_WORK
        for n, d in ((6, 3), (4, 4), (14, 1), (16, 1), (1, 12)):
            assert experiments._tv_work(2, n, d) <= experiments.TV_MAX_WORK
            table_bytes = experiments._tv_table_bytes(2**d, n)
            assert table_bytes <= experiments.TV_TABLE_BYTES

    def test_table_byte_guard(self, monkeypatch):
        """A run whose level tables exceed ``TV_TABLE_BYTES`` is refused
        by arithmetic, before any table is built."""
        table_bytes = experiments._tv_table_bytes(8, 6)
        monkeypatch.setattr(experiments, "TV_TABLE_BYTES", table_bytes - 1)
        with pytest.raises(CapacityError, match="bytes of level tables"):
            exact_tv_small(make_bernoulli(0.6, 0.3), 6, 3)
        monkeypatch.setattr(experiments, "TV_TABLE_BYTES", table_bytes)
        exact_tv_small(make_bernoulli(0.6, 0.3), 6, 3)

    @pytest.mark.parametrize("n,d", [(4, 4), (1, 12)])
    def test_peak_memory_is_bounded(self, n, d):
        """The traced peak stays within the level tables and
        ``TV_BLOCK_BYTES``: no R x R kernel (134 MB at n=1, d=12) and no
        whole gather table of level n - 1 by level n."""
        bound = experiments._tv_table_bytes(2**d, n) + experiments.TV_BLOCK_BYTES
        tracemalloc.start()
        try:
            exact_tv_small(make_bernoulli(0.6, 0.3), n, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

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

    @pytest.mark.parametrize("m,d", [(2, 1), (2, 6), (3, 4), (4, 3)])
    def test_kernel_rows_are_the_per_feature_products(self, m, d):
        """Each kernel row, built as a Kronecker product, equals the product
        of the joint-table entries of its features, taken left to right."""
        rng = np.random.default_rng(10 * m + d)
        model = make_bernoulli(0.6, 0.3) if m == 2 else random_discrete_model(rng, m)
        row_symbols = np.array(list(itertools.product(range(m), repeat=d)))
        rows = rng.integers(0, m**d, size=9)
        expected = np.ones((len(rows), m**d))
        for feature in range(d):
            symbols = row_symbols[:, feature]
            expected *= model.joint[symbols[rows][:, None], symbols[None, :]]
        got = experiments._row_pair_prob(model, d, rows)
        np.testing.assert_array_equal(got, expected)

    def test_states_span_several_blocks(self, monkeypatch):
        # 2^(3*2) = 64 ordered x-databases are 20 row multisets
        monkeypatch.setattr(experiments, "TV_BLOCK_BYTES", 4096)
        width, _ = experiments._tv_level_shape(10, 20, 3)
        assert width < 20
        model = make_bernoulli(0.6, 0.3)
        tv, _ = exact_tv_small(model, 3, 2)
        assert tv == pytest.approx(dense_exact_tv(model, 3, 2), abs=1e-13)

    @pytest.mark.parametrize("model_name,n,d", list(tv_oracle_grid()))
    def test_matches_subset_dp(self, model_name, n, d):
        """On every size with at most 2,000 row multisets up to n=6, TV is
        within 1e-13 of the subset DP over column sets."""
        model = TV_MODELS[model_name]()
        tv, risk = exact_tv_small(model, n, d)
        assert tv == pytest.approx(subset_dp_exact_tv(model, n, d), abs=1e-13)
        assert risk == 1.0 - tv

    @pytest.mark.parametrize(
        "model_name,n,d,block_bytes",
        [
            ("bernoulli", 3, 4, 1 << 15),
            ("diag", 6, 2, 1 << 14),
            ("random3", 4, 2, 1 << 14),
            ("bernoulli", 2, 5, 1 << 15),
            ("diag", 1, 8, 1 << 15),
        ],
    )
    def test_matches_subset_dp_in_small_blocks(
        self, monkeypatch, model_name, n, d, block_bytes
    ):
        """With ``TV_BLOCK_BYTES`` small, a level runs in several column
        blocks and in chunks of each kind (pieces of one row type's block,
        runs of several blocks) and the kernel in several panels, and TV is
        unchanged."""
        monkeypatch.setattr(experiments, "TV_BLOCK_BYTES", block_bytes)
        model = TV_MODELS[model_name]()
        rows = model.alphabet_size**d
        panel_rows = experiments._tv_panel_rows(rows)
        kinds = set()
        for k in range(1, n + 1):
            prev, size = math.comb(rows + k - 2, k - 1), math.comb(rows + k - 1, k)
            width, rows_cap = experiments._tv_level_shape(prev, size, k)
            kinds.add("column blocks" if width < size else "one block")
            for lo, hi, r_lo, r_hi in experiments._tv_chunks(
                rows, k, width, rows_cap, panel_rows
            ):
                assert hi - lo <= rows_cap
                assert r_lo // panel_rows == (r_hi - 1) // panel_rows
                kinds.add("run" if r_hi - r_lo > 1 else "piece")
        assert "column blocks" in kinds
        assert ("run" in kinds) == (panel_rows > 1)  # runs stay within a panel
        assert ("piece" in kinds) == (n > 1 or panel_rows == 1)
        assert (panel_rows < rows) == (d >= 5)
        tv, _ = exact_tv_small(model, n, d)
        assert tv == pytest.approx(subset_dp_exact_tv(model, n, d), abs=1e-13)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.integers(1, 9), k=st.integers(1, 5))
    def test_colex_rank_is_a_bijection_in_order(self, rows, k):
        """The colex rank maps the k-multisets of range(rows), sorted by
        their largest elements first, one to one and in order onto
        range(C(rows + k - 1, k)), and the level construction lists them in
        that order."""
        multisets = sorted(
            itertools.combinations_with_replacement(range(rows), k),
            key=lambda ids: ids[::-1],
        )
        binom = experiments._binomials(rows + k, k)
        ranks = experiments._colex_rank(np.array(multisets), binom)
        np.testing.assert_array_equal(ranks, np.arange(math.comb(rows + k - 1, k)))
        states = np.zeros((1, 0), dtype=np.int64)
        for _ in range(k):
            states = experiments._colex_level(states, rows, binom)
        np.testing.assert_array_equal(states, np.array(multisets))

    def test_row_orders(self):
        states = np.array([[0, 0, 0], [0, 0, 1], [0, 1, 2], [1, 1, 2], [2, 2, 2]])
        np.testing.assert_array_equal(experiments._row_orders(states), [1, 3, 6, 3, 1])


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
