"""Detectors: scan, sum, count, and the exact mixture oracle."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from dbdetect import detectors
from dbdetect import rng as rngmod
from dbdetect.detectors import (
    NP_ORACLE_MAX_N,
    CountPlans,
    CountTestPlan,
    PairCache,
    _exact_pd,
    _log_permanent_ratios,
    _monte_carlo_pd,
    count_test,
    glrt,
    make_count_plan,
    np_oracle,
    sum_test,
)
from dbdetect.errors import (
    CapacityError,
    DegenerateModelError,
    DomainError,
    ValidationError,
)
from dbdetect.experiments import TrialPlan, estimate_risk
from dbdetect.exponents import (
    centered_kernel,
    kl_divergences,
    llr_atoms,
    var_q_centered_kernel,
)
from dbdetect.models import (
    DatabasePair,
    GaussianModel,
    make_bernoulli,
    pair_llr,
    pair_llr_matrix,
    sample_alt_rng,
    sample_null,
    sample_null_rng,
)

from helpers import (
    BAD_OBSERVATIONS,
    avx512_dispatch_targets,
    bad_observation,
    bern55,
    brute_force_max_assignment,
    diag_model,
    full_chunk_monte_carlo_pd,
    gauss,
    independent_model,
    per_pair_log_permanent_ratio,
    permutation_log_statistic,
    random_discrete_model,
    recursive_exact_pd,
    sum_test_exact_risk,
    with_bad_entry,
)


def oracle_laws():
    """Three Bernoulli laws and four random 2x2 and 3x3 laws (3 and 6 LLR
    atoms), and a random 4x4 law (10 atoms)."""
    rng = np.random.default_rng(15)
    laws = [make_bernoulli(0.6, 0.3), make_bernoulli(0.55, 0.35), bern55()]
    laws += [random_discrete_model(rng, m) for m in (2, 2, 3, 3)]
    return laws + [random_discrete_model(rng, 4)]


def pair_of(x, y, sigma=None):
    return DatabasePair(x=np.asarray(x), y=np.asarray(y), hidden_sigma=sigma)


class TestGLRT:
    def test_single_row_thresholds_one_llr(self):
        model = diag_model()
        pair = pair_of([[0, 0]], [[0, 1]])
        verdict = glrt(model, pair, tau=0.0)
        expected = pair_llr(model, [0, 0], [0, 1]) / 2.0
        assert verdict.statistic == pytest.approx(expected, rel=1e-12)
        assert verdict.decision == int(verdict.statistic >= 0.0)
        assert verdict.detector == "glrt"

    @pytest.mark.parametrize("trial", range(25))
    def test_equals_brute_force_on_random_instances(self, trial):
        rng = np.random.default_rng(500 + trial)
        n = int(rng.integers(1, 8))
        model = random_discrete_model(rng, 3)
        pair = sample_alt_rng(model, n, 2, rng)
        verdict = glrt(model, pair, tau=0.0)
        c = np.array(
            [[pair_llr(model, pair.x[i], pair.y[j]) for j in range(n)] for i in range(n)]
        )
        _, best = brute_force_max_assignment(c)
        assert verdict.statistic * (2 * n) == pytest.approx(best, abs=1e-9)
        sigma = verdict.aux["sigma"]
        achieved = sum(c[i, sigma[i]] for i in range(n))
        assert achieved == pytest.approx(best, abs=1e-9)

    def test_assignment_value_invariant_to_row_reordering(self):
        rng = np.random.default_rng(3)
        model = gauss(0.7)
        pair = sample_alt_rng(model, 12, 4, rng)
        verdict = glrt(model, pair)
        perm = rng.permutation(12)
        shuffled = pair_of(pair.x, pair.y[perm])
        assert glrt(model, shuffled).statistic == pytest.approx(
            verdict.statistic, rel=1e-12
        )

    def test_rejects_data_off_support(self):
        model = make_bernoulli(1.0, 0.5)  # zero off-diagonal cells
        pair = pair_of([[0], [1]], [[1], [0]])
        with pytest.raises((ValidationError, DegenerateModelError)):
            glrt(model, pair)

    @pytest.mark.parametrize("side", ["x", "y"])
    @pytest.mark.parametrize("detector", ["sum", "glrt", "count", "np-oracle"])
    @pytest.mark.parametrize("case", list(BAD_OBSERVATIONS))
    def test_rejects_non_finite_gaussian_data(self, case, detector, side):
        """Every detector rejects a value outside the model's observation
        contract, on either side, with the contract's one DomainError."""
        model, bad, message = bad_observation(case)
        data = {"x": np.zeros((3, 2)), "y": np.zeros((3, 2))}
        data[side] = with_bad_entry(bad, (3, 2))
        pair = pair_of(data["x"], data["y"])
        plan = CountTestPlan(tau_count=0.0, pd=0.5, pd_method="monte-carlo")
        run = {
            "sum": lambda: sum_test(model, pair),
            "glrt": lambda: glrt(model, pair),
            "count": lambda: count_test(model, pair, plan),
            "np-oracle": lambda: np_oracle(model, pair),
        }[detector]
        with pytest.raises(DomainError) as err:
            run()
        assert str(err.value) == message


class TestSumTest:
    def test_independent_model_guarded(self):
        pair = sample_null(independent_model(), 4, 2, seed=0)
        with pytest.raises(DegenerateModelError):
            sum_test(independent_model(), pair)

    def test_gaussian_statistic_matches_direct_sum(self):
        model = gauss(0.6)
        rng = np.random.default_rng(2)
        pair = sample_alt_rng(model, 7, 3, rng)
        direct = sum(
            centered_kernel(model, pair.x[i, l], pair.y[j, l])
            for i in range(7)
            for j in range(7)
            for l in range(3)
        )
        verdict = sum_test(model, pair)
        assert verdict.statistic == pytest.approx(direct, rel=1e-10)
        assert verdict.threshold == pytest.approx(
            3 * 7 * kl_divergences(model).skl, rel=1e-12
        )
        assert verdict.decision == int(verdict.statistic >= verdict.threshold)

    def test_discrete_statistic_matches_direct_sum(self):
        model = diag_model()
        rng = np.random.default_rng(6)
        pair = sample_null_rng(model, 6, 4, rng)
        direct = sum(
            centered_kernel(model, pair.x[i, l], pair.y[j, l])
            for i in range(6)
            for j in range(6)
            for l in range(4)
        )
        assert sum_test(model, pair).statistic == pytest.approx(direct, rel=1e-10)

    def test_statistic_exactly_invariant_to_row_reordering(self):
        model = diag_model()
        rng = np.random.default_rng(8)
        pair = sample_null_rng(model, 10, 5, rng)
        baseline = sum_test(model, pair).statistic
        perm = rng.permutation(10)
        shuffled = pair_of(pair.x, pair.y[perm])
        assert sum_test(model, shuffled).statistic == baseline

    def test_null_mean_and_variance(self):
        """10^4 null trials at n=20, d=50: empirical mean within 4 standard
        errors of 0 and empirical variance within 5% of d n^2 Var_Q."""
        model = gauss(0.35)
        n, d, trials = 20, 50, 10_000
        stats = np.empty(trials)
        for t in range(trials):
            pair = sample_null_rng(model, n, d, rngmod.substream(123, 77, t))
            stats[t] = sum_test(model, pair).statistic
        target_var = d * n * n * var_q_centered_kernel(model)
        assert abs(stats.mean()) < 4 * stats.std(ddof=1) / math.sqrt(trials)
        assert stats.var(ddof=1) == pytest.approx(target_var, rel=0.05)

    @pytest.mark.parametrize("n", (1, 30))
    def test_gaussian_risk_matches_exact_law(self, n):
        """Monte-Carlo risk at the default threshold within 3 standard errors
        of the exact, n-free risk R(d, rho)."""
        plan = TrialPlan(model=gauss(0.3), n=n, d=10, trials=2000, seed=64)
        (est,) = estimate_risk(plan)
        assert abs(est.risk - sum_test_exact_risk(10, 0.3)) <= 3.0 * est.stderr

    def test_custom_threshold(self):
        model = gauss(0.5)
        pair = sample_null(model, 3, 2, seed=5)
        verdict = sum_test(model, pair, tau=-1e9)
        assert verdict.decision == 1
        assert verdict.threshold == -1e9


class TestCountPlan:
    def test_exact_two_fold_example(self):
        plan = make_count_plan(diag_model(), d=2, tau_count=0.0)
        assert plan.pd == pytest.approx(0.64, abs=1e-12)
        assert plan.pd_method == "exact-convolution"

    def test_tau_below_minimum_gives_certainty(self):
        plan = make_count_plan(diag_model(), d=3, tau_count=-10.0)
        assert plan.pd == pytest.approx(1.0, abs=1e-12)

    def test_tau_above_maximum_gives_zero(self):
        plan = make_count_plan(diag_model(), d=3, tau_count=10.0)
        assert plan.pd == 0.0

    def test_exact_matches_atom_enumeration(self):
        """Independent oracle: enumerate all d-tuples of joint cells."""
        model = bern55()
        d, tau = 3, 0.05
        cells = [(x, y) for x in range(2) for y in range(2)]
        total = 0.0
        for combo in itertools.product(cells, repeat=d):
            prob = np.prod([model.joint[c] for c in combo])
            value = sum(model.llr_table[c] for c in combo)
            if value >= d * tau:
                total += prob
        plan = make_count_plan(model, d=d, tau_count=tau)
        assert plan.pd == pytest.approx(total, abs=1e-12)

    def test_monte_carlo_deterministic(self):
        a = make_count_plan(gauss(0.6), 4, 0.0, samples=20_000, seed=11)
        b = make_count_plan(gauss(0.6), 4, 0.0, samples=20_000, seed=11)
        assert a.pd == b.pd
        assert a.pd_method == "monte-carlo"
        assert a.pd_stderr > 0.0

    def test_monte_carlo_requires_seed(self):
        with pytest.raises(ValidationError, match="seed"):
            make_count_plan(gauss(0.6), 4, 0.0)

    def test_capacity_guard(self):
        rng = np.random.default_rng(0)
        model = random_discrete_model(rng, 6)  # up to 36 distinct atoms
        with pytest.raises(CapacityError):
            make_count_plan(model, d=64, tau_count=0.0)

    @pytest.mark.parametrize("law", range(8))
    def test_walk_equals_recursive_oracle(self, law):
        """The walk over atoms returns the recursion's pd to the bit, at
        levels inside, at the edges of and beyond the LLR range, wherever
        the recursion ran before (at most 2e6 compositions; the 4x4 law to
        d = 12).  Past 10^5 compositions only the half-KL level is run, to
        keep the recursion's time down."""
        model = oracle_laws()[law]
        k = len(llr_atoms(model))
        div = kl_divergences(model)
        taus = (0.5 * div.kl_pq, 0.0, div.kl_pq, -div.kl_qp, 0.3 * div.kl_pq, 1e3, -1e3)
        ds = (1, 2, 3, 5, 10, 12) if k == 10 else (1, 2, 3, 5, 10, 37, 100)
        for d in ds:
            compositions = math.comb(d + k - 1, k - 1)
            if compositions > 2_000_000:
                continue
            for tau in taus if compositions <= 10**5 else taus[:1]:
                assert _exact_pd(model, d, tau) == recursive_exact_pd(model, d, tau)

    def test_walk_equals_recursive_oracle_at_lattice_ties(self):
        """At tau = fl(C / d) for every composition's LLR sum C, where d * tau
        lands on C or beside it, both walks count the same compositions."""
        model = make_bernoulli(0.6, 0.3)
        values = llr_atoms(model).values
        d = 10
        sums = [
            0.0 + c0 * values[0] + c1 * values[1] + (d - c0 - c1) * values[2]
            for c0 in range(d + 1)
            for c1 in range(d + 1 - c0)
        ]
        assert any(d * (c / d) != c for c in sums)
        for c in sums:
            tau = c / d
            assert _exact_pd(model, d, tau) == recursive_exact_pd(model, d, tau)

    def test_exact_pd_matches_direct_simulation(self):
        """Dual route: the convolution tail agrees with simulating the
        matched-pair law directly."""
        model = make_bernoulli(0.55, 0.35)
        d, tau = 7, 0.08
        plan = make_count_plan(model, d, tau)
        rng = np.random.default_rng(123)
        samples = 400_000
        q = model.marginal
        cond = model.joint / q[:, None]
        x = (rng.random((samples, d)) > q[0]).astype(int)
        y = (rng.random((samples, d)) > cond[x][:, :, 0]).astype(int)
        sums = model.llr_table[x, y].sum(axis=1)
        mc = float((sums >= d * tau).mean())
        se = math.sqrt(mc * (1 - mc) / samples)
        assert abs(mc - plan.pd) < 4 * se


class TestMonteCarloPdKernel:
    @pytest.mark.parametrize("d", [1, 10, 100, 333])
    @pytest.mark.parametrize("rho", [0.25, 0.75, -0.5])
    def test_equals_full_chunk_expression(self, rho, d):
        """The blockwise z draws and per-block arithmetic reproduce the
        whole-chunk expression exactly; 100_001 samples end on a partial
        chunk for d >= 100."""
        model = gauss(rho)
        tau = 0.5 * kl_divergences(model).kl_pq
        assert _monte_carlo_pd([(model, tau)], d, 100_001, 7) == [
            full_chunk_monte_carlo_pd(model, d, tau, 100_001, 7)
        ]

    @pytest.mark.parametrize("d", [1, 2, 10, 100, 333])
    def test_shared_pass_equals_each_member_alone(self, monkeypatch, d):
        """One pass over the draws for five models gives each model's
        pd and pd_stderr bit for bit, as its own whole-chunk estimate and
        its own ``make_count_plan`` give them."""
        models = [gauss(rho) for rho in (-0.5, 0.05, 0.25, 0.75, 0.95)]
        table = CountPlans(models, "half-kl", samples=100_001, seed=7)
        calls = []
        original = detectors._monte_carlo_pd

        def counting(members, *args):
            calls.append([m for m, _ in members])
            return original(members, *args)

        monkeypatch.setattr(detectors, "_monte_carlo_pd", counting)
        shared = [table.get(model, d) for model in models]
        assert calls == [models]
        for model, plan in zip(models, shared):
            tau = 0.5 * kl_divergences(model).kl_pq
            alone = make_count_plan(model, d, tau, samples=100_001, seed=7)
            expected = full_chunk_monte_carlo_pd(model, d, tau, 100_001, 7)
            assert (plan.pd, plan.pd_stderr) == (alone.pd, alone.pd_stderr) == expected
            assert (plan.tau_count, plan.samples, plan.seed) == (tau, 100_001, 7)


class TestCountTest:
    def test_single_row_certain_detection(self):
        model = diag_model()
        plan = make_count_plan(model, d=1, tau_count=-10.0)
        pair = pair_of([[0]], [[1]])
        verdict = count_test(model, pair, plan)
        assert plan.pd == 1.0
        assert verdict.statistic == 1.0
        assert verdict.threshold == 0.5
        assert verdict.decision == 1
        assert verdict.aux["count"] == 1

    def test_vacuous_threshold_rejected(self):
        model = diag_model()
        plan = make_count_plan(model, d=2, tau_count=10.0)
        pair = sample_null(model, 2, 2, seed=1)
        with pytest.raises(ValidationError, match="vacuous"):
            count_test(model, pair, plan)

    def test_matched_pair_count_is_binomial(self):
        """Under the dependent law the matched rows exceed tau independently
        with probability pd: total matched-pair count over many trials sits
        within 4 sigma of its binomial mean."""
        model = gauss(0.99)
        n, d, trials = 100, 2, 40
        plan = make_count_plan(model, d, tau_count=0.0, samples=200_000, seed=5)
        total = 0
        for t in range(trials):
            pair = sample_alt_rng(model, n, d, rngmod.substream(55, 66, t))
            matched = sum(
                pair_llr(model, pair.x[i], pair.y[pair.hidden_sigma[i]]) / d >= 0.0
                for i in range(n)
            )
            total += matched
        mean = trials * n * plan.pd
        sd = math.sqrt(trials * n * plan.pd * (1 - plan.pd)) + 4 * trials * n * plan.pd_stderr
        assert abs(total - mean) <= 4 * sd

    def test_null_false_alarm_obeys_markov_bound(self):
        """Null decision-1 frequency stays below 2 n Q_d / pd (the union
        Markov step), with Q_d estimated by an independent Monte-Carlo."""
        model = gauss(0.6)
        n, d, trials = 10, 30, 300
        tau = 0.1
        plan = make_count_plan(model, d, tau, samples=300_000, seed=42)
        # independent estimate of the null per-pair exceedance
        rng = np.random.default_rng(901)
        hits = 0
        samples = 200_000
        rho, c = model.rho, 1 - model.rho**2
        for _ in range(4):
            a = rng.standard_normal((samples // 4, d))
            b = rng.standard_normal((samples // 4, d))
            vals = -0.5 * d * math.log(c) + (
                (-(a * a + b * b) * rho * rho + 2 * rho * a * b) / (2 * c)
            ).sum(axis=1)
            hits += int((vals >= d * tau).sum())
        q_d = hits / samples
        bound = 2 * n * q_d / plan.pd
        false_alarms = 0
        for t in range(trials):
            pair = sample_null_rng(model, n, d, rngmod.substream(77, 88, t))
            false_alarms += count_test(model, pair, plan).decision
        freq = false_alarms / trials
        assert freq <= min(1.0, bound) + 3 * math.sqrt(max(freq, 1e-3) / trials)

    def test_statistic_counts_row_pairs_by_brute_force(self):
        model = gauss(0.7)
        n, d, tau = 7, 3, 0.05
        pair = sample_null(model, n, d, seed=9)
        plan = make_count_plan(model, d, tau, samples=2000, seed=1)
        expected = sum(
            pair_llr(model, pair.x[i], pair.y[j]) / d >= tau
            for i in range(n)
            for j in range(n)
        )
        assert 0 < expected < n * n
        assert count_test(model, pair, plan).statistic == expected

    def test_level_is_compared_as_d_times_tau_count(self):
        """The statistic counts the row pairs whose LLR sum reaches d *
        tau_count, the comparison the pd plans count, also where that and
        C / d >= tau_count round apart: at tau_count = fl(C_ij / d) with
        fl(d * tau_count) > C_ij, the pair (i, j) is not counted."""
        model = gauss(0.6)
        n, d = 6, 7
        pair = sample_null(model, n, d, seed=5)
        llr = pair_llr_matrix(model, pair.x, pair.y)
        tau = next(c / d for c in llr.ravel() if d * (c / d) > c)
        plan = CountTestPlan(tau_count=tau, pd=0.5, pd_method="exact-convolution")
        statistic = count_test(model, pair, plan).statistic
        assert statistic == np.count_nonzero(llr >= d * tau)
        assert statistic == np.count_nonzero(llr / d >= tau) - 1

    def test_entries_at_the_level_are_counted(self):
        """An LLR entry exactly at the level d * tau_count counts (C >=
        d * tau_count): at d = 1 a Bernoulli pair's entries are the table's
        values themselves."""
        model = make_bernoulli(0.6, 0.3)
        tau = float(model.llr_table[1, 1])
        pair = sample_null(model, 20, 1, seed=4)
        llr = pair_llr_matrix(model, pair.x, pair.y)
        plan = CountTestPlan(tau_count=tau, pd=0.5, pd_method="exact-convolution")
        assert np.count_nonzero(llr == tau) > 0
        assert count_test(model, pair, plan).statistic == np.count_nonzero(llr >= tau)

    def test_shared_cache_gives_same_verdicts(self):
        model = make_bernoulli(0.6, 0.3)
        plan = make_count_plan(model, d=12, tau_count=0.05)
        pair = sample_null(model, 9, 12, seed=4)
        cache = PairCache(model, pair.x, pair.y)
        shared = (glrt(model, pair, cache=cache), count_test(model, pair, plan, cache))
        alone = (glrt(model, pair), count_test(model, pair, plan))
        for a, b in zip(shared, alone):
            assert (a.decision, a.statistic, a.threshold) == (
                b.decision, b.statistic, b.threshold
            )
        assert np.array_equal(shared[0].aux["sigma"], alone[0].aux["sigma"])
        assert cache.llr() is cache.llr()

    def test_aux_records(self):
        model = diag_model()
        plan = make_count_plan(model, d=1, tau_count=0.0)
        pair = sample_null(model, 3, 1, seed=3)
        verdict = count_test(model, pair, plan)
        assert verdict.aux["pd"] == plan.pd
        assert verdict.aux["tau_count"] == 0.0
        assert 0 <= verdict.aux["count"] <= 9


class TestNanThresholds:
    """A NaN threshold would make every comparison false; it is rejected."""

    def test_public_detectors_reject_nan(self):
        model = gauss(0.5)
        pair = sample_null(model, 6, 4, seed=3)
        with pytest.raises(ValidationError, match="tau must be a number"):
            glrt(model, pair, tau=math.nan)
        with pytest.raises(ValidationError, match="tau must be a number"):
            sum_test(model, pair, tau=math.nan)
        with pytest.raises(ValidationError, match="tau_count must be a number"):
            make_count_plan(model, 4, math.nan, samples=100, seed=1)
        with pytest.raises(ValidationError, match="tau_count must be a number"):
            make_count_plan(diag_model(), 4, math.nan)
        plan = CountTestPlan(tau_count=math.nan, pd=0.5, pd_method="exact-convolution")
        with pytest.raises(ValidationError, match="tau_count must be a number"):
            count_test(model, pair, plan)


class TestNPOracle:
    def test_single_row_rule(self):
        model = diag_model()
        pair = pair_of([[0]], [[0]])
        verdict = np_oracle(model, pair)
        assert verdict.statistic == pytest.approx(1.6, rel=1e-12)
        assert verdict.decision == 1
        pair2 = pair_of([[0]], [[1]])
        verdict2 = np_oracle(model, pair2)
        assert verdict2.statistic == pytest.approx(0.4, rel=1e-12)
        assert verdict2.decision == 0

    def test_independent_model_statistic_is_one(self):
        model = independent_model()
        for n in range(1, NP_ORACLE_MAX_N + 1):
            pair = sample_null(model, n, 2, seed=9)
            verdict = np_oracle(model, pair)
            assert verdict.aux["log_statistic"] == 0.0, n
            assert verdict.statistic == 1.0
            assert verdict.decision == 1  # ties decide dependent

    def test_capacity_guard(self):
        model = diag_model()
        pair = sample_null(model, NP_ORACLE_MAX_N + 1, 1, seed=1)
        with pytest.raises(CapacityError):
            np_oracle(model, pair)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_permutation_enumeration(self, n):
        rng = np.random.default_rng(100 + n)
        for model, d in ((diag_model(), 3), (bern55(), 5), (GaussianModel(0.6), 4)):
            for sampler in (sample_null_rng, sample_alt_rng):
                pair = sampler(model, n, d, rng)
                c = pair_llr_matrix(model, pair.x, pair.y)
                verdict = np_oracle(model, pair)
                assert verdict.aux["log_statistic"] == pytest.approx(
                    permutation_log_statistic(c), abs=1e-12
                )
                assert verdict.decision == int(verdict.aux["log_statistic"] >= 0.0)

    @pytest.mark.parametrize("n", [3, 6, 8])
    def test_permanent_far_below_row_maxima(self, n):
        # the best matching sits thousands of nats below the row maxima, where
        # exp(C - row max) alone would underflow to a zero permanent
        c = np.random.default_rng(n).normal(scale=500.0, size=(n, n))
        expected = permutation_log_statistic(c)
        assert _log_permanent_ratios(c) == pytest.approx(expected, rel=1e-12)

    def test_statistic_matches_direct_permanent(self):
        model = bern55()
        rng = np.random.default_rng(17)
        pair = sample_alt_rng(model, 4, 2, rng)
        direct = 0.0
        for perm in itertools.permutations(range(4)):
            direct += math.exp(
                sum(pair_llr(model, pair.x[i], pair.y[perm[i]]) for i in range(4))
            )
        direct /= math.factorial(4)
        assert np_oracle(model, pair).statistic == pytest.approx(direct, rel=1e-10)


def permanent_test_matrices(rng, n, count):
    """``count`` n x n matrices cycling through three kinds: normal x 5
    entries, integer entries with ties, and normal x 800 with one row scaled
    by 1e13, whose far entries weigh less than 2^-(2^40) of their row
    maximum's weight."""
    out = np.empty((count, n, n))
    for i in range(count):
        kind = i % 3
        if kind == 0:
            out[i] = rng.normal(size=(n, n)) * 5.0
        elif kind == 1:
            out[i] = rng.integers(-2, 3, size=(n, n))
        else:
            out[i] = rng.normal(size=(n, n)) * 800.0
            out[i, rng.integers(n)] *= 1e13
    return out


def harness_llr_stack(seed):
    """The ``(50, 2, 8, 8)`` LLR stack of the benchmark's oracle point at a
    seed: Bernoulli(0.6, 0.3), n=8, d=10, 50 trials, from the harness's
    substreams."""
    model = make_bernoulli(0.6, 0.3)
    llr = np.empty((50, 2, 8, 8))
    samplers = ((rngmod.RISK_NULL, sample_null_rng), (rngmod.RISK_ALT, sample_alt_rng))
    for trial in range(50):
        for h, (purpose, sample) in enumerate(samplers):
            pair = sample(model, 8, 10, rngmod.substream(seed, purpose, 0, trial))
            llr[trial, h] = pair_llr_matrix(model, pair.x, pair.y)
    return llr


class TestStackedPermanents:
    """``_log_permanent_ratios`` on a stack returns, bit for bit, the value
    the per-pair subset DP gives each matrix alone."""

    @pytest.mark.parametrize("n", [*range(1, 13), 16])
    def test_stack_equals_per_pair_dp(self, n):
        rng = np.random.default_rng(1000 + n)
        sizes = range(1, 31) if n <= 12 else (1, 2, 5)
        c = permanent_test_matrices(rng, n, max(sizes))
        if n > 1:
            spread = (c - c.max(axis=2, keepdims=True)) / math.log(2.0)
            assert spread.min() < -(2.0**40)
        expected = np.array([per_pair_log_permanent_ratio(m) for m in c])
        for size in sizes:  # each stack as one DP, whatever the sub-stack rule
            got = detectors._stack_log_permanent_ratios(c[:size])
            np.testing.assert_array_equal(got, expected[:size], err_msg=f"B={size}")
        np.testing.assert_array_equal(_log_permanent_ratios(c), expected)
        single = _log_permanent_ratios(c[0])
        assert isinstance(single, float) and single == expected[0]

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_mpmath_enumeration(self, n):
        """Within 1e-15 of a 60-digit log-sum-exp over all n! matchings,
        relative to max(1, |value|), on all three kinds of matrix."""
        mpmath = pytest.importorskip("mpmath")
        c = permanent_test_matrices(np.random.default_rng(2000 + n), n, 9)
        got = _log_permanent_ratios(c)
        with mpmath.workdps(60):
            for value, m in zip(got, c):
                totals = [
                    mpmath.fsum(mpmath.mpf(float(m[i, j])) for i, j in enumerate(p))
                    for p in itertools.permutations(range(n))
                ]
                top = max(totals)
                expected = (
                    top
                    + mpmath.log(mpmath.fsum(mpmath.exp(t - top) for t in totals))
                    - mpmath.log(mpmath.factorial(n))
                )
                error = abs(mpmath.mpf(float(value)) - expected)
                assert error <= 1e-15 * max(1, abs(expected)), (n, float(expected))

    def test_without_avx512_dispatch(self, tmp_path):
        """With numpy's AVX-512 loops turned off, a stack still equals each
        matrix alone bit for bit, and agrees with the default dispatch to
        1e-13 with the same signs.  Not bit for bit: numpy's AVX-512 exp and
        log round some values differently from its other loops."""
        targets = avx512_dispatch_targets()
        if not targets:
            pytest.skip("this CPU has no AVX-512 dispatch target")
        rng = np.random.default_rng(11)
        stacks = {str(n): permanent_test_matrices(rng, n, 30) for n in (3, 8, 12)}
        stacks["harness"] = harness_llr_stack(0)
        np.savez(tmp_path / "stacks.npz", **stacks)
        script = """
import sys
import numpy as np
from dbdetect.detectors import _log_permanent_ratios
found = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
assert not set(sys.argv[3:]) & set(found), found
stacks = np.load(sys.argv[1])
values = {}
for key in stacks.files:
    c = stacks[key]
    values[key] = _log_permanent_ratios(c)
    alone = [_log_permanent_ratios(m) for m in c.reshape(-1, *c.shape[-2:])]
    assert np.array_equal(values[key].ravel(), alone), key
np.savez(sys.argv[2], **values)
"""
        src = os.path.dirname(os.path.dirname(detectors.__file__))
        env = {
            **os.environ,
            "NPY_DISABLE_CPU_FEATURES": " ".join(targets),
            "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")])
            ),
        }
        paths = (tmp_path / "stacks.npz", tmp_path / "values.npz")
        result = subprocess.run(
            [sys.executable, "-c", script, *paths, *targets],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert result.returncode == 0, result.stderr
        values = np.load(paths[1])
        for key, c in stacks.items():
            default = _log_permanent_ratios(c)
            np.testing.assert_allclose(values[key], default, rtol=1e-13, atol=1e-13)
            np.testing.assert_array_equal(values[key] >= 0, default >= 0)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_harness_llr_stacks(self, seed):
        """The LLR stacks of the benchmark's oracle point (see
        ``harness_llr_stack``)."""
        llr = harness_llr_stack(seed)
        got = _log_permanent_ratios(llr)
        assert got.shape == (50, 2)
        expected = [[per_pair_log_permanent_ratio(m) for m in pairs] for pairs in llr]
        np.testing.assert_array_equal(got, np.array(expected))

    def test_sub_stack_rule(self):
        """Up to n = 12 a sub-stack holds several matrices, and its traced
        peak stays within the byte budget; from n = 13 on, n = 20 included,
        a matrix is a stack of one (checked without running its DP)."""
        rng = np.random.default_rng(7)
        for n in range(1, 13):
            step = detectors._permanent_stack_size(n)
            assert step > 1
            c = rng.normal(size=(step, n, n))
            tracemalloc.start()
            try:
                detectors._stack_log_permanent_ratios(c)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= detectors._PERMANENT_STACK_BYTES, n
        for n in range(13, NP_ORACLE_MAX_N + 1):
            assert detectors._permanent_stack_size(n) == 1

    def test_sub_stacks_and_chunks_are_invisible(self, monkeypatch):
        """With a 64 KiB budget and chunks of 16 column sets, a stack of
        n = 8 matrices is solved in sub-stacks of the rule's size, with
        levels split into chunks, each matrix bit for bit as alone."""
        monkeypatch.setattr(detectors, "_PERMANENT_CHUNK", 16)
        monkeypatch.setattr(detectors, "_PERMANENT_STACK_BYTES", 64 << 10)
        step = detectors._permanent_stack_size(8)
        assert 1 < step < 10
        sizes = []
        kernel = detectors._stack_log_permanent_ratios

        def recording(c):
            sizes.append(len(c))
            return kernel(c)

        monkeypatch.setattr(detectors, "_stack_log_permanent_ratios", recording)
        c = permanent_test_matrices(np.random.default_rng(8), 8, 2 * step + 1)
        got = _log_permanent_ratios(c)
        assert sizes == [step, step, 1]
        np.testing.assert_array_equal(got, [per_pair_log_permanent_ratio(m) for m in c])
