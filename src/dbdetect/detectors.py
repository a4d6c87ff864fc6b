"""The decision procedures: scan (GLRT), sum, and count tests, plus the
exact Neyman-Pearson mixture oracle for small instances.

Every detector returns a :class:`Verdict` whose ``decision`` is 1 exactly
when ``statistic >= threshold`` (ties decide "dependent").  All detectors are
invariant to row reordering of either matrix, so their risk does not depend
on the hidden permutation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import rng as rngmod
from .assignment import solve_max
from .errors import CapacityError, DegenerateModelError, ValidationError
from .exponents import _centered_table, kl_divergences, llr_atoms
from .models import (
    DatabasePair,
    DiscreteJointModel,
    GaussianModel,
    JointModel,
    _check_symbols,
    pair_llr_matrix,
)

# the mixture oracle's subset DP costs O(2^n n): about 0.8 s and 60 MB at n = 20
# on a 2-vCPU machine
NP_ORACLE_MAX_N = 20
# per-level mask chunk of that DP, which bounds its scratch arrays
_PERMANENT_CHUNK = 1 << 14
# weights below 2^-(2^40) of their row maximum are held at that floor
_PERMANENT_MIN_EXP = -(2.0**40)
# entries per block of the Monte-Carlo pd kernel's z draws and arithmetic
_PD_BLOCK_ELEMS = 1 << 14
# partial compositions the exact pd walk may build, C(d + k, d + 1) for k
# atoms: about 60 bytes each, and 75 ms for Bernoulli's 3 atoms at d = 1000
# on a 2-vCPU machine
EXACT_TAIL_MAX_TERMS = 2_000_000
# symbolic count-test level: half of KL(P||Q), resolved per model
TAU_COUNT_HALF_KL = "half-kl"


@dataclass(frozen=True, eq=False)
class Verdict:
    decision: int
    statistic: float
    threshold: float
    detector: str
    aux: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class CountTestPlan:
    """Frozen configuration of the count test: the per-pair level
    ``tau_count`` and the matched-pair exceedance probability ``pd`` under the
    joint law, with how ``pd`` was obtained."""

    tau_count: float
    pd: float
    pd_method: str  # "exact-convolution" or "monte-carlo"
    pd_stderr: float = 0.0
    samples: Optional[int] = None
    seed: Optional[int] = None


def _centered_table_and_c2(model: JointModel):
    if isinstance(model, GaussianModel):
        rho = model.rho
        return None, rho / (1.0 - rho * rho)
    return _centered_table(model), None


def _require_usable(model: JointModel, operation: str) -> None:
    if isinstance(model, DiscreteJointModel):
        model.require_mutual_continuity(operation)
        model.require_positive_marginal(operation)


class PairCache:
    """What the detectors share about one dataset pair: its all-pairs LLR
    matrix, computed on first use and checked to be finite.

    A caller that runs several detectors on the same pair passes one cache
    to each of them, so the matrix is computed once per pair."""

    __slots__ = ("model", "pair", "_llr")

    def __init__(self, model: JointModel, pair: DatabasePair):
        self.model = model
        self.pair = pair
        self._llr: Optional[np.ndarray] = None

    def llr(self) -> np.ndarray:
        if self._llr is None:
            c = pair_llr_matrix(self.model, self.pair.x, self.pair.y)
            if not np.all(np.isfinite(c)):
                raise ValidationError(
                    "non-finite log-likelihood entry in the pair matrix"
                )
            self._llr = c
        return self._llr


def require_number(value, name: str) -> float:
    """A threshold or per-pair level as a float; NaN is rejected, since
    every comparison with it is false."""
    value = float(value)
    if math.isnan(value):
        raise ValidationError(f"{name} must be a number, got nan")
    return value


class PreparedDetector:
    """A detector bound to a model and a database shape (n, d), with the
    work that does not depend on the pair done once: model checks,
    constants, and the threshold.

    ``evaluate(pair, cache)`` returns the statistic of a pair drawn by the
    risk harness, trusting its data, and the decision is ``statistic >=
    cut`` (ties decide "dependent").  ``threshold`` is the threshold as
    verdicts and risk rows report it.  ``verdict(pair, cache)`` checks the
    pair's data and returns the public detector's :class:`Verdict`.  A
    threshold that needs work of its own (the count test's ``pd``) is
    ``None`` until ``settle()`` computes it."""

    name: str
    model: JointModel
    cut: Optional[float]
    threshold: Optional[float]

    def settle(self) -> float:
        return self.cut

    def evaluate(self, pair: DatabasePair, cache: PairCache) -> float:
        raise NotImplementedError

    def measure(self, pair: DatabasePair, cache: PairCache) -> tuple[float, float, dict]:
        """Check the pair's data, and return the value compared with
        ``cut``, the statistic the verdict reports, and the verdict's
        ``aux``."""
        raise NotImplementedError

    def verdict(
        self, pair: DatabasePair, cache: Optional[PairCache] = None
    ) -> Verdict:
        cut = self.settle()
        value, statistic, aux = self.measure(
            pair, cache if cache is not None else PairCache(self.model, pair)
        )
        return Verdict(
            decision=int(value >= cut),
            statistic=statistic,
            threshold=self.threshold,
            detector=self.name,
            aux=aux,
        )


class PreparedGlrt(PreparedDetector):
    """Scan test: the maximum row-matching log-likelihood ratio over all
    permutations (a maximum-weight assignment on the all-pairs LLR matrix),
    divided by d*n."""

    name = "glrt"

    def __init__(self, model: JointModel, n: int, d: int, tau: float = 0.0):
        _require_usable(model, "glrt")
        self.model = model
        self.threshold = self.cut = require_number(tau, "tau")

    def _solve(self, pair: DatabasePair, cache: PairCache):
        sigma, value = solve_max(cache.llr())
        return sigma, value / (pair.d * pair.n)

    def evaluate(self, pair, cache):
        return self._solve(pair, cache)[1]

    def measure(self, pair, cache):
        sigma, statistic = self._solve(pair, cache)
        return statistic, float(statistic), {"sigma": sigma}


def _sum_statistic(table, c2, x: np.ndarray, y: np.ndarray) -> float:
    """Grand sum of the centered kernel over all (row_x, row_y, feature)
    triples, unnormalised.

    Gaussian (``c2 = rho/(1-rho^2)``): c2 times the sum of all entries of
    x y^T, computed from the feature-wise column sums.  Discrete: an exact
    contraction of the per-feature symbol counts against the centered-kernel
    ``table``.
    """
    if c2 is not None:
        return float(c2 * (x.sum(axis=0) @ y.sum(axis=0)))
    m = table.shape[0]
    counts_x = np.stack([(x == a).sum(axis=0) for a in range(m)], axis=1).astype(
        np.float64
    )
    counts_y = np.stack([(y == b).sum(axis=0) for b in range(m)], axis=1).astype(
        np.float64
    )
    return float(np.einsum("la,ab,lb->", counts_x, table, counts_y))


class PreparedSum(PreparedDetector):
    """Sum test: threshold the grand centered-kernel sum.

    The default threshold is d * n * skl, the midpoint between the null mean
    (zero, by centering) and the dependent mean (2 d n skl).
    """

    name = "sum"

    def __init__(
        self, model: JointModel, n: int, d: int, tau: Optional[float] = None
    ):
        _require_usable(model, "sum_test")
        div = kl_divergences(model)
        if div.skl <= 0.0 or (
            isinstance(model, DiscreteJointModel) and model.is_independent
        ):
            raise DegenerateModelError(
                "sum test is undefined for an independent model (its threshold "
                "d*n*skl vanishes and every decision would be 1)"
            )
        if tau is None:
            tau = d * n * div.skl
        self.model = model
        self.threshold = self.cut = require_number(tau, "tau")
        self._table, self._c2 = _centered_table_and_c2(model)

    def evaluate(self, pair, cache):
        return _sum_statistic(self._table, self._c2, pair.x, pair.y)

    def measure(self, pair, cache):
        if self._c2 is not None:
            x = pair.x.astype(np.float64)
            y = pair.y.astype(np.float64)
            if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
                raise ValidationError("non-finite observation in the data matrices")
        else:
            x = _check_symbols(self.model, pair.x)
            y = _check_symbols(self.model, pair.y)
        statistic = _sum_statistic(self._table, self._c2, x, y)
        return statistic, statistic, {}


class PreparedCount(PreparedDetector):
    """Count test: the number of row pairs whose LLR sum over the d features
    reaches d * tau_count, thresholded against n * pd / 2.  The level d *
    tau_count is the one the pd plan counts exceedances of.

    The statistic needs no ``pd``, so ``plan_source`` (a callable returning
    the :class:`CountTestPlan`) runs only when ``settle`` is first called:
    the risk harness records count statistics while the plan is estimated.
    A plan with pd = 0 is rejected there, since every statistic would reach
    its threshold.
    """

    name = "count"

    def __init__(
        self,
        model: JointModel,
        n: int,
        d: int,
        tau_count: float,
        plan_source: Callable[[], CountTestPlan],
    ):
        self.model = model
        self.n = n
        self.level = d * require_number(tau_count, "tau_count")
        self._plan_source = plan_source
        self.plan: Optional[CountTestPlan] = None
        self.threshold = self.cut = None

    def settle(self) -> float:
        if self.cut is None:
            plan = self._plan_source()
            if plan.pd <= 0.0:
                raise ValidationError(
                    "count-test threshold is vacuous: pd = 0 (tau_count above "
                    "the reachable LLR range)"
                )
            self.threshold = self.cut = 0.5 * self.n * plan.pd
            self.plan = plan
        return self.cut

    def evaluate(self, pair, cache):
        return int(np.count_nonzero(cache.llr() >= self.level))

    def measure(self, pair, cache):
        count = self.evaluate(pair, cache)
        aux = {"count": count, "pd": self.plan.pd, "tau_count": self.plan.tau_count}
        return count, float(count), aux


class PreparedNpOracle(PreparedDetector):
    """Exact mixture-likelihood test: average the row-matching likelihood
    ratio over all n! permutations, perm(exp C) / n! for the all-pairs LLR
    matrix C, and threshold at 1 (ties decide "dependent").  The statistic
    it evaluates is the log of that average, against 0."""

    name = "np-oracle"
    threshold = 1.0
    cut = 0.0

    def __init__(self, model: JointModel, n: int, d: int):
        _require_usable(model, "np_oracle")
        if n > NP_ORACLE_MAX_N:
            raise CapacityError(
                f"np_oracle's subset DP over 2^n column sets supports n <= "
                f"{NP_ORACLE_MAX_N}, got n={n}"
            )
        self.model = model

    def evaluate(self, pair, cache):
        return _log_permanent_ratio(cache.llr())

    def measure(self, pair, cache):
        log_stat = self.evaluate(pair, cache)
        statistic = float(math.exp(log_stat)) if log_stat < 700 else math.inf
        return log_stat, statistic, {"log_statistic": log_stat}


def glrt(
    model: JointModel,
    pair: DatabasePair,
    tau: float = 0.0,
    cache: Optional[PairCache] = None,
) -> Verdict:
    """Scan test (see :class:`PreparedGlrt`) on one pair, thresholded at
    ``tau``."""
    return PreparedGlrt(model, pair.n, pair.d, tau).verdict(pair, cache)


def sum_test(
    model: JointModel, pair: DatabasePair, tau: Optional[float] = None
) -> Verdict:
    """Sum test (see :class:`PreparedSum`) on one pair; ``tau`` defaults
    to d * n * skl."""
    return PreparedSum(model, pair.n, pair.d, tau).verdict(pair)


# ---------------------------------------------------------------------------
# Count test
# ---------------------------------------------------------------------------


def _exact_pd(model: DiscreteJointModel, d: int, tau_count: float) -> float:
    """Exact tail of the d-fold LLR convolution under the joint law:
    Pr[sum of d atom draws >= d * tau_count], the multinomial weights of the
    compositions of d over the distinct LLR atoms that reach the level.

    A walk over the atoms: after atom ``pos`` each entry is one way to spend
    some of the d draws on atoms ``0..pos`` (earlier atoms outermost, counts
    ascending), and the last atom takes the draws left.  The terms are added
    one at a time with ``math.exp``, in that order.
    """
    atoms = llr_atoms(model)
    k = len(atoms)
    built = math.comb(d + k, d + 1)
    if built > EXACT_TAIL_MAX_TERMS:
        raise CapacityError(
            f"the exact convolution would build {built} partial compositions "
            f"(d={d}, {k} LLR atoms), above {EXACT_TAIL_MAX_TERMS}"
        )
    values = atoms.values
    log_p = np.log(atoms.p_probs)
    lgammas = np.array([math.lgamma(c + 1) for c in range(d + 1)])
    # per entry: LLR sum, log-probability, sum of lgamma(count + 1), draws left
    value = log_prob = log_fact = np.zeros(1)
    left = np.array([d])
    for pos in range(k - 1):
        reps = left + 1
        c = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        value = np.repeat(value, reps) + c * values[pos]
        log_prob = np.repeat(log_prob, reps) + c * log_p[pos]
        log_fact = np.repeat(log_fact, reps) + lgammas[c]
        left = np.repeat(left, reps) - c
    hit = value + left * values[-1] >= d * tau_count
    left = left[hit]
    terms = math.lgamma(d + 1) - log_fact[hit] - lgammas[left] + log_prob[hit]
    terms = terms + left * log_p[-1]
    total = 0.0
    for term in terms.tolist():
        total += math.exp(term)
    return min(1.0, total)


def _monte_carlo_pd(
    members: Sequence[tuple[GaussianModel, float]], d: int, samples: int, seed: int
) -> list[tuple[float, float]]:
    """Seeded Monte-Carlo estimates of the matched-pair exceedance
    probability for Gaussian models, one ``(pd, stderr)`` per ``(model,
    tau_count)`` member, with the binomial standard error.

    The stream is part of the reproducibility contract: ``samples`` matched
    rows are drawn from ``substream(seed, PD_ESTIMATE)`` in chunks of
    ``4_000_000 // d`` rows, each chunk as a block of ``a`` draws and then a
    block of ``z`` draws (taken a few rows at a time, which gives the same
    values), and a member pairs them as ``b = rho * a + sqrt(1 - rho^2) *
    z``.  So the draws depend only on ``(seed, d, samples)``, not on rho or
    tau_count: members with the same three share one pass (a sweep
    estimates all its models' plans at one d in a single call), and each
    member's estimate equals a call with that member alone.
    """
    params = []
    for model, tau_count in members:
        rho = model.rho
        c = 1.0 - rho * rho
        params.append(
            (rho, c, math.sqrt(c), 2.0 * rho, -0.5 * d * math.log(c), d * tau_count)
        )
    rng = rngmod.substream(seed, rngmod.PD_ESTIMATE)
    hits = [0] * len(params)
    chunk = max(1, min(samples, 4_000_000 // d))
    block = max(1, min(chunk, _PD_BLOCK_ELEMS // d))
    a_chunk = np.empty((chunk, d))
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        a_all = rng.standard_normal(out=a_chunk[:size])
        for lo in range(0, size, block):
            a = a_all[lo : lo + block]
            z = rng.standard_normal(a.shape)
            a2 = a * a
            for m, (rho, c, sqrt_c, two_rho, const, target) in enumerate(params):
                b = a * rho + z * sqrt_c
                t = (a2 + b * b) * -rho * rho + a * two_rho * b
                totals = const + t.sum(axis=1) / (2.0 * c)
                hits[m] += int((totals >= target).sum())
        done += size
    pds = [h / samples for h in hits]
    return [(pd, math.sqrt(pd * (1.0 - pd) / samples)) for pd in pds]


def resolve_tau_count(model: JointModel, tau_count) -> float:
    """The count test's per-pair level for ``model``: a number, or
    ``TAU_COUNT_HALF_KL`` for half of KL(P||Q)."""
    if tau_count == TAU_COUNT_HALF_KL:
        return 0.5 * kl_divergences(model).kl_pq
    if tau_count is None:
        raise ValidationError(
            "the count detector needs tau_count (a number or 'half-kl')"
        )
    try:
        value = float(tau_count)
    except ValueError:
        raise ValidationError(
            f"tau_count must be a number or 'half-kl', got {tau_count!r}"
        ) from None
    return require_number(value, "tau_count")


class CountPlans:
    """The count-test plans of one run (a ``detect`` call, a risk point or a
    sweep), one per model and d, computed once and reused at every n: the
    package's one source of count plans.

    ``pd`` is the exact d-fold convolution tail for a discrete model and the
    seeded Monte-Carlo estimate for a Gaussian one, which has no finite atom
    law.  A Monte-Carlo plan's draws depend only on ``(seed, d, samples)``,
    so the first plan asked for at a d is computed with those of all the
    table's Gaussian models at that d, in one pass (see
    ``_monte_carlo_pd``), and each equals the plan of its model alone.  A
    plan whose pd is 0 is stored like any other; ``PreparedCount.settle``
    rejects it where it is used."""

    def __init__(
        self, models: Sequence[JointModel], tau_count, samples: int, seed
    ):
        self.models = tuple(models)
        self.tau_count = tau_count  # a number or TAU_COUNT_HALF_KL
        self.samples = samples
        self.seed = seed
        self.done: dict[tuple[JointModel, int], CountTestPlan] = {}

    def get(self, model: JointModel, d: int) -> CountTestPlan:
        """The plan of ``model``, one of the table's models, at d."""
        if (model, d) in self.done:
            return self.done[(model, d)]
        if d < 1:
            raise ValidationError(f"d must be >= 1, got {d}")
        if not isinstance(model, GaussianModel):
            tau = resolve_tau_count(model, self.tau_count)
            _require_usable(model, "make_count_plan")
            plan = CountTestPlan(tau, _exact_pd(model, d, tau), "exact-convolution")
            self.done[(model, d)] = plan
            return plan
        group = [m for m in self.models if isinstance(m, GaussianModel)]
        members = [(m, resolve_tau_count(m, self.tau_count)) for m in group]
        if self.seed is None:
            raise ValidationError("monte-carlo pd estimation requires a seed")
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        estimates = _monte_carlo_pd(members, d, self.samples, self.seed)
        for (m, tau), (pd, stderr) in zip(members, estimates):
            self.done[(m, d)] = CountTestPlan(
                tau, pd, "monte-carlo", stderr, self.samples, self.seed
            )
        return self.done[(model, d)]


def make_count_plan(
    model: JointModel,
    d: int,
    tau_count,
    samples: int = 1_000_000,
    seed: Optional[int] = None,
) -> CountTestPlan:
    """The count-test plan of ``model`` alone at feature count d and level
    ``tau_count`` (a number or ``TAU_COUNT_HALF_KL``).  Discrete models get
    the exact d-fold convolution; the Gaussian family gets the seeded
    Monte-Carlo estimate, which needs a ``seed``."""
    return CountPlans((model,), tau_count, samples, seed).get(model, d)


def count_test(
    model: JointModel,
    pair: DatabasePair,
    plan: CountTestPlan,
    cache: Optional[PairCache] = None,
) -> Verdict:
    """Count test (see :class:`PreparedCount`) on one pair with a
    precomputed plan."""
    _require_usable(model, "count_test")
    return PreparedCount(model, pair.n, pair.d, plan.tau_count, lambda: plan).verdict(
        pair, cache
    )


def _log_permanent_ratio(c: np.ndarray) -> float:
    """log(perm(exp c) / n!) for a finite square matrix c.

    Subset DP over column sets: f[S] for |S| = k sums f[S - {j}] * exp(c[k-1, j])
    over j in S, so f[all columns] is the permanent; O(2^n n) work.  Each row
    is first shifted by its maximum and every value is kept as a mantissa in
    [0.5, 1) times an integer power of two, so no term underflows however far
    the best matching sits below the row maxima, and all terms are positive.
    Normalising by float(n!), exact for n <= 20, makes the all-zero matrix
    of an independent model give exactly 0.
    """
    n = c.shape[0]
    shift = c.max(axis=1)
    log2_a = np.maximum((c - shift[:, None]) / math.log(2.0), _PERMANENT_MIN_EXP)
    a_exp = np.floor(log2_a)
    a_mant = np.exp2(log2_a - a_exp)
    a_exp = a_exp.astype(np.int64)
    masks = np.arange(1 << n, dtype=np.int64)
    popcount = np.bitwise_count(masks)
    by_level = np.argsort(popcount, kind="stable")
    level_start = np.concatenate(([0], np.cumsum(np.bincount(popcount))))
    mant = np.zeros(1 << n)
    expo = np.zeros(1 << n, dtype=np.int64)
    mant[0] = 1.0
    bits = np.arange(n, dtype=np.int64)
    for k in range(1, n + 1):
        row_mant, row_exp = a_mant[k - 1], a_exp[k - 1]
        for lo in range(level_start[k], level_start[k + 1], _PERMANENT_CHUNK):
            level = by_level[lo : min(lo + _PERMANENT_CHUNK, level_start[k + 1])]
            cols = np.nonzero((level[:, None] >> bits) & 1)[1].reshape(-1, k)
            src = level[:, None] ^ (1 << cols)
            term_exp = expo[src] + row_exp[cols]
            top = term_exp.max(axis=1)
            total = np.ldexp(mant[src] * row_mant[cols], term_exp - top[:, None])
            level_mant, level_exp = np.frexp(total.sum(axis=1))
            mant[level] = level_mant
            expo[level] = top + level_exp
    fact_mant, fact_exp = math.frexp(float(math.factorial(n)))
    return (
        float(shift.sum())
        + math.log(mant[-1] / fact_mant)
        + (int(expo[-1]) - fact_exp) * math.log(2.0)
    )


def np_oracle(
    model: JointModel, pair: DatabasePair, cache: Optional[PairCache] = None
) -> Verdict:
    """Exact mixture-likelihood test (see :class:`PreparedNpOracle`) on one
    pair.

    This is the average-risk-optimal decision rule.  The permanent comes from
    a subset DP over column sets (O(2^n n), see ``_log_permanent_ratio``), so
    the oracle supports n <= ``NP_ORACLE_MAX_N`` and serves as the
    optimality yardstick for the other detectors.
    """
    return PreparedNpOracle(model, pair.n, pair.d).verdict(pair, cache)
