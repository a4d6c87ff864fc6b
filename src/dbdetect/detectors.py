"""The decision procedures: scan (GLRT), sum, and count tests, plus the
exact Neyman-Pearson mixture oracle for small instances.

Every detector returns a :class:`Verdict` whose ``decision`` is 1 exactly
when ``statistic >= threshold`` (ties decide "dependent").  All detectors are
invariant to row reordering of either matrix, so their risk does not depend
on the hidden permutation.
"""

from __future__ import annotations

import math
import mmap
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
    observations,
    pair_llr_matrix,
)

# the mixture oracle's subset DP costs O(2^n n) a matrix: 0.38-0.41 s and 29 MB
# of peak RSS above an idle process for one matrix at n = 20 (19-20 ms at
# n = 16) on a 2-vCPU machine
NP_ORACLE_MAX_N = 20
# column sets per chunk of a level of that DP, which bounds the scratch of a
# matrix solved alone: at most _PERMANENT_SCRATCH_ARRAYS arrays of 8-byte
# entries, one per column set and set bit (3.85 arrays of n _PERMANENT_CHUNK
# entries traced at n = 20)
_PERMANENT_CHUNK = 1 << 14
_PERMANENT_SCRATCH_ARRAYS = 4
# bytes of the DP's arrays for a sub-stack of B > 1 matrices: B (8 2^n + 8)
# of tables and final logs, 9 2^n of level index, and the scratch of a whole
# level.  It bounds the DP's working set however many trials a block holds,
# and larger sub-stacks save little interpreter time: 100 matrices at n = 8
# took 2.3-2.5 ms in one sub-stack, 2.6 ms in sub-stacks of 47 (this budget)
# and 5.1 ms in ones of 6.  A matrix whose arrays alone exceed it, from
# n = 13 on, is a stack of one
_PERMANENT_STACK_BYTES = 1 << 19
# entries per block of the Monte-Carlo pd kernel's z draws and arithmetic
_PD_BLOCK_ELEMS = 1 << 14
# matched rows a Gaussian count plan's Monte-Carlo pd draws by default
PD_SAMPLES = 1_000_000
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
    """What the detectors share about one dataset pair, or a stack of them:
    the databases ``x`` and ``y``, of shape ``(n, d)`` or ``(..., n, d)``,
    and their all-pairs LLR matrices, computed on first use by one
    ``pair_llr_matrix`` call and checked to be finite once.

    A caller that runs several detectors on the same pairs passes one cache
    to each of them, so the matrices are computed once."""

    __slots__ = ("model", "x", "y", "_llr")

    def __init__(self, model: JointModel, x: np.ndarray, y: np.ndarray):
        self.model = model
        self.x = x
        self.y = y
        self._llr: Optional[np.ndarray] = None

    def llr(self) -> np.ndarray:
        if self._llr is None:
            c = pair_llr_matrix(self.model, self.x, self.y)
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

    The risk harness evaluates a block of pairs at a time, trusting their
    data, and decides ``statistic >= cut`` (ties decide "dependent").
    ``evaluate_block(cache)`` returns the statistics of the stack of pairs
    in a :class:`PairCache`, one per pair of its lead shape, each that of
    its pair alone.  A *stacked* detector (the scan test and the mixture
    oracle) is evaluated on a larger stack instead: ``evaluate_stack(llr)``
    takes a work unit's ``(trials, 2, n, n)`` stack of pair LLR matrices,
    which all the stacked detectors of a point share, and returns the
    ``(trials, 2)`` statistics.  ``threshold`` is the threshold as verdicts
    and risk rows report it.  ``verdict(pair, cache)`` checks the pair's
    data and returns the public detector's :class:`Verdict`.  A threshold
    that needs work of its own (the count test's ``pd``) is ``None`` until
    ``settle()`` computes it."""

    name: str
    model: JointModel
    cut: Optional[float]
    threshold: Optional[float]
    stacked = False

    def settle(self) -> float:
        return self.cut

    def evaluate_block(self, cache: PairCache) -> np.ndarray:
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
            pair, cache if cache is not None else PairCache(self.model, pair.x, pair.y)
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
    divided by d*n.

    The risk harness does not evaluate it pair by pair: ``evaluate_stack``
    solves the assignments of the block's shared LLR stack in one
    ``solve_max`` call."""

    name = "glrt"
    stacked = True

    def __init__(self, model: JointModel, n: int, d: int, tau: float = 0.0):
        _require_usable(model, "glrt")
        self.model = model
        self.scale = d * n
        self.threshold = self.cut = require_number(tau, "tau")

    def evaluate_stack(self, llr: np.ndarray) -> np.ndarray:
        """The statistics of a ``(..., n, n)`` stack of pair LLR matrices,
        each equal to the statistic of its pair alone."""
        return solve_max(llr)[1] / self.scale

    def measure(self, pair, cache):
        sigma, value = solve_max(cache.llr())
        statistic = value / (pair.d * pair.n)
        return statistic, float(statistic), {"sigma": sigma}


def _sum_statistics(table, c2, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Grand sum of the centered kernel over all (row_x, row_y, feature)
    triples, unnormalised, of each pair of the ``(..., n, d)`` stacks x and
    y: an array of their lead shape.

    Gaussian (``c2 = rho/(1-rho^2)``): c2 times the sum of all entries of
    x y^T, from the feature-wise column sums, each pair's two taken as one
    BLAS dot (``vecdot`` makes the dot a single pair's ``@`` makes).
    Discrete: an exact contraction of each pair's per-feature symbol counts
    against the centered-kernel ``table``.
    """
    if c2 is not None:
        return c2 * np.vecdot(x.sum(axis=-2), y.sum(axis=-2))
    lead, d = x.shape[:-2], x.shape[-1]
    m = table.shape[0]

    def counts(v):
        per_symbol = [(v == a).sum(axis=-2) for a in range(m)]
        return np.stack(per_symbol, axis=-1).astype(np.float64).reshape(-1, d, m)

    pairs = zip(counts(x), counts(y))
    return np.array(
        [np.einsum("la,ab,lb->", cx, table, cy) for cx, cy in pairs]
    ).reshape(lead)


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

    def evaluate_block(self, cache):
        return _sum_statistics(self._table, self._c2, cache.x, cache.y)

    def measure(self, pair, cache):
        x = observations(self.model, pair.x)
        y = observations(self.model, pair.y)
        statistic = float(_sum_statistics(self._table, self._c2, x, y))
        return statistic, statistic, {}


class PreparedCount(PreparedDetector):
    """Count test: the number of row pairs whose LLR sum over the d features
    reaches d * tau_count, thresholded against n * pd / 2.  The level d *
    tau_count is the one the pd plan counts exceedances of.

    The statistic needs no ``pd``, so ``plan_source`` (a callable returning
    the :class:`CountTestPlan`) runs only when ``settle`` is first called.
    A risk point settles its plan before it collects its blocks; a block
    binds its detectors again (``experiments.run_unit``, in process or in a
    worker) and never settles them, so it runs no pd pass of its own.
    ``settle`` rejects a plan with pd = 0, since every statistic would reach
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

    def evaluate_block(self, cache):
        return (cache.llr() >= self.level).sum(axis=(-2, -1))

    def measure(self, pair, cache):
        count = int(self.evaluate_block(cache))
        aux = {"count": count, "pd": self.plan.pd, "tau_count": self.plan.tau_count}
        return count, float(count), aux


class PreparedNpOracle(PreparedDetector):
    """Exact mixture-likelihood test: average the row-matching likelihood
    ratio over all n! permutations, perm(exp C) / n! for the all-pairs LLR
    matrix C, and threshold at 1 (ties decide "dependent").  The statistic
    it evaluates is the log of that average, against 0.

    The risk harness does not evaluate it pair by pair: ``evaluate_stack``
    runs one subset DP over the block's shared LLR stack."""

    name = "np-oracle"
    stacked = True
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

    def evaluate_stack(self, llr: np.ndarray) -> np.ndarray:
        """The log statistics of a ``(..., n, n)`` stack of pair LLR
        matrices, each equal to the log statistic of its pair alone."""
        return _log_permanent_ratios(llr)

    def measure(self, pair, cache):
        log_stat = _log_permanent_ratios(cache.llr())
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


def _mapped_stack(shape: tuple[int, ...]) -> np.ndarray:
    """An uninitialised float64 array of ``shape`` in an anonymous memory map
    of its own.  The allocator's heap then never holds it, and its pages go
    back to the system when it is freed.  Allocated on the heap, the 1.3 MB
    stacks of the benchmark's ``mc-scan`` points, each freed amid the small
    arrays of a solve, left about 2 MB of free but untrimmed heap behind:
    peak RSS 44.4 MB over 60 rounds, against 42.3 MB mapped.  A map the
    system refuses raises ``CapacityError``."""
    count = math.prod(shape)
    try:
        buffer = mmap.mmap(-1, max(1, 8 * count))
    except OSError as exc:
        raise CapacityError(
            f"cannot map {8 * count} bytes for a {shape} float64 array: "
            f"{exc.strerror or exc}"
        ) from None
    return np.frombuffer(buffer, dtype=np.float64, count=count).reshape(shape)


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
    # mapped: on the heap, this 32 MB chunk at d = 100 stayed resident once frees
    # had raised malloc's mmap threshold (mc-sum-count peak RSS 104 MB, not 73)
    a_chunk = _mapped_stack((chunk, d))
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
        members, *rest = self.pd_pass(d)
        self.store(members, d, _monte_carlo_pd(members, *rest))
        return self.done[(model, d)]

    def pd_pass(self, d: int):
        """``(members, d, samples, seed)``, the arguments of the one
        Monte-Carlo pass (see ``_monte_carlo_pd``) that gives the plans of
        all the table's Gaussian models at d, or None when the table has no
        Gaussian model or those plans are in.  The caller may run the pass
        elsewhere and hand its estimates to :meth:`store`."""
        if d < 1:
            raise ValidationError(f"d must be >= 1, got {d}")
        group = [
            m for m in self.models
            if isinstance(m, GaussianModel) and (m, d) not in self.done
        ]
        if not group:
            return None
        members = [(m, resolve_tau_count(m, self.tau_count)) for m in group]
        if self.seed is None:
            raise ValidationError("monte-carlo pd estimation requires a seed")
        if self.samples < 1:
            raise ValidationError(f"samples must be >= 1, got {self.samples}")
        return members, d, self.samples, self.seed

    def store(self, members, d: int, estimates) -> None:
        """Keep the plans of a pass's ``(model, tau_count)`` members at d,
        from its ``(pd, stderr)`` estimates."""
        for (m, tau), (pd, stderr) in zip(members, estimates):
            self.done[(m, d)] = CountTestPlan(
                tau, pd, "monte-carlo", stderr, self.samples, self.seed
            )


def make_count_plan(
    model: JointModel,
    d: int,
    tau_count,
    samples: int = PD_SAMPLES,
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


def _log_permanent_ratios(c: np.ndarray):
    """log(perm(exp c) / n!) of each finite square matrix of ``c``, of shape
    ``(n, n)`` or ``(..., n, n)``: a float for one matrix, else an array of
    the lead shape, each value that of its matrix alone, bit for bit.

    The matrices are solved in sub-stacks of ``_permanent_stack_size(n)``,
    each by one subset DP (see ``_stack_log_permanent_ratios``)."""
    n = c.shape[-1]
    stack = c.reshape(-1, n, n)
    step = _permanent_stack_size(n)
    values = np.concatenate(
        [
            _stack_log_permanent_ratios(stack[lo : lo + step])
            for lo in range(0, len(stack), step)
        ]
    )
    if c.ndim == 2:
        return float(values[0])
    return values.reshape(c.shape[:-2])


def _permanent_stack_size(n: int) -> int:
    """Matrices per sub-stack of the oracle's subset DP at n: the most whose
    arrays fit ``_PERMANENT_STACK_BYTES`` (see there), at least one."""
    widest = max(k * math.comb(n, k) for k in range(1, n + 1))
    per_matrix = 8 * (1 << n) + 8 + 8 * _PERMANENT_SCRATCH_ARRAYS * widest
    return max(1, (_PERMANENT_STACK_BYTES - 9 * (1 << n)) // per_matrix)


def _stack_log_permanent_ratios(c: np.ndarray) -> np.ndarray:
    """log(perm(exp c) / n!) of each matrix of a ``(B, n, n)`` stack ``c``.

    Subset DP over column sets in log space: for |S| = k, log f[S] is the
    log-sum-exp over j in S of log f[S - {j}] + c[k-1, j], so log f[all
    columns] is the log permanent; O(2^n n) work a matrix.  A set's terms
    are exponentiated relative to the largest, which is exactly 1, so no
    sum overflows or underflows to 0, however far the best matching sits
    below the row maxima.  The normaliser log n! is accumulated as the DP
    accumulates an all-zero matrix, np.log(k) added at level k, so an
    independent model gives exactly 0.

    The DP runs level by level for the whole stack, with a ``(B, 2^n)``
    table and a chunk of up to ``_PERMANENT_CHUNK`` of a level's column sets
    for all B matrices at once.  Its terms are gathered by ``np.take``, which
    builds them C-contiguous, so each set's k terms are summed as one
    contiguous row, in the order a single matrix sums them: a strided row
    would be summed one term after another instead of pairwise, and move
    some values by an ulp or more."""
    b, n = c.shape[0], c.shape[-1]
    popcount = np.bitwise_count(np.arange(1 << n, dtype=np.int64))
    by_level = np.argsort(popcount, kind="stable")
    level_start = np.concatenate(([0], np.cumsum(np.bincount(popcount))))
    table = np.zeros((b, 1 << n))
    bits = np.arange(n, dtype=np.int64)
    for k in range(1, n + 1):
        row = c[:, k - 1]
        for lo in range(level_start[k], level_start[k + 1], _PERMANENT_CHUNK):
            level = by_level[lo : min(lo + _PERMANENT_CHUNK, level_start[k + 1])]
            cols = np.nonzero((level[:, None] >> bits) & 1)[1].reshape(-1, k)
            terms = np.take(table, level[:, None] ^ (1 << cols), axis=1)
            terms += np.take(row, cols, axis=1)
            top = terms.max(axis=2)
            terms -= top[:, :, None]
            table[:, level] = top + np.log(np.exp(terms, out=terms).sum(axis=2))
            del terms  # not held while the next chunk's are built
    return table[:, -1] - sum(np.log(np.arange(1.0, n + 1)).tolist())


def np_oracle(
    model: JointModel, pair: DatabasePair, cache: Optional[PairCache] = None
) -> Verdict:
    """Exact mixture-likelihood test (see :class:`PreparedNpOracle`) on one
    pair.

    This is the average-risk-optimal decision rule.  The permanent comes from
    a subset DP over column sets (O(2^n n), see ``_log_permanent_ratios``), so
    the oracle supports n <= ``NP_ORACLE_MAX_N`` and serves as the
    optimality yardstick for the other detectors.
    """
    return PreparedNpOracle(model, pair.n, pair.d).verdict(pair, cache)
