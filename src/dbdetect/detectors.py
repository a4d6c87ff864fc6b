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
from typing import Optional

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
# composition count guard for the exact d-fold convolution tail
EXACT_TAIL_MAX_TERMS = 2_000_000


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


def glrt(model: JointModel, pair: DatabasePair, tau: float = 0.0) -> Verdict:
    """Scan test: maximise the row-matching log-likelihood ratio over all
    permutations (a maximum-weight assignment on the all-pairs LLR matrix)
    and threshold the maximum divided by d*n."""
    _require_usable(model, "glrt")
    c = pair_llr_matrix(model, pair.x, pair.y)
    if not np.all(np.isfinite(c)):
        raise ValidationError("non-finite log-likelihood entry in the pair matrix")
    sigma, value = solve_max(c)
    statistic = value / (pair.d * pair.n)
    return Verdict(
        decision=int(statistic >= tau),
        statistic=float(statistic),
        threshold=float(tau),
        detector="glrt",
        aux={"sigma": sigma},
    )


def sum_statistic(model: JointModel, pair: DatabasePair) -> float:
    """Grand sum of the centered kernel over all (row_x, row_y, feature)
    triples, unnormalised.

    Gaussian: rho/(1-rho^2) times the sum of all entries of x y^T, computed
    from the feature-wise column sums.  Discrete: an exact contraction of the
    per-feature symbol counts against the centered-kernel table.
    """
    table, c2 = _centered_table_and_c2(model)
    if c2 is not None:
        xf = pair.x.astype(np.float64)
        yf = pair.y.astype(np.float64)
        if not (np.all(np.isfinite(xf)) and np.all(np.isfinite(yf))):
            raise ValidationError("non-finite observation in the data matrices")
        return float(c2 * (xf.sum(axis=0) @ yf.sum(axis=0)))
    m = model.alphabet_size
    xi = _check_symbols(model, pair.x)
    yi = _check_symbols(model, pair.y)
    counts_x = np.stack([(xi == a).sum(axis=0) for a in range(m)], axis=1).astype(
        np.float64
    )
    counts_y = np.stack([(yi == b).sum(axis=0) for b in range(m)], axis=1).astype(
        np.float64
    )
    return float(np.einsum("la,ab,lb->", counts_x, table, counts_y))


def sum_test(
    model: JointModel, pair: DatabasePair, tau: Optional[float] = None
) -> Verdict:
    """Sum test: threshold the grand centered-kernel sum.

    The default threshold is d * n * skl, the midpoint between the null mean
    (zero, by centering) and the dependent mean (2 d n skl).
    """
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
        tau = pair.d * pair.n * div.skl
    statistic = sum_statistic(model, pair)
    return Verdict(
        decision=int(statistic >= tau),
        statistic=statistic,
        threshold=float(tau),
        detector="sum",
        aux={},
    )


# ---------------------------------------------------------------------------
# Count test
# ---------------------------------------------------------------------------


def _exact_pd(model: DiscreteJointModel, d: int, tau_count: float) -> float:
    """Exact tail of the d-fold LLR convolution under the joint law:
    Pr[sum of d atom draws >= d * tau_count].

    Enumerates compositions of d over the distinct LLR atoms with multinomial
    weights, which is the d-fold convolution with exact merging.
    """
    atoms = llr_atoms(model)
    k = len(atoms)
    if math.comb(d + k - 1, k - 1) > EXACT_TAIL_MAX_TERMS:
        raise CapacityError(
            f"exact convolution would enumerate more than "
            f"{EXACT_TAIL_MAX_TERMS} compositions; use the monte-carlo method"
        )
    values = atoms.values
    log_p = np.log(atoms.p_probs)
    target = d * tau_count
    total = 0.0

    counts = [0] * k

    def rec(pos: int, remaining: int, value_acc: float, log_prob_acc: float):
        nonlocal total
        if pos == k - 1:
            value = value_acc + remaining * values[pos]
            if value >= target:
                log_coef = (
                    math.lgamma(d + 1)
                    - sum(math.lgamma(c + 1) for c in counts[: k - 1])
                    - math.lgamma(remaining + 1)
                )
                total += math.exp(log_coef + log_prob_acc + remaining * log_p[pos])
            return
        for c in range(remaining + 1):
            counts[pos] = c
            rec(pos + 1, remaining - c, value_acc + c * values[pos], log_prob_acc + c * log_p[pos])
        counts[pos] = 0

    rec(0, d, 0.0, 0.0)
    return min(1.0, total)


def _monte_carlo_pd(
    model: GaussianModel, d: int, tau_count: float, samples: int, seed: int
) -> tuple[float, float]:
    """Seeded Monte-Carlo estimate of the matched-pair exceedance probability
    for the Gaussian family, with its binomial standard error."""
    rho = model.rho
    c = 1.0 - rho * rho
    rng = rngmod.substream(seed, rngmod.PD_ESTIMATE)
    target = d * tau_count
    const = -0.5 * d * math.log(c)
    hits = 0
    chunk = max(1, min(samples, 4_000_000 // max(d, 1)))
    done = 0
    while done < samples:
        size = min(chunk, samples - done)
        a = rng.standard_normal((size, d))
        b = rho * a + math.sqrt(c) * rng.standard_normal((size, d))
        quad = (-(a * a + b * b) * rho * rho + 2.0 * rho * a * b).sum(axis=1)
        totals = const + quad / (2.0 * c)
        hits += int((totals >= target).sum())
        done += size
    pd = hits / samples
    return pd, math.sqrt(pd * (1.0 - pd) / samples)


def make_count_plan(
    model: JointModel,
    d: int,
    tau_count: float,
    method: str = "auto",
    samples: int = 1_000_000,
    seed: Optional[int] = None,
) -> CountTestPlan:
    """Precompute the count-test plan for feature count d and level tau_count.

    Discrete models default to the exact d-fold convolution; the Gaussian
    family has no finite atom law and must use the seeded Monte-Carlo
    estimator ("monte-carlo").
    """
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    _require_usable(model, "make_count_plan")
    if method == "auto":
        method = "monte-carlo" if isinstance(model, GaussianModel) else "exact-convolution"
    if method == "exact-convolution":
        if isinstance(model, GaussianModel):
            raise ValidationError(
                "exact-convolution is unsupported for gaussian models; the LLR "
                "has no finite atom law (use method='monte-carlo')"
            )
        pd = _exact_pd(model, d, tau_count)
        return CountTestPlan(
            tau_count=float(tau_count), pd=pd, pd_method="exact-convolution"
        )
    if method == "monte-carlo":
        if not isinstance(model, GaussianModel):
            raise ValidationError(
                "monte-carlo pd estimation is wired for gaussian models; "
                "discrete models have an exact method"
            )
        if seed is None:
            raise ValidationError("monte-carlo pd estimation requires a seed")
        if samples < 1:
            raise ValidationError(f"samples must be >= 1, got {samples}")
        pd, stderr = _monte_carlo_pd(model, d, float(tau_count), samples, seed)
        return CountTestPlan(
            tau_count=float(tau_count),
            pd=pd,
            pd_method="monte-carlo",
            pd_stderr=stderr,
            samples=samples,
            seed=seed,
        )
    raise ValidationError(f"unknown pd method {method!r}")


def count_test(model: JointModel, pair: DatabasePair, plan: CountTestPlan) -> Verdict:
    """Count test: the number of row pairs whose per-feature mean LLR reaches
    tau_count, thresholded against n * pd / 2."""
    _require_usable(model, "count_test")
    if plan.pd <= 0.0:
        raise ValidationError(
            "count-test threshold is vacuous: pd = 0 (tau_count above the "
            "reachable LLR range)"
        )
    c = pair_llr_matrix(model, pair.x, pair.y)
    if not np.all(np.isfinite(c)):
        raise ValidationError("non-finite log-likelihood entry in the pair matrix")
    count = int((c / pair.d >= plan.tau_count).sum())
    threshold = 0.5 * pair.n * plan.pd
    return Verdict(
        decision=int(count >= threshold),
        statistic=float(count),
        threshold=threshold,
        detector="count",
        aux={"count": count, "pd": plan.pd, "tau_count": plan.tau_count},
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


def np_oracle(model: JointModel, pair: DatabasePair) -> Verdict:
    """Exact mixture-likelihood test: average the row-matching likelihood
    ratio over all n! permutations, perm(exp C) / n! for the all-pairs LLR
    matrix C, and threshold at 1 (ties decide "dependent").

    This is the average-risk-optimal decision rule.  The permanent comes from
    a subset DP over column sets (O(2^n n), see ``_log_permanent_ratio``), so
    the oracle supports n <= ``NP_ORACLE_MAX_N`` and serves as the
    optimality yardstick for the other detectors.
    """
    _require_usable(model, "np_oracle")
    n = pair.n
    if n > NP_ORACLE_MAX_N:
        raise CapacityError(
            f"np_oracle's subset DP over 2^n column sets supports n <= "
            f"{NP_ORACLE_MAX_N}, got n={n}"
        )
    c = pair_llr_matrix(model, pair.x, pair.y)
    if not np.all(np.isfinite(c)):
        raise ValidationError("non-finite log-likelihood entry in the pair matrix")
    log_stat = _log_permanent_ratio(c)
    return Verdict(
        decision=int(log_stat >= 0.0),
        statistic=float(math.exp(log_stat)) if log_stat < 700 else math.inf,
        threshold=1.0,
        detector="np-oracle",
        aux={"log_statistic": log_stat},
    )
